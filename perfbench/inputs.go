package main

// Every input a workload sends is derived here from the one workload seed
// given on the command line: graph seeds, plan seeds, the warm hot set and
// its request order, the cold seed sequence and the mutation batches. The
// program only ever receives the generated values.

import (
	"encoding/json"
	"hash/fnv"

	"netdecomp/internal/dyn"
)

// rng is SplitMix64, kept local so the inputs do not depend on the
// program's own random number code.
type rng struct{ s uint64 }

// stream returns the generator for one named input stream of seed, so
// adding a stream never shifts the values of another.
func stream(seed uint64, name string) *rng {
	h := fnv.New64a()
	h.Write([]byte(name))
	return &rng{s: seed ^ h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// distinctSeeds draws count seeds from r, none of which is in avoid; the
// drawn seeds are added to avoid.
func distinctSeeds(r *rng, count int, avoid map[uint64]bool) []uint64 {
	out := make([]uint64, 0, count)
	for len(out) < count {
		s := r.next() >> 1 // below 2^63, so a seed also fits a signed 64-bit field
		if avoid[s] {
			continue
		}
		avoid[s] = true
		out = append(out, s)
	}
	return out
}

// batchFraction is the churn rate: each batch changes 0.1% of the edges.
const batchFraction = 0.001

// batchSize is the even number of mutations in one batch on g.
func batchSize(g *refGraph) int {
	return max(2, int(batchFraction*float64(g.m))&^1)
}

// nextBatch draws a balanced batch against g — half deletions of present
// edges, half insertions of absent ones, no edge twice — and applies it to
// g. Every mutation is effective, so the batch's size is the damage it
// claims to be.
func nextBatch(r *rng, g *refGraph) dyn.Batch {
	size := batchSize(g)
	seen := map[[2]int32]bool{}
	key := func(u, v int32) [2]int32 { return [2]int32{min(u, v), max(u, v)} }
	b := make(dyn.Batch, 0, size)
	for len(b) < size/2 {
		u := int32(r.intn(g.n()))
		row := g.rows[u]
		if len(row) == 0 {
			continue
		}
		v := row[r.intn(len(row))]
		if seen[key(u, v)] {
			continue
		}
		seen[key(u, v)] = true
		b = append(b, dyn.Mutation{Op: dyn.OpDelete, U: u, V: v})
	}
	for len(b) < size {
		u, v := int32(r.intn(g.n())), int32(r.intn(g.n()))
		if u == v || g.has(u, v) || seen[key(u, v)] {
			continue
		}
		seen[key(u, v)] = true
		b = append(b, dyn.Mutation{Op: dyn.OpInsert, U: u, V: v})
	}
	for _, m := range b {
		g.set(m.U, m.V, m.Op == dyn.OpInsert)
	}
	return b
}

// batchJSON renders b as the mutate endpoint's request body.
func batchJSON(b dyn.Batch) []byte {
	type edge struct {
		U int32 `json:"u"`
		V int32 `json:"v"`
	}
	type entry struct {
		Insert *edge `json:"insert,omitempty"`
		Delete *edge `json:"delete,omitempty"`
	}
	doc := struct {
		Mutations []entry `json:"mutations"`
	}{make([]entry, len(b))}
	for i, m := range b {
		e := &edge{m.U, m.V}
		if m.Op == dyn.OpInsert {
			doc.Mutations[i].Insert = e
		} else {
			doc.Mutations[i].Delete = e
		}
	}
	data, _ := json.Marshal(doc) // plain structs of ints: cannot fail
	return data
}
