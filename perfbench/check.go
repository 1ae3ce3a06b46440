package main

// The partition checker. It shares no code with the program: it reads the
// partition in its JSON wire form (or converts a library result into that
// form field by field) and checks it against the benchmark's own adjacency
// rows, so a fault in the program's graph or verify layers cannot hide a
// wrong answer.

import (
	"fmt"
	"math"
	"slices"

	"netdecomp/internal/decomp"
	"netdecomp/internal/graph"
)

// refGraph is the benchmark's own copy of a graph: one sorted adjacency row
// per vertex. The churn workloads apply every mutation batch to it, so it is
// the authority the served N, M and partitions are checked against.
type refGraph struct {
	rows [][]int32
	m    int
}

// copyGraph copies g's rows into a refGraph.
func copyGraph(g graph.Interface) *refGraph {
	r := &refGraph{rows: make([][]int32, g.N())}
	for v := range r.rows {
		r.rows[v] = slices.Clone(g.Neighbors(v))
		r.m += len(r.rows[v])
	}
	r.m /= 2
	return r
}

func (r *refGraph) n() int { return len(r.rows) }

func (r *refGraph) has(u, v int32) bool {
	_, ok := slices.BinarySearch(r.rows[u], v)
	return ok
}

// set inserts or removes the undirected edge {u,v}; the caller guarantees
// the change is effective.
func (r *refGraph) set(u, v int32, insert bool) {
	for _, e := range [2][2]int32{{u, v}, {v, u}} {
		row := r.rows[e[0]]
		i, _ := slices.BinarySearch(row, e[1])
		if insert {
			r.rows[e[0]] = slices.Insert(row, i, e[1])
		} else {
			r.rows[e[0]] = slices.Delete(row, i, i+1)
		}
	}
	if insert {
		r.m++
	} else {
		r.m--
	}
}

// cluster and partition mirror the stable JSON form of decomp.Partition;
// only the fields the checks read are decoded.
type cluster struct {
	Members []int `json:"members"`
	Center  int   `json:"center"`
	Color   int   `json:"color"`
}

type partition struct {
	N          int       `json:"n"`
	Clusters   []cluster `json:"clusters"`
	ClusterOf  []int     `json:"clusterOf"`
	Colors     int       `json:"colors"`
	PhasesUsed int       `json:"phasesUsed"`
	Complete   bool      `json:"complete"`
}

// fromLibrary converts a library result into the checker's form.
func fromLibrary(p *decomp.Partition) *partition {
	out := &partition{N: p.N, ClusterOf: p.ClusterOf, Colors: p.Colors, PhasesUsed: p.PhasesUsed, Complete: p.Complete}
	out.Clusters = make([]cluster, len(p.Clusters))
	for i, c := range p.Clusters {
		out.Clusters[i] = cluster{Members: c.Members, Center: c.Center, Color: c.Color}
	}
	return out
}

// radiusK is the Elkin–Neiman parameter k = ⌈ln n⌉ of the plans the
// workloads run (the plans leave k at its default).
func radiusK(n int) int { return max(1, int(math.Ceil(math.Log(float64(n))))) }

// checkPartition checks p against g. It returns an error when p breaks a
// rule every decomposition must keep:
//   - every vertex is in exactly one cluster, and ClusterOf agrees;
//   - adjacent clusters have different colors;
//   - Colors is the number of distinct colors.
//
// It also counts the clusters that break the Theorem 1 radius: each cluster
// must contain its Center, with every member within k−1 hops of it inside
// G[C], so that G[C] is connected and its strong diameter is at most 2k−2.
// The theorem promises this only when no radius draw reaches k+1 (the
// truncation events of Lemma 1, probability at most 2/c per run), so a
// count above zero is reported, not treated as a wrong answer.
func checkPartition(g *refGraph, p *partition, k int) (radiusExceptions int, err error) {
	n := g.n()
	if p.N != n || len(p.ClusterOf) != n {
		return 0, fmt.Errorf("partition covers n=%d (clusterOf %d), graph has %d vertices", p.N, len(p.ClusterOf), n)
	}
	owner := make([]int32, n)
	for v := range owner {
		owner[v] = -1
	}
	for ci, c := range p.Clusters {
		for _, v := range c.Members {
			if v < 0 || v >= n {
				return 0, fmt.Errorf("cluster %d: member %d out of range", ci, v)
			}
			if owner[v] >= 0 {
				return 0, fmt.Errorf("vertex %d is in clusters %d and %d", v, owner[v], ci)
			}
			owner[v] = int32(ci)
		}
	}
	for v, ci := range owner {
		if ci < 0 {
			return 0, fmt.Errorf("vertex %d is in no cluster", v)
		}
		if p.ClusterOf[v] != int(ci) {
			return 0, fmt.Errorf("clusterOf[%d] = %d, but the vertex is a member of cluster %d", v, p.ClusterOf[v], ci)
		}
	}

	colors := map[int]bool{}
	for _, c := range p.Clusters {
		colors[c.Color] = true
	}
	for u, row := range g.rows {
		for _, w := range row {
			cu, cw := owner[u], owner[w]
			if cu != cw && p.Clusters[cu].Color == p.Clusters[cw].Color {
				return 0, fmt.Errorf("adjacent clusters %d and %d (edge %d-%d) share color %d", cu, cw, u, w, p.Clusters[cu].Color)
			}
		}
	}
	if p.Colors != len(colors) {
		return 0, fmt.Errorf("colors = %d, but the clusters use %d distinct colors", p.Colors, len(colors))
	}

	// Depth-bounded BFS from each center inside its own cluster. dist
	// doubles as the visited mark: clusters are disjoint, so one array
	// serves every search.
	dist := make([]int32, n)
	for v := range dist {
		dist[v] = -1
	}
	var queue []int32
	for ci, c := range p.Clusters {
		if c.Center < 0 || c.Center >= n || owner[c.Center] != int32(ci) {
			radiusExceptions++
			continue
		}
		queue = append(queue[:0], int32(c.Center))
		dist[c.Center] = 0
		for h := 0; h < len(queue); h++ {
			u := queue[h]
			if dist[u] == int32(k-1) {
				continue
			}
			for _, w := range g.rows[u] {
				if owner[w] == int32(ci) && dist[w] < 0 {
					dist[w] = dist[u] + 1
					queue = append(queue, w)
				}
			}
		}
		if len(queue) != len(c.Members) {
			radiusExceptions++
		}
	}
	return radiusExceptions, nil
}
