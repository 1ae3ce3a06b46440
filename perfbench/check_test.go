package main

import (
	"context"
	"fmt"
	"testing"

	"netdecomp/internal/decomp"
	"netdecomp/internal/dyn"
	"netdecomp/internal/gen"
	"netdecomp/internal/graph"
)

// path6 is the path 0-1-2-3-4-5.
func path6() *refGraph {
	return copyGraph(graph.FromEdges(6, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}}))
}

// twoClusters is a valid partition of path6 for k=2: {0,1,2} around 1 and
// {3,4,5} around 4.
func twoClusters() *partition {
	return &partition{
		N: 6,
		Clusters: []cluster{
			{Members: []int{0, 1, 2}, Center: 1, Color: 0},
			{Members: []int{3, 4, 5}, Center: 4, Color: 1},
		},
		ClusterOf: []int{0, 0, 0, 1, 1, 1},
		Colors:    2,
	}
}

func TestCheckerAcceptsValidPartition(t *testing.T) {
	beyond, err := checkPartition(path6(), twoClusters(), 2)
	if err != nil || beyond != 0 {
		t.Fatalf("valid partition: %d clusters beyond the radius, err %v", beyond, err)
	}
}

func TestCheckerRejectsBrokenPartitions(t *testing.T) {
	for _, tc := range []struct {
		name   string
		mutate func(p *partition)
	}{
		{"vertex in no cluster", func(p *partition) {
			p.Clusters[1].Members = []int{3, 4}
			p.ClusterOf[5] = -1
		}},
		{"vertex in two clusters", func(p *partition) {
			p.Clusters[1].Members = []int{2, 3, 4, 5}
		}},
		{"clusterOf disagrees", func(p *partition) { p.ClusterOf[0] = 1 }},
		{"member out of range", func(p *partition) { p.Clusters[1].Members = []int{3, 4, 5, 6} }},
		{"wrong vertex count", func(p *partition) { p.N = 7 }},
		{"adjacent clusters share a color", func(p *partition) {
			p.Clusters[1].Color = 0
			p.Colors = 1
		}},
		{"colors miscounted", func(p *partition) { p.Colors = 3 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := twoClusters()
			tc.mutate(p)
			if _, err := checkPartition(path6(), p, 2); err == nil {
				t.Fatal("broken partition accepted")
			}
		})
	}
}

func TestCheckerCountsClustersBeyondTheRadius(t *testing.T) {
	for _, tc := range []struct {
		name string
		p    *partition
	}{
		{"member k hops from the center", func() *partition {
			p := twoClusters()
			p.Clusters[0].Center = 0 // vertex 2 is now 2 hops away
			return p
		}()},
		{"center outside its cluster", func() *partition {
			p := twoClusters()
			p.Clusters[0].Center = 4
			return p
		}()},
		{"cluster disconnected in G[C]", &partition{
			N: 6,
			Clusters: []cluster{
				{Members: []int{0, 2}, Center: 0, Color: 0},
				{Members: []int{1}, Center: 1, Color: 1},
				{Members: []int{3, 4, 5}, Center: 4, Color: 1},
			},
			ClusterOf: []int{0, 1, 0, 2, 2, 2},
			Colors:    2,
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			beyond, err := checkPartition(path6(), tc.p, 2)
			if err != nil || beyond != 1 {
				t.Fatalf("got %d clusters beyond the radius, err %v; want 1, nil", beyond, err)
			}
		})
	}
}

// TestCheckerOnProgramOutputs runs the checker on real decompositions: the
// simulation and the engine on four graph families.
func TestCheckerOnProgramOutputs(t *testing.T) {
	for _, fam := range []gen.Family{gen.FamilyGnp, gen.FamilyTorus, gen.FamilyGrid, gen.FamilyPowerLaw} {
		g, err := gen.Build(fam, 1024, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref := copyGraph(g)
		for _, alg := range []string{"elkin-neiman", "elkin-neiman/dist"} {
			for seed := uint64(1); seed <= 2; seed++ {
				pl, err := decomp.Compile(alg, decomp.WithSeed(seed), decomp.WithForceComplete())
				if err != nil {
					t.Fatal(err)
				}
				p, err := pl.Run(context.Background(), g)
				if err != nil {
					t.Fatal(err)
				}
				beyond, err := checkPartition(ref, fromLibrary(p), radiusK(g.N()))
				if err != nil {
					t.Errorf("%v %s seed %d: %v", fam, alg, seed, err)
				}
				if beyond > 0 {
					t.Logf("%v %s seed %d: %d clusters beyond the Theorem 1 radius", fam, alg, seed, beyond)
				}
			}
		}
	}
}

func TestBatchesAreBalancedEffectiveAndSeeded(t *testing.T) {
	g, err := gen.Build(gen.FamilyTorus, 1024, 0)
	if err != nil {
		t.Fatal(err)
	}
	mine, ra, rb := copyGraph(g), stream(7, "batches"), stream(7, "batches")
	for range 5 {
		before := copyGraph(g)
		ba, bb := nextBatch(ra, mine), nextBatch(rb, copyGraph(g))
		if fmt.Sprint(ba) != fmt.Sprint(bb) {
			t.Fatal("equal seeds drew different batches")
		}
		if len(ba) != batchSize(before) {
			t.Fatalf("batch of %d mutations, want %d", len(ba), batchSize(before))
		}
		inserts := 0
		for _, m := range ba {
			insert := m.Op == dyn.OpInsert
			if insert == before.has(m.U, m.V) {
				t.Fatalf("mutation %+v is not effective", m)
			}
			if insert {
				inserts++
			}
			if insert != mine.has(m.U, m.V) {
				t.Fatalf("mutation %+v not applied to the benchmark's edge set", m)
			}
		}
		if 2*inserts != len(ba) {
			t.Fatalf("%d inserts in a batch of %d", inserts, len(ba))
		}
		g = dynApply(t, g, ba)
	}
}

// dynApply applies b to g through the program's overlay.
func dynApply(t *testing.T, g graph.Interface, b dyn.Batch) *graph.Graph {
	next, _, err := dyn.Wrap(g).Apply(b)
	if err != nil {
		t.Fatal(err)
	}
	return next.Compact()
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if m := median(xs); m != 5.5 {
		t.Fatalf("median = %v", m)
	}
}
