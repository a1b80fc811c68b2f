package spanner

import (
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

func TestBuildSmallClique(t *testing.T) {
	g := graphgen.Clique(8, 1)
	sp, err := Build(g, Options{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sp.K != 3 {
		t.Fatalf("K = %d, want ceil(log2 8) = 3", sp.K)
	}
	if !sp.csr().Connected() {
		t.Fatal("spanner disconnected")
	}
}

// The stretch values were recorded from the adjacency-map Dijkstra; the
// CSR one must reproduce them exactly.
func TestStretchBoundHolds(t *testing.T) {
	want := map[string]float64{"clique": 2, "grid": 3, "cycle": 1, "star": 1, "weighted": 14.0 / 13}
	rng := graphgen.NewRand(5)
	cases := map[string]*graph.Graph{
		"clique": graphgen.Clique(32, 2),
		"grid":   graphgen.Grid(6, 6, 1),
		"cycle":  graphgen.Cycle(40, 3),
		"star":   graphgen.Star(30, 2),
		"weighted": func() *graph.Graph {
			g, err := graphgen.ErdosRenyi(40, 0.25, 1, rng)
			if err != nil {
				t.Fatal(err)
			}
			graphgen.AssignRandomLatencies(g, 1, 20, rng)
			return g
		}(),
	}
	for name, g := range cases {
		t.Run(name, func(t *testing.T) {
			sp, err := Build(g, Options{Seed: 7})
			if err != nil {
				t.Fatal(err)
			}
			bound := float64(2*sp.K - 1)
			got := sp.Stretch(g.CSR(), 10, graphgen.NewRand(9))
			if math.IsInf(got, 1) {
				t.Fatal("spanner disconnected")
			}
			if got > bound+1e-9 {
				t.Fatalf("stretch %v exceeds 2k-1 = %v", got, bound)
			}
			if got != want[name] {
				t.Fatalf("stretch %v, recorded %v", got, want[name])
			}
		})
	}
}

func TestK1SpannerIsWholeGraph(t *testing.T) {
	g := graphgen.Clique(6, 1)
	sp, err := Build(g, Options{K: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if sp.NumEdges() != g.M() {
		t.Fatalf("k=1 spanner has %d edges, want all %d", sp.NumEdges(), g.M())
	}
	if got := sp.Stretch(g.CSR(), 5, graphgen.NewRand(1)); got != 1 {
		t.Fatalf("k=1 stretch = %v, want 1", got)
	}
}

func TestSpannerSizeSubquadratic(t *testing.T) {
	n := 64
	g := graphgen.Clique(n, 1)
	sp, err := Build(g, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	full := g.M()
	if sp.NumEdges() >= full/2 {
		t.Fatalf("spanner kept %d of %d clique edges; expected strong sparsification", sp.NumEdges(), full)
	}
	// Lemma 19: out-degree O(n^(1/k) log n) — generous constant check.
	if sp.MaxOutDegree() > 8*int(math.Log2(float64(n)))+16 {
		t.Fatalf("max out-degree %d too large", sp.MaxOutDegree())
	}
}

func TestMaxLatencyFilter(t *testing.T) {
	// Dumbbell with a slow bridge: building with MaxLatency below the
	// bridge must exclude it (yielding a disconnected spanner — exactly
	// the subgraph semantics RR Broadcast wants).
	g := graphgen.Dumbbell(5, 100)
	sp, err := Build(g, Options{Seed: 13, MaxLatency: 10})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range sp.Out[0] {
		if e.ID == 5 {
			t.Fatal("filtered bridge edge present in spanner")
		}
	}
	if sp.csr().Connected() {
		t.Fatal("spanner connected despite bridge exclusion")
	}
}

func TestBuildErrors(t *testing.T) {
	g := graphgen.Clique(4, 1)
	if _, err := Build(g, Options{NHat: 2}); err == nil {
		t.Fatal("nHat < n should error")
	}
}

func TestNHatEstimate(t *testing.T) {
	g := graphgen.Clique(16, 1)
	sp, err := Build(g, Options{NHat: 256, Seed: 17}) // nˆ = n²
	if err != nil {
		t.Fatal(err)
	}
	bound := float64(2*sp.K - 1)
	if got := sp.Stretch(g.CSR(), 8, graphgen.NewRand(3)); got > bound || got != 2 {
		t.Fatalf("stretch %v exceeds bound %v with nˆ=n², or differs from the recorded 2", got, bound)
	}
}

func TestDeterministicBySeed(t *testing.T) {
	g := graphgen.Grid(5, 5, 1)
	a, err := Build(g, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(g, Options{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumEdges() != b.NumEdges() || a.MaxOutDegree() != b.MaxOutDegree() {
		t.Fatal("same-seed builds differ")
	}
	for v := range a.Out {
		if len(a.Out[v]) != len(b.Out[v]) {
			t.Fatalf("node %d out-degree differs", v)
		}
	}
}

func TestOrientationCoversAllEdges(t *testing.T) {
	g := graphgen.Grid(4, 4, 1)
	sp, err := Build(g, Options{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	// Every oriented edge must exist in the original graph with the
	// same latency.
	for u, outs := range sp.Out {
		for _, e := range outs {
			l, ok := g.Latency(u, e.ID)
			if !ok {
				t.Fatalf("spanner edge (%d,%d) not in graph", u, e.ID)
			}
			if l != e.Latency {
				t.Fatalf("spanner edge (%d,%d) latency %d, graph has %d", u, e.ID, e.Latency, l)
			}
		}
	}
}
