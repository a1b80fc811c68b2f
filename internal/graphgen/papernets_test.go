package graphgen

import (
	"testing"

	"gossip/internal/graph"
)

func TestGadgetShape(t *testing.T) {
	targets := TargetSet{{0, 1}: true}
	gd, err := NewGadget(3, 2, 50, targets, false)
	if err != nil {
		t.Fatal(err)
	}
	g := gd.Graph
	if g.N() != 6 {
		t.Fatalf("gadget n = %d", g.N())
	}
	// L-clique edges: 3; cross edges: 9.
	if g.M() != 12 {
		t.Fatalf("gadget m = %d, want 12", g.M())
	}
	if l, _ := g.Latency(gd.Left(0), gd.Right(1)); l != 2 {
		t.Fatalf("target cross edge latency = %d, want lo=2", l)
	}
	if l, _ := g.Latency(gd.Left(0), gd.Right(0)); l != 50 {
		t.Fatalf("non-target cross edge latency = %d, want hi=50", l)
	}
	if l, _ := g.Latency(gd.Left(0), gd.Left(1)); l != 1 {
		t.Fatalf("clique edge latency = %d, want 1", l)
	}
	if g.HasEdge(gd.Right(0), gd.Right(1)) {
		t.Fatal("asymmetric gadget has an R-clique edge")
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGadgetSymmetric(t *testing.T) {
	gd, err := NewGadget(3, 1, 10, TargetSet{}, true)
	if err != nil {
		t.Fatal(err)
	}
	if !gd.Graph.HasEdge(gd.Right(0), gd.Right(1)) {
		t.Fatal("symmetric gadget missing R-clique edge")
	}
	// 2 cliques x 3 edges + 9 cross edges.
	if gd.Graph.M() != 15 {
		t.Fatalf("Gsym m = %d, want 15", gd.Graph.M())
	}
}

func TestGadgetErrors(t *testing.T) {
	if _, err := NewGadget(0, 1, 2, TargetSet{}, false); err == nil {
		t.Fatal("m=0 should error")
	}
	if _, err := NewGadget(2, 3, 2, TargetSet{}, false); err == nil {
		t.Fatal("hi < lo should error")
	}
}

func TestSingletonAndRandomTarget(t *testing.T) {
	rng := NewRand(3)
	st := SingletonTarget(8, rng)
	if len(st) != 1 {
		t.Fatalf("singleton target size = %d", len(st))
	}
	rt := RandomTarget(30, 0.5, rng)
	if len(rt) < 300 || len(rt) > 600 {
		t.Fatalf("Random_0.5 on 30x30 gave %d pairs, expected ~450", len(rt))
	}
}

func TestTheorem9Network(t *testing.T) {
	rng := NewRand(5)
	net, err := NewTheorem9Network(40, 8, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := net.Graph
	if g.N() != 40 {
		t.Fatalf("n = %d", g.N())
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	// Left gadget nodes connect to: Δ-1 clique + Δ cross + 1 hub = 2Δ.
	if d := g.CSR().Degree(0); d != 16 {
		t.Fatalf("left node degree = %d, want 16", d)
	}
	// Exactly one fast cross edge.
	fast := 0
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if l, _ := g.Latency(net.Gadget.Left(i), net.Gadget.Right(j)); l == 1 {
				fast++
			}
		}
	}
	if fast != 1 {
		t.Fatalf("fast cross edges = %d, want 1", fast)
	}
}

func TestTheorem9NetworkTight(t *testing.T) {
	rng := NewRand(6)
	net, err := NewTheorem9Network(16, 8, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph.N() != 16 {
		t.Fatalf("n = %d", net.Graph.N())
	}
	if _, err := NewTheorem9Network(10, 8, 20, rng); err == nil {
		t.Fatal("n < 2Δ should error")
	}
}

func TestTheorem10Network(t *testing.T) {
	rng := NewRand(9)
	net, err := NewTheorem10Network(20, 4, 1000, 0.3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if net.Graph.N() != 40 {
		t.Fatalf("n = %d", net.Graph.N())
	}
	if err := net.Graph.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	fast, slow := 0, 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			l, _ := net.Graph.Latency(net.Gadget.Left(i), net.Gadget.Right(j))
			switch l {
			case 4:
				fast++
			case 1000:
				slow++
			default:
				t.Fatalf("unexpected cross latency %d", l)
			}
		}
	}
	if fast+slow != 400 {
		t.Fatalf("cross edge count = %d", fast+slow)
	}
	if fast < 60 || fast > 200 {
		t.Fatalf("fast edges = %d, expected ~120", fast)
	}
	if _, err := NewTheorem10Network(5, 2, 10, 1.5, rng); err == nil {
		t.Fatal("phi > 1 should error")
	}
}

func TestRingNetworkShape(t *testing.T) {
	rng := NewRand(13)
	r, err := NewRingNetwork(6, 4, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	g := r.Graph
	if g.N() != 24 {
		t.Fatalf("ring n = %d", g.N())
	}
	// Observation 14: (3s-1)-regular.
	for u := 0; u < g.N(); u++ {
		if g.CSR().Degree(u) != 3*4-1 {
			t.Fatalf("node %d degree = %d, want %d", u, g.CSR().Degree(u), 3*4-1)
		}
	}
	if len(r.FastEdges) != 6 {
		t.Fatalf("fast edges = %d, want 6", len(r.FastEdges))
	}
	for _, fe := range r.FastEdges {
		if l, ok := g.Latency(fe[0], fe[1]); !ok || l != 1 {
			t.Fatalf("fast edge latency = %d", l)
		}
	}
	// Lemma 15's half-ring cut: 2s² cut edges over a volume of
	// (k/2)·s·(3s-1).
	if a, want := r.Alpha(), 2.0*4*4/(3*4*11); a != want {
		t.Fatalf("alpha = %v, want %v", a, want)
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRingNetworkErrors(t *testing.T) {
	rng := NewRand(1)
	if _, err := NewRingNetwork(2, 4, 5, rng); err == nil {
		t.Fatal("k < 3 should error")
	}
	if _, err := NewRingNetwork(4, 0, 5, rng); err == nil {
		t.Fatal("s < 1 should error")
	}
	if _, err := NewRingNetwork(4, 2, 0, rng); err == nil {
		t.Fatal("ell < 1 should error")
	}
}

func TestRingDiameterScalesWithLayers(t *testing.T) {
	rng := NewRand(23)
	r, err := NewRingNetwork(8, 3, 1000, rng)
	if err != nil {
		t.Fatal(err)
	}
	d := r.Graph.CSR().WeightedDiameter()
	// Fast ring edges keep the diameter near k/2 plus per-layer hops,
	// far below the slow latency.
	if d >= 1000 {
		t.Fatalf("diameter %d should avoid slow edges", d)
	}
	if d < int64(r.Layers/2) {
		t.Fatalf("diameter %d below half the layer count %d", d, r.Layers/2)
	}
}

// The gadget cross edges must form a cut separating L from R.
func TestGadgetCrossEdgesFormCut(t *testing.T) {
	gd, err := NewGadget(4, 1, 9, TargetSet{{1, 2}: true}, true)
	if err != nil {
		t.Fatal(err)
	}
	g := gd.Graph
	var crossless []graph.Edge
	left := func(v int) bool { return v < gd.M }
	for _, e := range g.Edges() {
		if left(e.U) == left(e.V) {
			crossless = append(crossless, e)
		}
	}
	// Removing all cross edges must disconnect L from R: rebuild without
	// them and check.
	h := graph.New(g.N())
	for _, e := range crossless {
		h.MustAddEdge(e.U, e.V, e.Latency)
	}
	if h.CSR().Connected() {
		t.Fatal("cross edges do not form a cut")
	}
}
