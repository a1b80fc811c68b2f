package graphgen

import (
	"testing"
)

func TestHypercube(t *testing.T) {
	g, err := Hypercube(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 16 {
		t.Fatalf("n = %d", g.N())
	}
	// d-regular with n·d/2 edges.
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("degree(%d) = %d", u, g.Degree(u))
		}
	}
	if g.M() != 32 {
		t.Fatalf("m = %d", g.M())
	}
	if d := g.WeightedDiameter(); d != 4*2 { // dim hops at latency 2
		t.Fatalf("diameter = %d, want 8", d)
	}
	if _, err := Hypercube(0, 1); err == nil {
		t.Fatal("dim 0 should error")
	}
	if _, err := Hypercube(21, 1); err == nil {
		t.Fatal("dim 21 should error")
	}
}

func TestTorus(t *testing.T) {
	g, err := Torus(4, 5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 20 || g.M() != 40 {
		t.Fatalf("torus shape: n=%d m=%d", g.N(), g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("degree(%d) = %d", u, g.Degree(u))
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := Torus(2, 5, 1); err == nil {
		t.Fatal("small torus should error")
	}
}

func TestWattsStrogatz(t *testing.T) {
	rng := NewRand(3)
	g, err := WattsStrogatz(40, 2, 0.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Expected ~n·k edges minus skipped rewires.
	if g.M() < 40 || g.M() > 80 {
		t.Fatalf("m = %d", g.M())
	}
	if _, err := WattsStrogatz(10, 5, 0.1, 1, rng); err == nil {
		t.Fatal("2k >= n should error")
	}
	if _, err := WattsStrogatz(10, 2, 1.5, 1, rng); err == nil {
		t.Fatal("beta > 1 should error")
	}
}

func TestWattsStrogatzZeroBetaIsLattice(t *testing.T) {
	rng := NewRand(4)
	g, err := WattsStrogatz(12, 2, 0, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Pure ring lattice: every node has degree 4 and m = n·k.
	if g.M() != 24 {
		t.Fatalf("m = %d, want 24", g.M())
	}
	for u := 0; u < g.N(); u++ {
		if g.Degree(u) != 4 {
			t.Fatalf("degree(%d) = %d", u, g.Degree(u))
		}
	}
}

func TestChungLu(t *testing.T) {
	rng := NewRand(5)
	g, err := ChungLu(100, 2.5, 300, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Heavy tail: the max degree should far exceed the mean degree.
	degrees, _ := DegreeHistogram(g)
	maxDeg := degrees[len(degrees)-1]
	meanDeg := 2 * float64(g.M()) / float64(g.N())
	if float64(maxDeg) < 2*meanDeg {
		t.Fatalf("no heavy tail: max %d vs mean %.1f", maxDeg, meanDeg)
	}
	if _, err := ChungLu(10, 2.0, 30, 1, rng); err == nil {
		t.Fatal("gamma <= 2 should error")
	}
	if _, err := ChungLu(2, 2.5, 1, 1, rng); err == nil {
		t.Fatal("n < 3 should error")
	}
}

func TestBarbellChain(t *testing.T) {
	g, err := BarbellChain(3, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 12 {
		t.Fatalf("n = %d", g.N())
	}
	// 3 cliques x 6 edges + 2 bridges.
	if g.M() != 20 {
		t.Fatalf("m = %d", g.M())
	}
	if l, ok := g.Latency(3, 4); !ok || l != 25 {
		t.Fatalf("bridge latency = %d,%v", l, ok)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := BarbellChain(1, 4, 5); err == nil {
		t.Fatal("single clique should error")
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := Star(5, 1)
	degrees, counts := DegreeHistogram(g)
	if len(degrees) != 2 || degrees[0] != 1 || degrees[1] != 4 {
		t.Fatalf("degrees = %v", degrees)
	}
	if counts[1] != 4 || counts[4] != 1 {
		t.Fatalf("counts = %v", counts)
	}
}
