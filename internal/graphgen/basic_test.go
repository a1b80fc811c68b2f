package graphgen

import (
	"testing"
)

func TestClique(t *testing.T) {
	g := Clique(5, 2)
	if g.N() != 5 || g.M() != 10 {
		t.Fatalf("K5: n=%d m=%d", g.N(), g.M())
	}
	if g.CSR().MaxDegree() != 4 {
		t.Fatalf("K5 max degree = %d", g.CSR().MaxDegree())
	}
	if l, _ := g.Latency(0, 4); l != 2 {
		t.Fatalf("K5 latency = %d", l)
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestStar(t *testing.T) {
	g := Star(6, 3)
	if g.M() != 5 || g.CSR().Degree(0) != 5 || g.CSR().Degree(1) != 1 {
		t.Fatalf("star shape wrong: m=%d", g.M())
	}
	if g.CSR().WeightedDiameter() != 6 {
		t.Fatalf("star diameter = %d, want 6", g.CSR().WeightedDiameter())
	}
}

func TestPathCycle(t *testing.T) {
	p := Path(4, 1)
	if p.M() != 3 || p.CSR().WeightedDiameter() != 3 {
		t.Fatalf("path wrong: m=%d D=%d", p.M(), p.CSR().WeightedDiameter())
	}
	c := Cycle(4, 1)
	if c.M() != 4 || c.CSR().WeightedDiameter() != 2 {
		t.Fatalf("cycle wrong: m=%d D=%d", c.M(), c.CSR().WeightedDiameter())
	}
}

func TestGrid(t *testing.T) {
	g := Grid(3, 4, 1)
	if g.N() != 12 {
		t.Fatalf("grid n = %d", g.N())
	}
	// 3 rows x 3 horizontal edges + 2 x 4 vertical edges = 9 + 8.
	if g.M() != 17 {
		t.Fatalf("grid m = %d, want 17", g.M())
	}
	if g.CSR().WeightedDiameter() != 5 {
		t.Fatalf("grid diameter = %d, want 5", g.CSR().WeightedDiameter())
	}
}

func TestBinaryTree(t *testing.T) {
	g := BinaryTree(7, 1)
	if g.M() != 6 {
		t.Fatalf("tree m = %d", g.M())
	}
	if g.CSR().Degree(0) != 2 || g.CSR().Degree(1) != 3 {
		t.Fatal("tree degrees wrong")
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestErdosRenyi(t *testing.T) {
	rng := NewRand(7)
	g, err := ErdosRenyi(40, 0.3, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	if g.CSR().MaxLatency() != 2 {
		t.Fatalf("ER latency = %d", g.CSR().MaxLatency())
	}
}

func TestRandomRegular(t *testing.T) {
	rng := NewRand(11)
	g, err := RandomRegular(30, 4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		if g.CSR().Degree(u) != 4 {
			t.Fatalf("node %d degree %d, want 4", u, g.CSR().Degree(u))
		}
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomRegularErrors(t *testing.T) {
	rng := NewRand(1)
	if _, err := RandomRegular(5, 3, 1, rng); err == nil {
		t.Fatal("odd n*d should error")
	}
	if _, err := RandomRegular(4, 4, 1, rng); err == nil {
		t.Fatal("d >= n should error")
	}
}

func TestDumbbell(t *testing.T) {
	g := Dumbbell(5, 50)
	if g.N() != 10 {
		t.Fatalf("dumbbell n = %d", g.N())
	}
	if l, ok := g.Latency(0, 5); !ok || l != 50 {
		t.Fatalf("bridge latency = %d,%v", l, ok)
	}
	if err := g.CSR().Validate(); err != nil {
		t.Fatal(err)
	}
	// Diameter: into clique (1) + bridge (50) + out of clique (1).
	if d := g.CSR().WeightedDiameter(); d != 52 {
		t.Fatalf("dumbbell diameter = %d, want 52", d)
	}
}

func TestAssignRandomLatencies(t *testing.T) {
	g := Clique(6, 1)
	AssignRandomLatencies(g, 3, 9, NewRand(5))
	for _, e := range g.Edges() {
		if e.Latency < 3 || e.Latency > 9 {
			t.Fatalf("latency %d outside [3,9]", e.Latency)
		}
	}
}

func TestNewRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("NewRand not deterministic")
		}
	}
}
