package graphgen

import (
	"slices"
	"strings"
	"testing"

	"gossip/internal/graph"
)

// TestBuildFamilies builds every advertised family once and sanity-checks
// the node count against the family's -n semantics.
func TestBuildFamilies(t *testing.T) {
	wantN := map[string]int{
		"clique":   12,
		"star":     12,
		"path":     12,
		"cycle":    12,
		"tree":     12,
		"er":       12,
		"regular":  12,
		"grid":     16,     // side = ceil(sqrt 12) = 4
		"dumbbell": 24,     // per-side count
		"ring":     6 * 12, // layers × per-layer count
	}
	for _, fam := range Families() {
		spec := Spec{Family: fam, N: 12, Latency: 2, P: 0.3, Layers: 6, Seed: 7}
		g, err := Build(spec)
		if err != nil {
			t.Fatalf("Build(%s): %v", fam, err)
		}
		if want, ok := wantN[fam]; ok && g.N() != want {
			t.Errorf("Build(%s): n = %d, want %d", fam, g.N(), want)
		}
		if g.N() == 0 || g.M() == 0 {
			t.Errorf("Build(%s): empty graph n=%d m=%d", fam, g.N(), g.M())
		}
		if min := spec.MinNodes(); g.N() < min {
			t.Errorf("Build(%s): n = %d below MinNodes %d", fam, g.N(), min)
		}
	}
}

func TestBuildUnknownFamily(t *testing.T) {
	_, err := Build(Spec{Family: "moebius", N: 8})
	if err == nil || !strings.Contains(err.Error(), "unknown family") {
		t.Fatalf("err = %v, want unknown family", err)
	}
}

// TestBuildDeterministic pins that a Spec fully determines the topology:
// same spec, same edges — the property gossipd's request memoization
// relies on.
func TestBuildDeterministic(t *testing.T) {
	a, err := Build(Spec{Family: "er", N: 32, Latency: 1, P: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(Spec{Family: "ER", N: 32, Latency: 1, P: 0.2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if a.N() != b.N() || a.M() != b.M() {
		t.Fatalf("same spec built different graphs: %d/%d vs %d/%d", a.N(), a.M(), b.N(), b.M())
	}
	for u := 0; u < a.N(); u++ {
		na, nb := a.NeighborIDs(u), b.NeighborIDs(u)
		if len(na) != len(nb) {
			t.Fatalf("node %d: degree %d vs %d", u, len(na), len(nb))
		}
	}
}

// TestBuildPassesValuesThrough pins that Build never rewrites caller
// values: an explicit p=0 Erdős–Rényi must fail exactly like calling the
// generator directly (edgeless graphs cannot be connected), not silently
// simulate some default p.
func TestBuildPassesValuesThrough(t *testing.T) {
	if _, err := Build(Spec{Family: "er", N: 8, Latency: 1, P: 0, Seed: 3}); err == nil {
		t.Fatal("Build(er, p=0) succeeded; p must reach the generator verbatim")
	}
}

// TestReadsSeed holds Spec.ReadsSeed to what Build does: over every
// family, specs that differ only in Seed build identical CSRs exactly
// when ReadsSeed says the family ignores the seed. A family that starts
// drawing on its rng without joining the list fails here.
func TestReadsSeed(t *testing.T) {
	for _, fam := range Families() {
		base := Spec{Family: fam, N: 12, Latency: 2, P: 0.3, Layers: 6}
		var built []*graph.CSR
		for seed := uint64(1); seed <= 3; seed++ {
			s := base
			s.Seed = seed
			csr, err := BuildCSR(s)
			if err != nil {
				t.Fatalf("BuildCSR(%s, seed %d): %v", fam, seed, err)
			}
			built = append(built, csr)
		}
		for i := 1; i < len(built); i++ {
			if same := sameCSR(built[i-1], built[i]); same == base.ReadsSeed() {
				t.Errorf("%s: seeds %d and %d build identical=%v, but ReadsSeed()=%v", fam, i, i+1, same, base.ReadsSeed())
			}
		}
	}
}

// sameCSR reports whether a and b are the same graph in the same
// adjacency order (what a seeded run on either sees).
func sameCSR(a, b *graph.CSR) bool {
	if a.N() != b.N() || a.HalfEdges() != b.HalfEdges() {
		return false
	}
	for u := 0; u < a.N(); u++ {
		if !slices.Equal(a.NeighborIDs(u), b.NeighborIDs(u)) || !slices.Equal(a.Latencies(u), b.Latencies(u)) {
			return false
		}
	}
	return true
}
