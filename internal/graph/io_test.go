package graph

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	g := New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 10)
	g.MustAddEdge(3, 4, 7)
	g.MustAddEdge(0, 4, 3)
	var buf bytes.Buffer
	if err := g.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.N() != g.N() || back.M() != g.M() {
		t.Fatalf("round trip lost structure: n=%d m=%d", back.N(), back.M())
	}
	for _, e := range g.Edges() {
		l, ok := back.Latency(e.U, e.V)
		if !ok || l != e.Latency {
			t.Fatalf("edge (%d,%d) lost or changed: %d,%v", e.U, e.V, l, ok)
		}
	}
}

func TestSaveDeterministic(t *testing.T) {
	g := New(4)
	g.MustAddEdge(2, 3, 5)
	g.MustAddEdge(0, 1, 1)
	var a, b bytes.Buffer
	if err := g.Save(&a); err != nil {
		t.Fatal(err)
	}
	if err := g.Save(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("Save output nondeterministic")
	}
	if !strings.HasPrefix(a.String(), "n 4\ne 0 1 1\n") {
		t.Fatalf("unexpected format:\n%s", a.String())
	}
}

func TestLoadCommentsAndBlank(t *testing.T) {
	in := "# header\n\nn 3\n# edges\ne 0 1 2\n e 1 2 4 \n"
	g, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.M() != 2 {
		t.Fatalf("m = %d", g.M())
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"edge before n":  "e 0 1 2\n",
		"duplicate n":    "n 2\nn 3\n",
		"bad n":          "n zero\n",
		"negative n":     "n -4\n",
		"short e":        "n 2\ne 0 1\n",
		"non-integer":    "n 2\ne 0 one 2\n",
		"unknown":        "x 1\n",
		"bad edge":       "n 2\ne 0 0 1\n",
		"duplicate edge": "n 2\ne 0 1 1\ne 1 0 2\n",
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Load(strings.NewReader(in)); err == nil {
				t.Fatalf("Load(%q) succeeded", in)
			}
		})
	}
}

// Property: random graphs survive a save/load round trip bit-exactly.
func TestQuickSaveLoad(t *testing.T) {
	f := func(seed int64) bool {
		n := int(seed%10) + 2
		if n < 2 {
			n = 2
		}
		g := New(n)
		// Deterministic pseudo-random edges from the seed.
		s := uint64(seed)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				s = s*6364136223846793005 + 1442695040888963407
				if s%3 == 0 {
					g.MustAddEdge(u, v, int(s%50)+1)
				}
			}
		}
		var buf bytes.Buffer
		if err := g.Save(&buf); err != nil {
			return false
		}
		back, err := Load(&buf)
		if err != nil {
			return false
		}
		if back.N() != g.N() || back.M() != g.M() {
			return false
		}
		for _, e := range g.Edges() {
			if l, ok := back.Latency(e.U, e.V); !ok || l != e.Latency {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveEdge(t *testing.T) {
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(0, 3, 4)
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if g.M() != 3 || g.HasEdge(1, 2) {
		t.Fatalf("edge not removed: m=%d", g.M())
	}
	// Index remapping must keep the remaining edges intact.
	for _, e := range []struct{ u, v, lat int }{{0, 1, 1}, {2, 3, 3}, {0, 3, 4}} {
		if l, ok := g.Latency(e.u, e.v); !ok || l != e.lat {
			t.Fatalf("edge (%d,%d) broken after removal: %d,%v", e.u, e.v, l, ok)
		}
	}
	if c := g.CSR(); c.Degree(1) != 1 || c.Degree(2) != 1 {
		t.Fatalf("degrees wrong after removal: %d, %d", c.Degree(1), c.Degree(2))
	}
	if err := g.RemoveEdge(1, 2); err == nil {
		t.Fatal("removing a missing edge should error")
	}
	// Remove the swapped-in last edge to exercise index remap again.
	if err := g.RemoveEdge(0, 3); err != nil {
		t.Fatal(err)
	}
	if l, _ := g.Latency(2, 3); l != 3 {
		t.Fatal("remap corrupted an edge")
	}
}

func TestRemoveEdgeThenAdd(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	if err := g.RemoveEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(0, 1, 9); err != nil {
		t.Fatal(err)
	}
	if l, _ := g.Latency(0, 1); l != 9 {
		t.Fatal("re-added edge has wrong latency")
	}
	if g.M() != 2 {
		t.Fatalf("m = %d", g.M())
	}
}
