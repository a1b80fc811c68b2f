package graph_test

import (
	"sort"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// familyGraphs builds one representative random graph from every
// graphgen family (the legacy adjacency-map generators).
func familyGraphs(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	rng := graphgen.NewRand(99)
	out := map[string]*graph.Graph{
		"clique":   graphgen.Clique(17, 3),
		"star":     graphgen.Star(23, 2),
		"path":     graphgen.Path(19, 4),
		"cycle":    graphgen.Cycle(21, 1),
		"grid":     graphgen.Grid(5, 7, 2),
		"tree":     graphgen.BinaryTree(25, 3),
		"dumbbell": graphgen.Dumbbell(9, 40),
	}
	er, err := graphgen.ErdosRenyi(24, 0.3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 9, rng)
	out["er"] = er
	reg, err := graphgen.RandomRegular(20, 4, 2, rng)
	if err != nil {
		t.Fatal(err)
	}
	out["regular"] = reg
	ring, err := graphgen.NewRingNetwork(4, 6, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	out["ring-network"] = ring.Graph
	gadget, err := graphgen.NewTheorem10Network(8, 1, 32, 0.4, rng)
	if err != nil {
		t.Fatal(err)
	}
	out["theorem10"] = gadget.Graph
	return out
}

type nbrPair struct{ id, lat int }

func sortedNeighbors(pairs []nbrPair) []nbrPair {
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].id != pairs[j].id {
			return pairs[i].id < pairs[j].id
		}
		return pairs[i].lat < pairs[j].lat
	})
	return pairs
}

// TestCSRMatchesLegacyAdjacency is the representation-equivalence
// property: on a random graph from every graphgen family, the CSR
// neighbor sets (with latencies) must equal the legacy adjacency lists —
// and the conversion must preserve adjacency ORDER, which is what keeps
// seeded protocol runs identical across representations.
func TestCSRMatchesLegacyAdjacency(t *testing.T) {
	for name, g := range familyGraphs(t) {
		t.Run(name, func(t *testing.T) {
			c := g.CSR()
			if err := c.Validate(); err != nil {
				t.Fatalf("CSR invalid: %v", err)
			}
			if c.N() != g.N() || c.M() != g.M() {
				t.Fatalf("size mismatch: csr %d/%d vs graph %d/%d", c.N(), c.M(), g.N(), g.M())
			}
			maxDeg, maxLat := 0, 0
			for u := 0; u < g.N(); u++ {
				maxDeg = max(maxDeg, len(g.NeighborIDs(u)))
			}
			for _, e := range g.Edges() {
				maxLat = max(maxLat, e.Latency)
			}
			if c.MaxDegree() != maxDeg || c.MaxLatency() != maxLat {
				t.Fatalf("Δ/ℓmax mismatch: csr %d/%d vs graph %d/%d",
					c.MaxDegree(), c.MaxLatency(), maxDeg, maxLat)
			}
			for u := 0; u < g.N(); u++ {
				legacy := g.NeighborIDs(u)
				ids := c.NeighborIDs(u)
				lats := c.Latencies(u)
				if len(ids) != len(legacy) {
					t.Fatalf("node %d: degree %d vs %d", u, len(ids), len(legacy))
				}
				for i := range legacy {
					// Order-preserving: position i must match exactly.
					lat, _ := g.Latency(u, legacy[i])
					if int(ids[i]) != legacy[i] || int(lats[i]) != lat {
						t.Fatalf("node %d slot %d: csr (%d,%d) vs legacy (%d,%d)",
							u, i, ids[i], lats[i], legacy[i], lat)
					}
					// Mate involution: the peer's slot points back here.
					pi := c.PeerIndex(u, i)
					v := int(ids[i])
					if int(c.NeighborIDs(v)[pi]) != u {
						t.Fatalf("node %d slot %d: PeerIndex %d at %d does not point back", u, i, pi, v)
					}
				}
			}
		})
	}
}

// TestCSRBuilderMatchesGraph: streaming the same edge list through the
// builder and through the legacy graph yields the same structure.
func TestCSRBuilderMatchesGraph(t *testing.T) {
	rng := graphgen.NewRand(7)
	g, err := graphgen.ErdosRenyi(30, 0.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 12, rng)
	b := graph.NewCSRBuilder(g.N())
	for _, e := range g.Edges() {
		b.MustAddEdge(e.U, e.V, e.Latency)
	}
	c, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	want := g.CSR()
	if c.M() != want.M() || c.N() != want.N() {
		t.Fatalf("builder CSR %v vs conversion %v", c, want)
	}
	for u := 0; u < g.N(); u++ {
		a := make([]nbrPair, 0)
		for i, id := range c.NeighborIDs(u) {
			a = append(a, nbrPair{int(id), int(c.Latencies(u)[i])})
		}
		w := make([]nbrPair, 0)
		for i, id := range want.NeighborIDs(u) {
			w = append(w, nbrPair{int(id), int(want.Latencies(u)[i])})
		}
		sortedNeighbors(a)
		sortedNeighbors(w)
		for i := range a {
			if a[i] != w[i] {
				t.Fatalf("node %d: builder neighbor sets differ from conversion", u)
			}
		}
	}
}

// TestCSRBuilderRejects pins the builder's validation surface.
func TestCSRBuilderRejects(t *testing.T) {
	b := graph.NewCSRBuilder(4)
	if err := b.AddEdge(0, 0, 1); err == nil {
		t.Fatal("self-loop accepted")
	}
	if err := b.AddEdge(0, 9, 1); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
	if err := b.AddEdge(0, 1, 0); err == nil {
		t.Fatal("non-positive latency accepted")
	}
	b.MustAddEdge(0, 1, 1)
	b.MustAddEdge(1, 0, 2) // duplicate in reverse orientation
	if _, err := b.Finalize(); err == nil {
		t.Fatal("duplicate edge accepted at Finalize")
	}
}

// FuzzCSRBuilder decodes the fuzz input as an edge stream and checks
// that every successfully finalized CSR validates and agrees with the
// legacy graph built from the same stream (or that both paths reject).
func FuzzCSRBuilder(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 1, 2, 1, 2, 3, 1, 3, 0, 1})
	f.Add([]byte{3, 0, 1, 5, 1, 2, 200})
	f.Add([]byte{2, 0, 1, 1, 0, 1, 1}) // duplicate
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%32 + 2
		b := graph.NewCSRBuilder(n)
		g := graph.New(n)
		legacyErr := false
		for i := 1; i+2 < len(data); i += 3 {
			u, v, lat := int(data[i])%n, int(data[i+1])%n, int(data[i+2])+1
			errB := b.AddEdge(u, v, lat)
			errG := g.AddEdge(u, v, lat)
			if (errB == nil) != (errG == nil) {
				// The builder defers duplicate detection to Finalize; all
				// other validations must agree immediately.
				if errG != nil && g.HasEdge(u, v) && errB == nil {
					legacyErr = true
					continue
				}
				t.Fatalf("add (%d,%d,%d): builder err %v, graph err %v", u, v, lat, errB, errG)
			}
		}
		c, err := b.Finalize()
		if legacyErr {
			if err == nil {
				t.Fatal("builder accepted a duplicate the legacy graph rejected")
			}
			return
		}
		if err != nil {
			t.Fatalf("finalize failed on a clean stream: %v", err)
		}
		if c.M() != g.M() {
			t.Fatalf("edge count %d vs legacy %d", c.M(), g.M())
		}
		for u := 0; u < n; u++ {
			if c.Degree(u) != len(g.NeighborIDs(u)) {
				t.Fatalf("node %d: degree %d vs legacy %d", u, c.Degree(u), len(g.NeighborIDs(u)))
			}
			for i, id := range c.NeighborIDs(u) {
				lat, ok := g.Latency(u, int(id))
				if !ok || lat != int(c.Latencies(u)[i]) {
					t.Fatalf("node %d: CSR edge (%d,%d,%d) missing from legacy graph", u, u, id, c.Latencies(u)[i])
				}
				if int(c.NeighborIDs(int(id))[c.PeerIndex(u, i)]) != u {
					t.Fatalf("mate involution broken at (%d,%d)", u, id)
				}
			}
		}
	})
}
