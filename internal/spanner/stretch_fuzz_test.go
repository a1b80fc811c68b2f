package spanner

import (
	"maps"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// fuzzGraph decodes a graph the way FuzzCSRBuilder draws one: the first
// byte picks n (here 2…16), then each (u, v, latency) triple adds an
// edge with latency 1…64. Self-loops and repeated edges are skipped. ok
// is false for a graph without edges.
func fuzzGraph(data []byte) (g *graph.Graph, ok bool) {
	if len(data) == 0 {
		return nil, false
	}
	n := int(data[0])%15 + 2
	g = graph.New(n)
	for i := 1; i+2 < len(data); i += 3 {
		u, v, lat := int(data[i])%n, int(data[i+1])%n, int(data[i+2])%64+1
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, lat)
		}
	}
	return g, g.M() > 0
}

// encodeGraph is fuzzGraph's inverse for a graph of at most 16 nodes and
// latencies 1…64: a seed corpus entry.
func encodeGraph(c *graph.CSR) []byte {
	data := []byte{byte(c.N() - 2)}
	for u := 0; u < c.N(); u++ {
		for i, v := range c.NeighborIDs(u) {
			if int(v) > u {
				data = append(data, byte(u), byte(v), byte(c.Latencies(u)[i]-1))
			}
		}
	}
	return data
}

// edges maps each edge {u < v} of c to its latency.
func edges(c *graph.CSR) map[[2]int32]int32 {
	out := map[[2]int32]int32{}
	for u := 0; u < c.N(); u++ {
		for i, v := range c.NeighborIDs(u) {
			out[[2]int32{min(int32(u), v), max(int32(u), v)}] = c.Latencies(u)[i]
		}
	}
	return out
}

// FuzzSpannerStretch checks Theorem 20's stretch on BuildCSR for any seed
// and any latency cap m (the whole graph when m is not positive): the
// spanner keeps only edges of G_m, the subgraph of edges of latency at
// most m, and joins every pair of nodes G_m joins by a path at most 2K−1
// times their distance in G_m. The corpus starts from the families of
// TestStretchBoundHolds (clique, grid, cycle, star, a weighted
// Erdős–Rényi graph) at 16 nodes, the most a drawn graph has.
func FuzzSpannerStretch(f *testing.F) {
	rng := graphgen.NewRand(5)
	er, err := graphgen.ErdosRenyi(16, 0.25, 1, rng)
	if err != nil {
		f.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 20, rng)
	for _, g := range []*graph.Graph{graphgen.Clique(16, 2), graphgen.Grid(4, 4, 1), graphgen.Cycle(16, 3), graphgen.Star(16, 2), er} {
		data := encodeGraph(g.CSR())
		if d, _ := fuzzGraph(data); !maps.Equal(edges(d.CSR()), edges(g.CSR())) {
			f.Fatalf("seed graph of %d nodes, %d edges does not decode to itself", g.N(), g.M())
		}
		f.Add(data, uint64(7), 0)
		f.Add(data, uint64(7), 2)
	}
	f.Fuzz(func(t *testing.T, data []byte, seed uint64, maxLatency int) {
		g, ok := fuzzGraph(data)
		if !ok {
			return
		}
		c := g.CSR()
		sp, err := BuildCSR(c, Options{Seed: seed, MaxLatency: maxLatency})
		if err != nil {
			t.Fatal(err)
		}
		// G_m, the subgraph the spanner is built on.
		sub := graph.New(c.N())
		for e, lat := range edges(c) {
			if maxLatency <= 0 || int(lat) <= maxLatency {
				sub.MustAddEdge(int(e[0]), int(e[1]), int(lat))
			}
		}
		gm, s := sub.CSR(), sp.csr()
		inGm := edges(gm)
		for e, lat := range edges(s) {
			if inGm[e] != lat {
				t.Fatalf("spanner edge %v of latency %d is not an edge of G_%d", e, lat, maxLatency)
			}
		}
		bound := int64(2*sp.K - 1)
		for u := 0; u < c.N(); u++ {
			dg, ds := gm.Distances(u), s.Distances(u)
			for v := range dg {
				if dg[v] < graph.Infinity && ds[v] > bound*dg[v] {
					t.Fatalf("K=%d: spanner distance %d from %d to %d exceeds (2K−1)·%d", sp.K, ds[v], u, v, dg[v])
				}
			}
		}
	})
}
