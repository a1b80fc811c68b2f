package conductance

import (
	"maps"
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// fuzzGraph decodes a graph the way FuzzCSRBuilder draws one: the first
// byte picks n (here 2…16, so the 16-node hard case fits), then each
// (u, v, latency) triple adds an edge with latency 1…64. Self-loops and
// repeated edges are skipped. ok is false for a graph without edges.
func fuzzGraph(data []byte) (c *graph.CSR, ok bool) {
	if len(data) == 0 {
		return nil, false
	}
	n := int(data[0])%15 + 2
	g := graph.New(n)
	for i := 1; i+2 < len(data); i += 3 {
		u, v, lat := int(data[i])%n, int(data[i+1])%n, int(data[i+2])%64+1
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, lat)
		}
	}
	return g.CSR(), g.M() > 0
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

// edgeSet maps each edge {u < v} of c to its latency.
func edgeSet(c *graph.CSR) map[[2]int32]int32 {
	out := map[[2]int32]int32{}
	for u := 0; u < c.N(); u++ {
		for i, v := range c.NeighborIDs(u) {
			out[[2]int32{min(int32(u), v), max(int32(u), v)}] = c.Latencies(u)[i]
		}
	}
	return out
}

// FuzzTheorem5 checks both halves of Theorem 5 on conductance.Exact:
// φ*/(2ℓ*) ≤ φavg ≤ L·φ*/ℓ*, with every quantity finite, on every graph
// the bytes draw. The corpus starts from the two graphs on which the
// one-cut reading of φavg broke the upper half (TestPhiAvgIsNotOneCut):
// TestQuickTheorem5's seed 0xd4ba3c732fb3931a and the four K₄.
func FuzzTheorem5(f *testing.F) {
	const seed = 0xd4ba3c732fb3931a
	rng := graphgen.NewRand(seed)
	er, err := graphgen.ErdosRenyi(6+int(uint64(seed)%7), 0.5, 1, rng)
	if err != nil {
		f.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 40, rng)
	for _, c := range []*graph.CSR{er.CSR(), fourCliques()} {
		data := encodeGraph(c)
		if d, _ := fuzzGraph(data); !maps.Equal(edgeSet(d), edgeSet(c)) {
			f.Fatalf("seed graph of %d nodes, %d edges does not decode to itself", c.N(), c.M())
		}
		f.Add(data)
	}
	f.Add([]byte{2, 0, 1, 0, 1, 2, 63, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := fuzzGraph(data)
		if !ok {
			return
		}
		res, err := Exact(c)
		if err != nil {
			t.Fatal(err)
		}
		for name, x := range map[string]float64{"φavg": res.PhiAvg, "φ*": res.PhiStar} {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				t.Fatalf("%s = %v on %v", name, x, data)
			}
		}
		if err := res.CheckTheorem5(); err != nil {
			t.Fatalf("%v (ℓ* = %d, L = %d) on %v", err, res.EllStar, res.NonEmptyClasses, data)
		}
	})
}
