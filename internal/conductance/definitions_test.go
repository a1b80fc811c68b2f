package conductance

import (
	"math"

	"gossip/internal/graph"
)

// Definitions 1 and 3 evaluated on one given cut: the reference the
// cut-family searches (Exact, Estimate) are checked against.

// Cut describes a 2-partition of the node set by membership of side U.
type Cut struct {
	InU []bool
}

// NewCut builds a cut from the node IDs in U.
func NewCut(n int, u []graph.NodeID) Cut {
	in := make([]bool, n)
	for _, id := range u {
		in[id] = true
	}
	return Cut{InU: in}
}

// valid reports whether both sides are non-empty.
func (c Cut) valid(n int) bool {
	count := 0
	for _, b := range c.InU {
		if b {
			count++
		}
	}
	return count > 0 && count < n
}

// WeightLCutConductance returns φℓ(C) = |Eℓ(C)| / min(Vol(U), Vol(V\U))
// (Definition 1) for a specific cut.
func WeightLCutConductance(g *graph.CSR, c Cut, l int) float64 {
	if !c.valid(g.N()) {
		panic("conductance: cut has an empty side")
	}
	cutEdges := 0
	g.ForEachEdge(func(u, v, latency int) {
		if c.InU[u] != c.InU[v] && latency <= l {
			cutEdges++
		}
	})
	volU := g.Volume(c.InU)
	return float64(cutEdges) / float64(min(volU, g.HalfEdges()-volU))
}

// AvgCutConductance returns φavg(C) (Definition 3): the class-weighted
// count of cut edges divided by the smaller volume. Its minimum over all
// cuts is not φavg(G), which Result.PhiAvg sums per class.
func AvgCutConductance(g *graph.CSR, c Cut) float64 {
	if !c.valid(g.N()) {
		panic("conductance: cut has an empty side")
	}
	sum := 0.0
	g.ForEachEdge(func(u, v, latency int) {
		if c.InU[u] != c.InU[v] {
			sum += 1 / math.Pow(2, float64(LatencyClass(latency)))
		}
	})
	volU := g.Volume(c.InU)
	return sum / float64(min(volU, g.HalfEdges()-volU))
}
