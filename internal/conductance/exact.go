package conductance

import (
	"fmt"
	"math"

	"gossip/internal/graph"
)

// MaxExactN bounds full cut enumeration: 2^(MaxExactN-1) cuts.
const MaxExactN = 22

// Exact computes every conductance quantity by enumerating all 2^(n-1)-1
// cuts. It errors for graphs larger than MaxExactN nodes.
func Exact(g *graph.CSR) (Result, error) {
	n := g.N()
	if n > MaxExactN {
		return Result{}, fmt.Errorf("conductance: exact enumeration limited to %d nodes, got %d", MaxExactN, n)
	}
	if n < 2 {
		return Result{}, fmt.Errorf("conductance: need at least 2 nodes")
	}
	lats := g.DistinctLatencies()
	if len(lats) == 0 {
		return Result{}, fmt.Errorf("conductance: graph has no edges")
	}
	type edge struct{ u, v, li int }
	li := latIndex(g, lats)
	edges := make([]edge, 0, g.M())
	for u := 0; u < n; u++ {
		off := int(g.Offset(u))
		for i, v := range g.NeighborIDs(u) {
			if int(v) > u {
				edges = append(edges, edge{u, int(v), li[off+i]})
			}
		}
	}
	totalVol := g.HalfEdges()

	minPhiL := make([]float64, len(lats))
	argMask := make([]uint64, len(lats))
	for i := range minPhiL {
		minPhiL[i] = math.Inf(1)
	}

	// Enumerate subsets of {0..n-2}; node n-1 stays outside U so each
	// unordered cut is visited exactly once.
	numMasks := uint64(1) << uint(n-1)
	latCount := make([]int, len(lats))
	for mask := uint64(1); mask < numMasks; mask++ {
		for i := range latCount {
			latCount[i] = 0
		}
		volU := 0
		for u := 0; u < n-1; u++ {
			if mask&(1<<uint(u)) != 0 {
				volU += g.Degree(u)
			}
		}
		for _, e := range edges {
			if (mask>>uint(e.u))&1 != (mask>>uint(e.v))&1 {
				latCount[e.li]++
			}
		}
		s := float64(min(volU, totalVol-volU))
		if s == 0 {
			// A side with isolated nodes only; conductance is defined
			// via volumes, and a zero-volume side yields an undefined
			// ratio — skip, matching the convention that such cuts are
			// not bottlenecks (they carry no edges at all).
			continue
		}
		prefix := 0
		for i := range lats {
			prefix += latCount[i]
			phi := float64(prefix) / s
			if phi < minPhiL[i] {
				minPhiL[i] = phi
				argMask[i] = mask
			}
		}
	}

	return newResult(g, lats, minPhiL, func(i int) []bool {
		cut := make([]bool, n)
		for u := 0; u < n-1; u++ {
			cut[u] = argMask[i]&(1<<uint(u)) != 0
		}
		return cut
	}, true), nil
}
