// Package conductance implements the paper's weighted-conductance
// machinery: the weight-ℓ conductance φℓ (Definition 1), the critical
// weighted conductance φ* and critical latency ℓ* (Definition 2), the
// latency classes and average weighted conductance φavg (Definitions 3-4),
// and the Theorem 5 relation between them.
//
// Exact values enumerate all cuts and are exponential in n; Estimate
// evaluates a polynomial family of candidate cuts (spectral sweeps, ball
// sweeps, singletons) and returns upper bounds that are exact on the
// structured families used in the experiments.
package conductance

import (
	"fmt"
	"math"
	"sort"

	"gossip/internal/graph"
)

// Result bundles every conductance quantity for one graph.
type Result struct {
	// PhiStar is the critical weighted conductance φ* and EllStar the
	// critical latency ℓ* (Definition 2): φℓ/ℓ is maximal at ℓ = ℓ*.
	PhiStar float64
	EllStar int
	// PhiAvg is the average weighted conductance (Definition 4), summed
	// per class: φavg = Σᵢ φ_{2^i}(G)/2^i over the L non-empty latency
	// classes i, where φ_{2^i} is the PhiL entry at the largest distinct
	// latency ≤ 2^i (φℓ changes only at edge latencies). Theorem 5,
	// φ*/2ℓ* ≤ φavg ≤ L·φ*/ℓ*, follows in three lines:
	//   - each term is φℓ/2^i for some ℓ ≤ 2^i, so at most φℓ/ℓ ≤ φ*/ℓ*;
	//   - there are L terms, which gives the upper half;
	//   - the term of ℓ*'s own class has 2^i ≤ 2ℓ* and φ_{2^i} ≥ φ_{ℓ*}
	//     (φℓ grows with ℓ), so it alone is ≥ φ*/2ℓ*.
	// The one cut minimizing the class-weighted crossing count over its
	// smaller volume is a different quantity, and it breaks the upper
	// half (TestPhiAvgIsNotOneCut).
	PhiAvg float64
	// PhiL maps each distinct edge latency ℓ to the weight-ℓ
	// conductance φℓ(G).
	PhiL map[int]float64
	// NonEmptyClasses is L: the number of non-empty latency classes.
	NonEmptyClasses int
	// MaxLatency is ℓmax.
	MaxLatency int
	// Exact records whether the values came from full cut enumeration.
	Exact bool
	// CriticalCut is one side (by membership) of a cut achieving
	// φ_{ℓ*}(G) — the bottleneck the critical conductance describes.
	CriticalCut []bool
}

// Classes returns ceil(log2(ℓmax)), the number of possible latency classes.
func (r Result) Classes() int { return numClasses(r.MaxLatency) }

// CheckTheorem5 returns an error unless φ*/2ℓ* <= φavg <= L·φ*/ℓ*
// (Theorem 5) holds up to floating-point slack.
func (r Result) CheckTheorem5() error {
	const eps = 1e-9
	lower := r.PhiStar / (2 * float64(r.EllStar))
	upper := float64(r.NonEmptyClasses) * r.PhiStar / float64(r.EllStar)
	if r.PhiAvg < lower-eps {
		return fmt.Errorf("conductance: φavg=%.6g < φ*/2ℓ*=%.6g", r.PhiAvg, lower)
	}
	if r.PhiAvg > upper+eps {
		return fmt.Errorf("conductance: φavg=%.6g > Lφ*/ℓ*=%.6g", r.PhiAvg, upper)
	}
	return nil
}

// LatencyClass returns the 1-based latency class of an edge latency
// (Definition 3): class 1 holds latencies <= 2, class i holds latencies in
// (2^(i-1), 2^i].
func LatencyClass(latency int) int {
	if latency < 1 {
		panic(fmt.Sprintf("conductance: latency %d < 1", latency))
	}
	if latency <= 2 {
		return 1
	}
	c := 1
	bound := 2
	for bound < latency {
		bound *= 2
		c++
	}
	return c
}

// numClasses returns ceil(log2(ℓmax)) with a minimum of 1, matching the
// paper's dlog(ℓmax)e count of possible classes.
func numClasses(maxLatency int) int {
	if maxLatency <= 2 {
		return 1
	}
	return LatencyClass(maxLatency)
}

// latIndex returns, per half-edge of g, the index of its latency in the
// sorted distinct latencies lats.
func latIndex(g *graph.CSR, lats []int) []int {
	idx := make([]int, g.HalfEdges())
	for u := 0; u < g.N(); u++ {
		off := int(g.Offset(u))
		for i, l := range g.Latencies(u) {
			idx[off+i] = sort.SearchInts(lats, int(l))
		}
	}
	return idx
}

// newResult assembles the Result of one cut family: phi[i] is the least
// φ at latency lats[i] over the family, and cut(i) a side attaining it.
//
// φ* and ℓ* maximize φℓ/ℓ over the distinct latencies only, which is
// lossless: φℓ is a step function that changes only at edge latency
// values, and between steps φℓ/ℓ decreases in ℓ. The last distinct
// latency of each non-empty class is the largest one ≤ 2^i, so φavg sums
// phi there (see Result.PhiAvg).
func newResult(g *graph.CSR, lats []int, phi []float64, cut func(i int) []bool, exact bool) Result {
	res := Result{PhiL: make(map[int]float64, len(lats)), MaxLatency: g.MaxLatency(), Exact: exact}
	best, bestRatio := 0, math.Inf(-1)
	for i, l := range lats {
		res.PhiL[l] = phi[i]
		if ratio := phi[i] / float64(l); ratio > bestRatio {
			best, bestRatio = i, ratio
		}
		if class := LatencyClass(l); i+1 == len(lats) || LatencyClass(lats[i+1]) != class {
			res.PhiAvg += phi[i] / math.Pow(2, float64(class))
			res.NonEmptyClasses++
		}
	}
	res.PhiStar, res.EllStar, res.CriticalCut = phi[best], lats[best], cut(best)
	return res
}
