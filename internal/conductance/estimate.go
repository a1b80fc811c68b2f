package conductance

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"

	"gossip/internal/graph"
)

// EstimateOptions tunes the candidate-cut search.
type EstimateOptions struct {
	// Seed drives the spectral power iteration start vectors.
	Seed uint64
}

// The candidate family's size. No caller ever set these, so they are
// constants rather than options.
const (
	// powerIterations of the Fiedler-vector approximation.
	powerIterations = 150
	// maxSpectralLatencies caps how many distinct latency thresholds get
	// their own spectral sweep (spread evenly over the distinct latencies).
	maxSpectralLatencies = 8
	// ballSeeds is the number of Dijkstra-ball sweep sources.
	ballSeeds = 4
)

// Compute returns exact values for small graphs and candidate-cut upper
// bounds for larger ones.
func Compute(g *graph.CSR) (Result, error) {
	if g.N() <= MaxExactN {
		return Exact(g)
	}
	return Estimate(g, EstimateOptions{Seed: 1})
}

// Estimate evaluates a polynomial family of candidate cuts — spectral
// sweep cuts on each latency-filtered subgraph G_ℓ, Dijkstra-ball sweeps,
// and singletons — and reports the minimum over that family. The results
// are upper bounds on the true φℓ, and φavg is summed from them as in
// Exact (the family usually contains the bottleneck cut for structured
// graphs). G_ℓ is never built: its walks skip the half-edges of latency
// above ℓ.
func Estimate(g *graph.CSR, opts EstimateOptions) (Result, error) {
	n := g.N()
	if n < 2 {
		return Result{}, fmt.Errorf("conductance: need at least 2 nodes")
	}
	lats := g.DistinctLatencies()
	if len(lats) == 0 {
		return Result{}, fmt.Errorf("conductance: graph has no edges")
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed*2654435761+1))

	est := newEvaluator(g, lats)

	// Disconnected G_ℓ means φℓ = 0 exactly (a component boundary has no
	// latency-<=ℓ edges crossing it).
	for i, l := range lats {
		comp := componentOf(g, l)
		if !isSingleComponent(comp, n) {
			est.minPhiL[i] = 0
			// That same component cut is also a candidate for higher
			// thresholds, and is the witness for φℓ = 0.
			cut := make([]bool, n)
			for u, c := range comp {
				cut[u] = c == comp[0]
			}
			est.argCut[i] = cut
			est.evalCut(cut)
		}
	}

	// Spectral sweeps on a spread of thresholds.
	for _, l := range spreadThresholds(lats, maxSpectralLatencies) {
		est.evalSweep(spectralOrder(g, l, powerIterations, rng))
	}
	// Full-graph spectral sweep (weights ignored) for good measure.
	est.evalSweep(spectralOrder(g, g.MaxLatency(), powerIterations, rng))

	// Dijkstra ball sweeps from random seeds.
	for i := 0; i < ballSeeds; i++ {
		src := rng.IntN(n)
		dist := g.Distances(src)
		order := make([]int, n)
		for u := range order {
			order[u] = u
		}
		sort.Slice(order, func(a, b int) bool { return dist[order[a]] < dist[order[b]] })
		est.evalSweep(order)
	}

	// Singleton cuts.
	single := make([]bool, n)
	for u := 0; u < n; u++ {
		single[u] = true
		est.evalCut(single)
		single[u] = false
	}

	return newResult(g, lats, est.minPhiL, func(i int) []bool { return est.argCut[i] }, false), nil
}

// evaluator accumulates the running minima over candidate cuts.
type evaluator struct {
	g        *graph.CSR
	li       []int // per half-edge: index of its latency in the distinct latencies
	totalVol int
	minPhiL  []float64
	// argCut[i] is a copy of the best cut seen for latency index i.
	argCut [][]bool
}

func newEvaluator(g *graph.CSR, lats []int) *evaluator {
	e := &evaluator{
		g:        g,
		li:       latIndex(g, lats),
		totalVol: g.HalfEdges(),
		minPhiL:  make([]float64, len(lats)),
		argCut:   make([][]bool, len(lats)),
	}
	for i := range e.minPhiL {
		e.minPhiL[i] = math.Inf(1)
	}
	return e
}

// evalCut scores a single cut (O(m)).
func (e *evaluator) evalCut(inU []bool) {
	volU := e.g.Volume(inU)
	if volU == 0 || volU == e.totalVol {
		return
	}
	latCount := make([]int, len(e.minPhiL))
	for u := 0; u < e.g.N(); u++ {
		off := int(e.g.Offset(u))
		for i, v := range e.g.NeighborIDs(u) {
			if int(v) > u && inU[u] != inU[v] {
				latCount[e.li[off+i]]++
			}
		}
	}
	e.apply(latCount, volU, inU)
}

// evalSweep scores all n-1 prefix cuts of an ordering incrementally
// (O(m + n·|lats|) total).
func (e *evaluator) evalSweep(order []int) {
	n := e.g.N()
	inU := make([]bool, n)
	latCount := make([]int, len(e.minPhiL))
	volU := 0
	for k := 0; k < n-1; k++ {
		v := order[k]
		inU[v] = true
		volU += e.g.Degree(v)
		off := int(e.g.Offset(v))
		for i, u := range e.g.NeighborIDs(v) {
			if inU[u] {
				latCount[e.li[off+i]]-- // edge no longer crosses the cut
			} else {
				latCount[e.li[off+i]]++
			}
		}
		e.apply(latCount, volU, inU)
	}
}

func (e *evaluator) apply(latCount []int, volU int, inU []bool) {
	s := float64(min(volU, e.totalVol-volU))
	if s <= 0 {
		return
	}
	var snapshot []bool
	prefix := 0
	for i := range e.minPhiL {
		prefix += latCount[i]
		if phi := float64(prefix) / s; phi < e.minPhiL[i] {
			e.minPhiL[i] = phi
			if snapshot == nil {
				snapshot = append([]bool(nil), inU...)
			}
			e.argCut[i] = snapshot
		}
	}
}

// spectralOrder approximates the Fiedler ordering of G_ℓ: the coordinates
// of the second eigenvector of its lazy random walk matrix, obtained by
// power iteration with deflation of the stationary component.
func spectralOrder(g *graph.CSR, l, iters int, rng *rand.Rand) []int {
	n := g.N()
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deg := make([]float64, n)
	totalDeg := 0.0
	for u := 0; u < n; u++ {
		for _, lat := range g.Latencies(u) {
			if int(lat) <= l {
				deg[u]++
			}
		}
		totalDeg += deg[u]
	}
	next := make([]float64, n)
	for it := 0; it < iters; it++ {
		// Deflate the stationary (degree-weighted constant) direction.
		if totalDeg > 0 {
			dot := 0.0
			for u := 0; u < n; u++ {
				dot += x[u] * deg[u]
			}
			shift := dot / totalDeg
			for u := 0; u < n; u++ {
				x[u] -= shift
			}
		}
		// One lazy walk step: x' = x/2 + (D^-1 A x)/2.
		for u := 0; u < n; u++ {
			sum := 0.0
			lats := g.Latencies(u)
			for i, v := range g.NeighborIDs(u) {
				if int(lats[i]) <= l {
					sum += x[v]
				}
			}
			if deg[u] > 0 {
				next[u] = x[u]/2 + sum/(2*deg[u])
			} else {
				next[u] = x[u]
			}
		}
		// Normalize to keep magnitudes sane.
		norm := 0.0
		for _, v := range next {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			break
		}
		for u := range next {
			x[u] = next[u] / norm
		}
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return x[order[a]] < x[order[b]] })
	return order
}

// spreadThresholds picks up to k thresholds spread over the distinct
// latencies, always including the smallest and largest.
func spreadThresholds(lats []int, k int) []int {
	if len(lats) <= k {
		return lats
	}
	out := make([]int, 0, k)
	for i := 0; i < k; i++ {
		idx := i * (len(lats) - 1) / (k - 1)
		out = append(out, lats[idx])
	}
	// Dedup (possible with integer division).
	seen := make(map[int]bool)
	uniq := out[:0]
	for _, l := range out {
		if !seen[l] {
			seen[l] = true
			uniq = append(uniq, l)
		}
	}
	return uniq
}

// componentOf labels each node of G_ℓ with a component representative.
func componentOf(g *graph.CSR, l int) []int {
	n := g.N()
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	for start := 0; start < n; start++ {
		if comp[start] >= 0 {
			continue
		}
		stack := []int{start}
		comp[start] = start
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			lats := g.Latencies(u)
			for i, v := range g.NeighborIDs(u) {
				if int(lats[i]) <= l && comp[v] < 0 {
					comp[v] = start
					stack = append(stack, int(v))
				}
			}
		}
	}
	return comp
}

func isSingleComponent(comp []int, n int) bool {
	for _, c := range comp {
		if c != comp[0] {
			return false
		}
	}
	return n > 0
}
