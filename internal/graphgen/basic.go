// Package graphgen builds the graph families used throughout the
// reproduction: standard topologies (cliques, stars, grids, expanders,
// random graphs) and the paper's lower-bound constructions (the guessing
// game gadgets of Figure 1, the bipartite network of Theorem 10, and the
// ring of gadgets of Figure 2 / Theorem 13).
//
// All randomized generators take an explicit *rand.Rand so experiments are
// reproducible from a seed.
package graphgen

import (
	"fmt"
	"math/rand/v2"

	"gossip/internal/graph"
)

// Clique returns the complete graph K_n with every edge at the given
// latency.
func Clique(n, latency int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.MustAddEdge(u, v, latency)
		}
	}
	return g
}

// Star returns a star on n nodes with node 0 as the center.
func Star(n, latency int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(0, v, latency)
	}
	return g
}

// Path returns the path 0-1-...-(n-1) with uniform latency.
func Path(n, latency int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge(v-1, v, latency)
	}
	return g
}

// Cycle returns the n-cycle with uniform latency.
func Cycle(n, latency int) *graph.Graph {
	g := Path(n, latency)
	if n > 2 {
		g.MustAddEdge(n-1, 0, latency)
	}
	return g
}

// Grid returns the rows x cols grid graph with uniform latency.
func Grid(rows, cols, latency int) *graph.Graph {
	g := graph.New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.MustAddEdge(id(r, c), id(r, c+1), latency)
			}
			if r+1 < rows {
				g.MustAddEdge(id(r, c), id(r+1, c), latency)
			}
		}
	}
	return g
}

// BinaryTree returns a complete binary tree on n nodes (heap numbering).
func BinaryTree(n, latency int) *graph.Graph {
	g := graph.New(n)
	for v := 1; v < n; v++ {
		g.MustAddEdge((v-1)/2, v, latency)
	}
	return g
}

// ErdosRenyi returns a connected G(n,p) sample with uniform latency.
// It resamples until connected (p must be above the connectivity
// threshold for this to terminate quickly) and gives up after 1000 tries.
func ErdosRenyi(n int, p float64, latency int, rng *rand.Rand) (*graph.Graph, error) {
	for try := 0; try < 1000; try++ {
		g := graph.New(n)
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				if rng.Float64() < p {
					g.MustAddEdge(u, v, latency)
				}
			}
		}
		if g.CSR().Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graphgen: G(%d,%.4f) not connected after 1000 samples", n, p)
}

// RandomRegular returns a connected random d-regular graph on n nodes via
// the configuration (pairing) model with edge-swap repair: colliding stub
// pairs (self-loops, duplicates) are resolved by double-edge swaps against
// already-placed edges, which keeps the uniform-ish distribution while
// avoiding the exponentially unlikely clean pairing at larger d. n*d must
// be even and d < n. Random regular graphs with d >= 3 are expanders with
// high probability, which is how the paper's Theorem 9 network uses them.
func RandomRegular(n, d int, latency int, rng *rand.Rand) (*graph.Graph, error) {
	if n*d%2 != 0 {
		return nil, fmt.Errorf("graphgen: n*d = %d*%d is odd", n, d)
	}
	if d >= n {
		return nil, fmt.Errorf("graphgen: degree %d >= n %d", d, n)
	}
	if d == 0 && n > 1 {
		return nil, fmt.Errorf("graphgen: 0-regular graph on %d > 1 nodes is disconnected", n)
	}
	for try := 0; try < 200; try++ {
		g, ok := pairWithRepair(n, d, latency, rng)
		if ok && g.CSR().Connected() {
			return g, nil
		}
	}
	return nil, fmt.Errorf("graphgen: no simple connected %d-regular graph on %d nodes after 200 attempts", d, n)
}

// pairWithRepair runs one configuration-model draw, fixing collisions via
// double-edge swaps.
func pairWithRepair(n, d, latency int, rng *rand.Rand) (*graph.Graph, bool) {
	stubs := make([]int, 0, n*d)
	for u := 0; u < n; u++ {
		for i := 0; i < d; i++ {
			stubs = append(stubs, u)
		}
	}
	rng.Shuffle(len(stubs), func(i, j int) { stubs[i], stubs[j] = stubs[j], stubs[i] })
	g := graph.New(n)
	var leftoverStubs []int
	for i := 0; i < len(stubs); i += 2 {
		u, v := stubs[i], stubs[i+1]
		if u == v || g.HasEdge(u, v) {
			leftoverStubs = append(leftoverStubs, u, v)
			continue
		}
		g.MustAddEdge(u, v, latency)
	}
	// Repair: place each leftover pair either directly or by swapping
	// with a random existing edge (x,y): remove (x,y), add (u,x),(v,y).
	for attempts := 0; len(leftoverStubs) > 0; attempts++ {
		if attempts > 200*n*d {
			return nil, false
		}
		u := leftoverStubs[len(leftoverStubs)-2]
		v := leftoverStubs[len(leftoverStubs)-1]
		if u != v && !g.HasEdge(u, v) {
			g.MustAddEdge(u, v, latency)
			leftoverStubs = leftoverStubs[:len(leftoverStubs)-2]
			continue
		}
		edges := g.Edges()
		if len(edges) == 0 {
			return nil, false
		}
		e := edges[rng.IntN(len(edges))]
		x, y := e.U, e.V
		if rng.IntN(2) == 0 {
			x, y = y, x
		}
		if u == x || v == y || g.HasEdge(u, x) || g.HasEdge(v, y) {
			continue
		}
		if err := g.RemoveEdge(e.U, e.V); err != nil {
			return nil, false
		}
		g.MustAddEdge(u, x, latency)
		g.MustAddEdge(v, y, latency)
		leftoverStubs = leftoverStubs[:len(leftoverStubs)-2]
	}
	return g, true
}

// Dumbbell returns two cliques of size half joined by a single bridge edge
// with the given bridge latency; intra-clique edges have latency 1.
// This is the canonical "one slow cut edge" topology: its critical
// conductance is tiny and its ℓ* equals bridgeLatency.
func Dumbbell(half int, bridgeLatency int) *graph.Graph {
	g := graph.New(2 * half)
	for u := 0; u < half; u++ {
		for v := u + 1; v < half; v++ {
			g.MustAddEdge(u, v, 1)
			g.MustAddEdge(half+u, half+v, 1)
		}
	}
	g.MustAddEdge(0, half, bridgeLatency)
	return g
}

// AssignRandomLatencies overwrites every edge latency with a value drawn
// uniformly from [lo, hi].
func AssignRandomLatencies(g *graph.Graph, lo, hi int, rng *rand.Rand) {
	if lo < 1 || hi < lo {
		panic(fmt.Sprintf("graphgen: bad latency range [%d,%d]", lo, hi))
	}
	for _, e := range g.Edges() {
		l := lo + rng.IntN(hi-lo+1)
		if err := g.SetLatency(e.U, e.V, l); err != nil {
			panic(err)
		}
	}
}

// NewRand returns a deterministic PRNG for the given seed, the single
// construction used across the repository.
func NewRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, seed^0x9e3779b97f4a7c15))
}
