package graphgen

import (
	"fmt"
	"math/rand/v2"

	"gossip/internal/graph"
)

// TargetSet is a set of bipartite index pairs (i,j), i.e. the guessing
// game's fast cross edges between left node i and right node j.
type TargetSet map[[2]int]bool

// SingletonTarget returns a target set containing one uniformly random
// pair from [0,m) x [0,m).
func SingletonTarget(m int, rng *rand.Rand) TargetSet {
	return TargetSet{{rng.IntN(m), rng.IntN(m)}: true}
}

// RandomTarget returns the predicate Random_p of the paper: every pair of
// [0,m) x [0,m) joins the target set independently with probability p.
func RandomTarget(m int, p float64, rng *rand.Rand) TargetSet {
	t := TargetSet{}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			if rng.Float64() < p {
				t[[2]int{i, j}] = true
			}
		}
	}
	return t
}

// Gadget is the constructed guessing-game network G(2m, lo, hi, P) of
// Section 3.2 (Figure 1), plus bookkeeping the experiments need.
type Gadget struct {
	Graph *graph.Graph
	// M is the side size; nodes 0..M-1 are the left set L (a latency-1
	// clique), nodes M..2M-1 are the right set R.
	M int
	// Lo and Hi are the fast/slow cross-edge latencies.
	Lo, Hi int
	// Targets are the fast cross edges (the oracle's hidden target set).
	Targets TargetSet
	// Symmetric records whether R is also a clique (Gsym).
	Symmetric bool
}

// Left returns the node ID of left index i.
func (gd *Gadget) Left(i int) graph.NodeID { return i }

// Right returns the node ID of right index j.
func (gd *Gadget) Right(j int) graph.NodeID { return gd.M + j }

// NewGadget builds G(2m, lo, hi, P): a latency-1 clique on L, the complete
// bipartite graph L x R where cross edge (i,j) has latency lo iff
// (i,j) ∈ targets and hi otherwise. With symmetric=true it builds
// Gsym(2m, lo, hi, P), which adds a latency-1 clique on R.
func NewGadget(m, lo, hi int, targets TargetSet, symmetric bool) (*Gadget, error) {
	if m < 1 {
		return nil, fmt.Errorf("graphgen: gadget side %d < 1", m)
	}
	if lo < 1 || hi < lo {
		return nil, fmt.Errorf("graphgen: gadget latencies lo=%d hi=%d invalid", lo, hi)
	}
	g := graph.New(2 * m)
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			g.MustAddEdge(u, v, 1)
			if symmetric {
				g.MustAddEdge(m+u, m+v, 1)
			}
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			lat := hi
			if targets[[2]int{i, j}] {
				lat = lo
			}
			g.MustAddEdge(i, m+j, lat)
		}
	}
	return &Gadget{Graph: g, M: m, Lo: lo, Hi: hi, Targets: targets, Symmetric: symmetric}, nil
}

// Theorem9Network is the Ω(Δ) lower-bound construction: the symmetric
// gadget Gsym(2Δ, 1, hi, singleton) with a constant-degree expander of the
// remaining n-2Δ nodes attached to all of L via one expander node.
type Theorem9Network struct {
	Gadget *Gadget
	Graph  *graph.Graph
	Delta  int
}

// NewTheorem9Network builds the Theorem 9 network on >= 2*delta nodes.
// hi is the slow latency (the theorem uses Δ; experiments may pass more
// to make the lower bound visible). If n > 2*delta, the extra nodes form
// a 4-regular random expander whose node 0 connects to every left vertex.
func NewTheorem9Network(n, delta, hi int, rng *rand.Rand) (*Theorem9Network, error) {
	if n < 2*delta {
		return nil, fmt.Errorf("graphgen: n=%d < 2Δ=%d", n, 2*delta)
	}
	target := SingletonTarget(delta, rng)
	gd, err := NewGadget(delta, 1, hi, target, true)
	if err != nil {
		return nil, err
	}
	rest := n - 2*delta
	if rest == 0 {
		return &Theorem9Network{Gadget: gd, Graph: gd.Graph, Delta: delta}, nil
	}
	g := graph.New(n)
	for _, e := range gd.Graph.Edges() {
		g.MustAddEdge(e.U, e.V, e.Latency)
	}
	// Attach the expander on nodes [2Δ, n).
	switch {
	case rest == 1:
		// Degenerate expander: a single hub node.
	case rest < 6:
		for u := 0; u < rest; u++ {
			for v := u + 1; v < rest; v++ {
				g.MustAddEdge(2*delta+u, 2*delta+v, 1)
			}
		}
	default:
		deg := 4
		if rest*deg%2 != 0 {
			deg = 3
		}
		exp, err := RandomRegular(rest, deg, 1, rng)
		if err != nil {
			return nil, fmt.Errorf("graphgen: theorem 9 expander: %w", err)
		}
		for _, e := range exp.Edges() {
			g.MustAddEdge(2*delta+e.U, 2*delta+e.V, e.Latency)
		}
	}
	// One expander node connects to all of L.
	for i := 0; i < delta; i++ {
		g.MustAddEdge(2*delta, i, 1)
	}
	gd2 := *gd
	gd2.Graph = g
	return &Theorem9Network{Gadget: &gd2, Graph: g, Delta: delta}, nil
}

// Theorem10Network is the conductance lower-bound construction: the
// bipartite gadget G(2n, ℓ, hi, Random_φ) where each cross edge is fast
// (latency ℓ) independently with probability φ and slow (latency hi)
// otherwise. The paper uses hi = n²; callers may pass smaller hi to keep
// simulated horizons reasonable as long as hi exceeds the bound under test.
type Theorem10Network struct {
	Gadget *Gadget
	Graph  *graph.Graph
	// Phi is the sampling probability (the designed conductance Θ(φ)).
	Phi float64
	// Ell is the fast-edge latency ℓ.
	Ell int
}

// NewTheorem10Network samples the Theorem 10 network with side size n.
func NewTheorem10Network(n, ell, hi int, phi float64, rng *rand.Rand) (*Theorem10Network, error) {
	if phi <= 0 || phi > 1 {
		return nil, fmt.Errorf("graphgen: phi=%v outside (0,1]", phi)
	}
	if ell < 1 || hi < ell {
		return nil, fmt.Errorf("graphgen: ell=%d hi=%d invalid", ell, hi)
	}
	targets := RandomTarget(n, phi, rng)
	// The left clique keeps the graph connected even if some right node
	// drew no fast edge; slow edges keep R attached regardless.
	gd, err := NewGadget(n, ell, hi, targets, false)
	if err != nil {
		return nil, err
	}
	return &Theorem10Network{Gadget: gd, Graph: gd.Graph, Phi: phi, Ell: ell}, nil
}

// RingNetwork is the Theorem 13 / Figure 2 construction: k node layers of
// size s wired in a ring, each layer a latency-1 clique, adjacent layers
// complete bipartite with every cross edge at latency ℓ except one
// uniformly random fast (latency-1) edge per adjacent pair.
type RingNetwork struct {
	Graph  *graph.Graph
	Layers int // k
	Size   int // s
	Ell    int
	// FastEdges[i] is the fast cross edge between layer i and layer
	// (i+1) mod k, as (node in layer i, node in layer i+1).
	FastEdges [][2]graph.NodeID
}

// Node returns the ID of member j of layer i.
func (r *RingNetwork) Node(layer, j int) graph.NodeID { return layer*r.Size + j }

// Alpha returns the designed conductance parameter: Lemma 15 shows the
// half-ring cut has φℓ = 2s²/(s(3s-1)·k/2) — with s = cnα and k = 2/(cα)
// this is exactly α. We report it from the realized k and s.
func (r *RingNetwork) Alpha() float64 {
	// Volume of half the ring: (k/2)·s·(3s-1); cut edges of latency ≤ ℓ
	// across the two boundaries: 2s².
	return 2 * float64(r.Size) * float64(r.Size) /
		(float64(r.Layers) / 2 * float64(r.Size) * float64(3*r.Size-1))
}

// NewRingNetwork builds the ring with k layers of s nodes each.
func NewRingNetwork(k, s, ell int, rng *rand.Rand) (*RingNetwork, error) {
	if k < 3 {
		return nil, fmt.Errorf("graphgen: ring needs >= 3 layers, got %d", k)
	}
	if s < 1 {
		return nil, fmt.Errorf("graphgen: layer size %d < 1", s)
	}
	if ell < 1 {
		return nil, fmt.Errorf("graphgen: ell %d < 1", ell)
	}
	g := graph.New(k * s)
	r := &RingNetwork{Graph: g, Layers: k, Size: s, Ell: ell}
	for layer := 0; layer < k; layer++ {
		for u := 0; u < s; u++ {
			for v := u + 1; v < s; v++ {
				g.MustAddEdge(r.Node(layer, u), r.Node(layer, v), 1)
			}
		}
	}
	for layer := 0; layer < k; layer++ {
		next := (layer + 1) % k
		fi, fj := rng.IntN(s), rng.IntN(s)
		for u := 0; u < s; u++ {
			for v := 0; v < s; v++ {
				lat := ell
				if u == fi && v == fj {
					lat = 1
				}
				g.MustAddEdge(r.Node(layer, u), r.Node(next, v), lat)
			}
		}
		r.FastEdges = append(r.FastEdges, [2]graph.NodeID{r.Node(layer, fi), r.Node(next, fj)})
	}
	return r, nil
}
