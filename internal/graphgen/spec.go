package graphgen

import (
	"fmt"
	"sort"
	"strings"

	"gossip/internal/graph"
)

// Spec names a generated topology family with its parameters — the
// machine-readable form of the family/-n/-latency/-p/-layers surface the
// CLIs expose and gossipd accepts in simulation requests. Every value is
// passed to the generator verbatim (only Family is case-folded): callers
// own their defaults — the CLI through its flag defaults, gossipd
// through request validation — so an explicit Latency 0 or P 0 reaches
// the generator and fails the same way it always has, rather than being
// silently rewritten.
type Spec struct {
	// Family is one of Families() (case-insensitive).
	Family string
	// N is the node count; for dumbbell and gadget it is the per-side
	// count, for ring the per-layer count — exactly the CLI -n semantics.
	N int
	// Latency is the uniform (or slow-edge, depending on family) latency.
	Latency int
	// P is the edge/target probability for er and gadget.
	P float64
	// Layers is the ring layer count.
	Layers int
	// Seed drives the randomized families (ReadsSeed); the others
	// ignore it.
	Seed uint64
}

// ReadsSeed reports whether Build draws on Seed for s's family (er,
// regular, ring, gadget). Two specs that differ only in Seed build the
// identical graph when it is false, so a memo of built topologies can
// key them as one.
func (s Spec) ReadsSeed() bool {
	switch strings.ToLower(strings.TrimSpace(s.Family)) {
	case "er", "regular", "ring", "gadget":
		return true
	}
	return false
}

// MinNodes returns how many nodes Build will produce for s: exact for
// every family except gadget, where the Theorem 10 construction's size
// is not a closed form and N is a lower bound. This is the bound
// request validators check node ids (source, fault-schedule entries)
// against.
func (s Spec) MinNodes() int {
	switch strings.ToLower(strings.TrimSpace(s.Family)) {
	case "grid":
		side := 1
		for side*side < s.N {
			side++
		}
		return side * side
	case "dumbbell":
		return 2 * s.N
	case "ring":
		return s.Layers * s.N
	default:
		return s.N
	}
}

// Families returns the sorted topology family names Build accepts.
func Families() []string {
	out := []string{
		"clique", "star", "path", "cycle", "grid", "tree",
		"er", "regular", "dumbbell", "ring", "gadget",
	}
	sort.Strings(out)
	return out
}

// Build constructs the topology a Spec names. It is the single
// family-name dispatch shared by cmd/gossipsim and the gossipd request
// validator; an unknown family is an error, never a panic.
func Build(s Spec) (*graph.Graph, error) {
	s.Family = strings.ToLower(strings.TrimSpace(s.Family))
	rng := NewRand(s.Seed)
	switch s.Family {
	case "clique":
		return Clique(s.N, s.Latency), nil
	case "star":
		return Star(s.N, s.Latency), nil
	case "path":
		return Path(s.N, s.Latency), nil
	case "cycle":
		return Cycle(s.N, s.Latency), nil
	case "grid":
		side := 1
		for side*side < s.N {
			side++
		}
		return Grid(side, side, s.Latency), nil
	case "tree":
		return BinaryTree(s.N, s.Latency), nil
	case "er":
		return ErdosRenyi(s.N, s.P, s.Latency, rng)
	case "regular":
		return RandomRegular(s.N, 4, s.Latency, rng)
	case "dumbbell":
		return Dumbbell(s.N, s.Latency), nil
	case "ring":
		ring, err := NewRingNetwork(s.Layers, s.N, s.Latency, rng)
		if err != nil {
			return nil, err
		}
		return ring.Graph, nil
	case "gadget":
		net, err := NewTheorem10Network(s.N, 1, s.Latency, s.P, rng)
		if err != nil {
			return nil, err
		}
		return net.Graph, nil
	default:
		return nil, fmt.Errorf("graphgen: unknown family %q (have %s)",
			s.Family, strings.Join(Families(), ", "))
	}
}

// BuildCSR is Build in the form every engine runs on: the CSR of the
// built graph, in the same adjacency order, so every seeded run on it is
// unchanged.
func BuildCSR(s Spec) (*graph.CSR, error) {
	g, err := Build(s)
	if err != nil {
		return nil, err
	}
	return g.CSR(), nil
}
