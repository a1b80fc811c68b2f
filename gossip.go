// Package gossip is a Go reproduction of "Slow links, fast links, and the
// cost of gossip" (Sourav, Robinson, Gilbert; ICDCS 2018): information
// dissemination in networks whose edges have latencies.
//
// The package is the library's one entry point. It combines the
// weighted-conductance analysis (Section 2) with the dissemination
// algorithms (Sections 4-6):
//
//   - Build a latency graph with NewGraph (or the generators in
//     internal/graphgen via the cmd tools).
//   - Analyze computes the weighted-conductance profile: the critical
//     weighted conductance φ* with critical latency ℓ* (Definition 2),
//     the average weighted conductance φavg (Definition 4), and the
//     paper's predicted dissemination bounds.
//   - Disseminate runs a dissemination algorithm: push-pull (Theorem 29),
//     the spanner pipeline (Theorem 25), the deterministic pattern
//     schedule (Lemma 28), the unified Theorem 31 combination, or any
//     other driver ParseAlgorithm resolves.
//
// Quickstart:
//
//	g := gossip.NewGraph(4)
//	g.MustAddEdge(0, 1, 1)   // fast link
//	g.MustAddEdge(1, 2, 1)
//	g.MustAddEdge(2, 3, 1)
//	g.MustAddEdge(0, 3, 50)  // slow direct link
//	profile, _ := gossip.Analyze(g)
//	out, _ := gossip.Disseminate(g, gossip.Options{Source: 0, Seed: 1})
package gossip

import (
	"fmt"
	"math"
	"strings"

	"gossip/internal/adversity"
	"gossip/internal/conductance"
	driver "gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/sim"
)

// Graph is a connected undirected graph with positive integer edge
// latencies (the paper's network model).
type Graph = graph.Graph

// Edge is an undirected edge with a latency.
type Edge = graph.Edge

// NodeID identifies a node (nodes are numbered 0..N-1).
type NodeID = graph.NodeID

// NewGraph returns an empty graph on n nodes.
func NewGraph(n int) *Graph { return graph.New(n) }

// ConductanceResult carries φ*, ℓ*, φavg, the per-latency φℓ map and the
// number of non-empty latency classes L.
type ConductanceResult = conductance.Result

// Profile is the structural and conductance analysis of a latency graph.
type Profile struct {
	// N, M, MaxDegree, MaxLatency are basic structure.
	N, M, MaxDegree, MaxLatency int
	// Diameter is the weighted diameter D.
	Diameter int64
	// Conductance carries φ*, ℓ*, φavg, the φℓ map and L.
	Conductance ConductanceResult
	// Bounds are the paper's predictions for this graph.
	Bounds Bounds
}

// Bounds collects the paper's round-complexity predictions.
type Bounds struct {
	// Lower is Ω(min(D+Δ, ℓ*/φ*)) — the Theorem 13 lower bound shape.
	Lower float64
	// PushPull is O((ℓ*/φ*)·ln n) — Theorem 29.
	PushPull float64
	// PushPullAvg is O((L/φavg)·ln n) — Corollary 30.
	PushPullAvg float64
	// SpannerKnown is O(D·log³ n) — Theorem 25.
	SpannerKnown float64
	// SpannerUnknown is O((D+Δ)·log³ n) — Section 5.2.
	SpannerUnknown float64
	// Pattern is O(D·log² n·log D) — Lemma 28.
	Pattern float64
	// Unified is O(min(SpannerUnknown, PushPull)) — Theorem 31.
	Unified float64
}

// Analyze profiles g: exact conductance by cut enumeration for small
// graphs, candidate-cut estimation for larger ones, plus the paper's
// predicted bounds.
func Analyze(g *Graph) (*Profile, error) {
	c := g.CSR()
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	cond, err := conductance.Compute(c)
	if err != nil {
		return nil, fmt.Errorf("core: analyze: %w", err)
	}
	p := &Profile{
		N:           c.N(),
		M:           c.M(),
		MaxDegree:   c.MaxDegree(),
		MaxLatency:  c.MaxLatency(),
		Diameter:    c.WeightedDiameter(),
		Conductance: cond,
	}
	p.Bounds = computeBounds(p)
	return p, nil
}

func computeBounds(p *Profile) Bounds {
	ln := math.Log(float64(p.N))
	log2 := math.Log2(float64(p.N))
	d := float64(p.Diameter)
	var b Bounds
	critical := math.Inf(1)
	if p.Conductance.PhiStar > 0 {
		critical = float64(p.Conductance.EllStar) / p.Conductance.PhiStar
	}
	b.Lower = math.Min(d+float64(p.MaxDegree), critical)
	b.PushPull = critical * ln
	if p.Conductance.PhiAvg > 0 {
		b.PushPullAvg = float64(p.Conductance.NonEmptyClasses) / p.Conductance.PhiAvg * ln
	} else {
		b.PushPullAvg = math.Inf(1)
	}
	b.SpannerKnown = d * log2 * log2 * log2
	b.SpannerUnknown = (d + float64(p.MaxDegree)) * log2 * log2 * log2
	if d > 1 {
		b.Pattern = d * log2 * log2 * math.Log2(d)
	} else {
		b.Pattern = log2 * log2
	}
	b.Unified = math.Min(b.SpannerUnknown, b.PushPull)
	return b
}

// Algorithm names a dissemination strategy. It is a registry key: any
// driver registered in internal/gossip is a valid value, so the list
// below is the stable surface, not an exhaustive enum.
type Algorithm string

const (
	// Auto runs push-pull and the spanner pipeline side by side and
	// reports the faster arm (Theorem 31).
	Auto Algorithm = "auto"
	// PushPull is the classical random phone-call protocol (Theorem 29).
	PushPull Algorithm = "push-pull"
	// Spanner is ℓ-DTG discovery + directed Baswana-Sen spanner + RR
	// broadcast (Theorem 25), with guess-and-double when D is unknown.
	Spanner Algorithm = "spanner"
	// Pattern is the deterministic T(k) schedule (Lemma 28).
	Pattern Algorithm = "pattern"
	// Flood is the push-only baseline of footnote 3.
	Flood Algorithm = "flood"
)

// String names the algorithm; the zero value reads as the Auto default.
func (a Algorithm) String() string {
	if a == "" {
		return string(Auto)
	}
	return string(a)
}

// ParseAlgorithm resolves a driver name or alias to its canonical
// Algorithm, validating it against the registry.
func ParseAlgorithm(name string) (Algorithm, error) {
	d, ok := driver.Lookup(name)
	if !ok {
		return "", fmt.Errorf("core: unknown algorithm %q (have %s)", name, strings.Join(driver.Names(), "|"))
	}
	return Algorithm(d.Name), nil
}

// Algorithms lists the registered driver names Disseminate accepts.
func Algorithms() []string { return driver.Names() }

// Options configures Disseminate.
type Options struct {
	// Algorithm defaults to Auto.
	Algorithm Algorithm
	// Source is the rumor source (one-to-all protocols).
	Source NodeID
	// KnownLatencies selects the Section 4 model.
	KnownLatencies bool
	// D, when positive and known, skips guess-and-double for the
	// spanner/pattern pipelines.
	D         int
	Seed      uint64
	MaxRounds int
	// Adversity attaches a declarative fault schedule — message loss,
	// churn, link flaps and crash batches (see package adversity) — and is
	// the one failure field: completion is judged over the nodes it never
	// permanently removes. Every algorithm accepts it; multi-phase
	// pipelines rebase it between phases.
	Adversity *adversity.Spec
	// FaultTolerant switches the spanner pipeline to the Superstep
	// primitive with timeouts (the Section 7 extension). Only meaningful
	// for Spanner and Auto.
	FaultTolerant bool
	// Workers shards intra-round simulation across goroutines (see
	// sim.Config.Workers). Results are bit-identical for any value; 0 or
	// 1 runs serial.
	Workers int
}

// Outcome reports a dissemination run.
type Outcome struct {
	// Algorithm is the strategy that produced Rounds (for Auto, the
	// winning arm).
	Algorithm Algorithm
	// Rounds until dissemination completed (-1 if it did not).
	Rounds    int
	Completed bool
	// Exchanges counts initiated exchanges.
	Exchanges int64
}

// Disseminate runs the selected dissemination algorithm on g by
// dispatching to the internal/gossip driver registry — the same code path
// the experiment harness and the CLIs use.
func Disseminate(g *Graph, opts Options) (Outcome, error) {
	name, err := ParseAlgorithm(opts.Algorithm.String())
	if err != nil {
		return Outcome{}, err
	}
	if opts.MaxRounds <= 0 {
		opts.MaxRounds = sim.DefaultMaxRounds
	}
	res, err := driver.Dispatch(string(name), g, driver.DriverOptions{
		Source:         opts.Source,
		KnownLatencies: opts.KnownLatencies,
		D:              opts.D,
		Seed:           opts.Seed,
		MaxRounds:      opts.MaxRounds,
		FaultTolerant:  opts.FaultTolerant,
		ExecOptions: driver.ExecOptions{
			Adversity: opts.Adversity,
			Workers:   opts.Workers,
		},
	})
	if err != nil {
		return Outcome{}, err
	}
	out := Outcome{
		Algorithm: name,
		Rounds:    res.Rounds,
		Completed: res.Completed,
		Exchanges: res.Exchanges,
	}
	switch res.Winner {
	case "spanner":
		out.Algorithm = Spanner
	case "push-pull", "none":
		out.Algorithm = PushPull
	}
	if !out.Completed {
		out.Rounds = -1
	}
	return out, nil
}
