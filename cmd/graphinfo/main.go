// Command graphinfo prints the weighted-conductance profile of a
// generated topology: D, Δ, φℓ per latency, φ*, ℓ*, φavg, L, and the
// paper's predicted dissemination bounds.
//
// Usage:
//
//	graphinfo -graph dumbbell -n 8 -latency 32
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// options holds the parsed command line.
type options struct {
	graphName string
	n         int
	latency   int
	p         float64
	seed      uint64
}

// parseArgs parses the command line into options. Split from main so the
// flag surface is regression-tested (the pattern cmd/gossipsim and
// cmd/experiments established).
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("graphinfo", flag.ContinueOnError)
	fs.StringVar(&o.graphName, "graph", "dumbbell", "topology (see gossipsim -help)")
	fs.IntVar(&o.n, "n", 8, "node count parameter")
	fs.IntVar(&o.latency, "latency", 32, "latency parameter")
	fs.Float64Var(&o.p, "p", 0.3, "probability parameter")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	return o, nil
}

func main() {
	os.Exit(run())
}

func run() int {
	opts, err := parseArgs(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	g, err := buildGraph(opts.graphName, opts.n, opts.latency, opts.p, opts.seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	prof, err := gossip.Analyze(g)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	mode := "estimated (candidate-cut upper bounds)"
	if prof.Conductance.Exact {
		mode = "exact (full cut enumeration)"
	}
	fmt.Printf("graph %s: n=%d m=%d Δ=%d D=%d ℓmax=%d\n",
		opts.graphName, prof.N, prof.M, prof.MaxDegree, prof.Diameter, prof.MaxLatency)
	fmt.Printf("conductance mode: %s\n", mode)
	lats := make([]int, 0, len(prof.Conductance.PhiL))
	for l := range prof.Conductance.PhiL {
		lats = append(lats, l)
	}
	sort.Ints(lats)
	for _, l := range lats {
		marker := ""
		if l == prof.Conductance.EllStar {
			marker = "   <-- critical (ℓ*)"
		}
		fmt.Printf("  φ_%-6d = %.6f   φ_ℓ/ℓ = %.6f%s\n",
			l, prof.Conductance.PhiL[l], prof.Conductance.PhiL[l]/float64(l), marker)
	}
	fmt.Printf("φ* = %.6f  ℓ* = %d  φavg = %.6f  L = %d  (classes ≤ %d)\n",
		prof.Conductance.PhiStar, prof.Conductance.EllStar,
		prof.Conductance.PhiAvg, prof.Conductance.NonEmptyClasses, prof.Conductance.Classes())
	if err := prof.Conductance.CheckTheorem5(); err != nil {
		fmt.Printf("Theorem 5: VIOLATED: %v\n", err)
		return 2
	}
	fmt.Println("Theorem 5: φ*/2ℓ* ≤ φavg ≤ Lφ*/ℓ*  holds")
	if cut := prof.Conductance.CriticalCut; cut != nil {
		side := 0
		for _, in := range cut {
			if in {
				side++
			}
		}
		fmt.Printf("critical cut: %d vs %d nodes (bottleneck at ℓ* = %d)\n",
			side, prof.N-side, prof.Conductance.EllStar)
	}
	fmt.Println("predicted bounds (rounds):")
	fmt.Printf("  lower Ω(min(D+Δ, ℓ*/φ*))      %.0f\n", prof.Bounds.Lower)
	fmt.Printf("  push-pull O((ℓ*/φ*)ln n)      %.0f\n", prof.Bounds.PushPull)
	fmt.Printf("  push-pull O((L/φavg)ln n)     %.0f\n", prof.Bounds.PushPullAvg)
	fmt.Printf("  spanner known-ℓ O(D log³n)    %.0f\n", prof.Bounds.SpannerKnown)
	fmt.Printf("  spanner unknown O((D+Δ)log³n) %.0f\n", prof.Bounds.SpannerUnknown)
	fmt.Printf("  pattern O(D log²n logD)       %.0f\n", prof.Bounds.Pattern)
	fmt.Printf("  unified (Theorem 31)          %.0f\n", prof.Bounds.Unified)
	return 0
}

func buildGraph(name string, n, latency int, p float64, seed uint64) (*graph.Graph, error) {
	rng := graphgen.NewRand(seed)
	switch name {
	case "clique":
		return graphgen.Clique(n, latency), nil
	case "star":
		return graphgen.Star(n, latency), nil
	case "path":
		return graphgen.Path(n, latency), nil
	case "cycle":
		return graphgen.Cycle(n, latency), nil
	case "dumbbell":
		return graphgen.Dumbbell(n, latency), nil
	case "er":
		g, err := graphgen.ErdosRenyi(n, p, 1, rng)
		if err != nil {
			return nil, err
		}
		graphgen.AssignRandomLatencies(g, 1, latency, rng)
		return g, nil
	case "ring":
		ring, err := graphgen.NewRingNetwork(6, n, latency, rng)
		if err != nil {
			return nil, err
		}
		return ring.Graph, nil
	default:
		return nil, fmt.Errorf("unknown graph %q", name)
	}
}
