// Command gossipsim runs one dissemination algorithm on one generated
// topology and prints the round/message accounting.
//
// Usage:
//
//	gossipsim -graph dumbbell -n 16 -latency 64 -algo auto -seed 3
//
// Graphs: clique, star, path, cycle, grid, tree, er, regular, dumbbell,
// ring, gadget. The -algo value resolves through the internal/gossip
// driver registry, so every registered protocol — dissemination (auto,
// push-pull, spanner, pattern, flood, dtg, superstep, rr) and
// coordination (election, echo) alike — is runnable from here;
// `gossipsim -h` lists the live set. -mode net replays a real-transport
// driver (push-pull, flood) on a real goroutine mesh instead of the
// calendar engine.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gossip"
	"gossip/internal/adversity"
	driver "gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/netcheck"
	"gossip/internal/viz"
)

// options holds the parsed command line.
type options struct {
	graphName string
	n         int
	latency   int
	p         float64
	layers    int
	algoName  string
	algo      gossip.Algorithm
	source    int
	seed      uint64
	workers   int
	known     bool
	analyze   bool
	curve     bool
	loadPath  string
	savePath  string
	faultSpec string
	adversity *adversity.Spec
	mode      string
	roundDur  time.Duration
	trials    int
	replicas  int
}

// parseArgs parses the command line into options. Split from main so the
// flag surface is regression-tested. The -algo value is validated against
// the internal/gossip driver registry, so every registered protocol
// (including dtg, rr, superstep) is runnable from here with no per-CLI
// plumbing.
func parseArgs(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("gossipsim", flag.ContinueOnError)
	fs.StringVar(&o.graphName, "graph", "clique", "topology: clique|star|path|cycle|grid|tree|er|regular|dumbbell|ring|gadget")
	fs.IntVar(&o.n, "n", 16, "node count (per side for dumbbell/gadget; per layer for ring)")
	fs.IntVar(&o.latency, "latency", 1, "uniform/slow edge latency, depending on topology")
	fs.Float64Var(&o.p, "p", 0.3, "edge or target probability for er/gadget")
	fs.IntVar(&o.layers, "layers", 6, "ring layers")
	fs.StringVar(&o.algoName, "algo", "auto", "algorithm: "+strings.Join(gossip.Algorithms(), "|"))
	fs.IntVar(&o.source, "source", 0, "rumor source")
	fs.Uint64Var(&o.seed, "seed", 1, "random seed")
	fs.IntVar(&o.workers, "workers", 0, "intra-round simulation shards (results identical for any value; 0/1 = serial)")
	fs.BoolVar(&o.known, "known", false, "nodes know adjacent latencies (Section 4 model)")
	fs.BoolVar(&o.analyze, "analyze", true, "print the conductance profile")
	fs.BoolVar(&o.curve, "curve", false, "print the push-pull spreading curve as a sparkline")
	fs.StringVar(&o.loadPath, "load", "", "load the graph from an edge-list file instead of generating")
	fs.StringVar(&o.savePath, "save", "", "save the generated graph to an edge-list file")
	fs.StringVar(&o.mode, "mode", "sim", "execution mode: sim (deterministic calendar) | net (real goroutine mesh, validated against a simulator-derived ICC envelope)")
	fs.DurationVar(&o.roundDur, "round-duration", 2*time.Millisecond, "net mode: wall-clock tick length")
	fs.IntVar(&o.trials, "trials", 5, "net mode: real-mesh trials to classify")
	fs.IntVar(&o.replicas, "replicas", 16, "net mode: simulator replicas the envelope is built from")
	fs.StringVar(&o.faultSpec, "fault-spec", "", "full fault schedule DSL, e.g. 'loss=0.1;churn=3:10-20:amnesia;flap=0-1:5-9;crash=4:6,7'")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if o.mode != "sim" && o.mode != "net" {
		return options{}, fmt.Errorf("unknown -mode %q (sim|net)", o.mode)
	}
	if o.mode == "net" {
		if _, err := driver.RealTransport(o.algoName); err != nil {
			return options{}, fmt.Errorf("-mode net: %w", err)
		}
		if o.faultSpec != "" {
			return options{}, fmt.Errorf("-mode net does not support -fault-spec (the real fabric supplies its own adversity)")
		}
	} else {
		algo, err := gossip.ParseAlgorithm(o.algoName)
		if err != nil {
			return options{}, err
		}
		o.algo = algo
	}
	if o.faultSpec != "" {
		spec, err := adversity.ParseSpec(o.faultSpec)
		if err != nil {
			return options{}, err
		}
		if !spec.Empty() {
			o.adversity = spec
		}
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

	var g *graph.Graph
	graphName := opts.graphName
	if opts.loadPath != "" {
		f, ferr := os.Open(opts.loadPath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			return 1
		}
		g, err = graph.Load(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		graphName = opts.loadPath
	} else {
		g, err = buildGraph(opts.graphName, opts.n, opts.latency, opts.p, opts.layers, opts.seed)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if opts.savePath != "" {
		f, ferr := os.Create(opts.savePath)
		if ferr != nil {
			fmt.Fprintln(os.Stderr, ferr)
			return 1
		}
		if err := g.Save(f); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("saved graph to %s\n", opts.savePath)
	}
	c := g.CSR()
	fmt.Printf("graph: %s  n=%d m=%d Δ=%d D=%d ℓmax=%d\n",
		graphName, c.N(), c.M(), c.MaxDegree(), c.WeightedDiameter(), c.MaxLatency())

	if opts.analyze {
		prof, err := gossip.Analyze(g)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		exact := "estimated"
		if prof.Conductance.Exact {
			exact = "exact"
		}
		fmt.Printf("conductance (%s): φ*=%.4f ℓ*=%d φavg=%.5f L=%d\n",
			exact, prof.Conductance.PhiStar, prof.Conductance.EllStar,
			prof.Conductance.PhiAvg, prof.Conductance.NonEmptyClasses)
		fmt.Printf("bounds: lower=%.0f push-pull=%.0f spanner(known)=%.0f pattern=%.0f unified=%.0f\n",
			prof.Bounds.Lower, prof.Bounds.PushPull, prof.Bounds.SpannerKnown,
			prof.Bounds.Pattern, prof.Bounds.Unified)
	}

	if opts.adversity != nil {
		fmt.Printf("adversity: %s\n", opts.adversity)
	}
	if opts.mode == "net" {
		return runNet(g, opts)
	}
	out, err := gossip.Disseminate(g, gossip.Options{
		Algorithm:      opts.algo,
		Source:         opts.source,
		KnownLatencies: opts.known,
		Seed:           opts.seed,
		Workers:        opts.workers,
		Adversity:      opts.adversity,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("run: algorithm=%s rounds=%d exchanges=%d completed=%v\n",
		out.Algorithm, out.Rounds, out.Exchanges, out.Completed)
	if opts.curve {
		res, err := driver.Dispatch("push-pull", g, driver.DriverOptions{Source: opts.source, Seed: opts.seed, MaxRounds: 1 << 20})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Println(viz.Curve("push-pull spread", res.Sim.SpreadCurve(), 48))
	}
	if !out.Completed {
		return 2
	}
	return 0
}

// runNet is the -mode net path: the same protocol code on a real
// in-process goroutine mesh instead of the calendar, each trial
// classified against a simulator-derived ICC envelope (see package
// netcheck). Exit 0 = every trial completed and the spec passed.
func runNet(g *graph.Graph, opts options) int {
	rep, err := netcheck.RunChan(netcheck.Spec{
		Name:   fmt.Sprintf("%s/%s", opts.algoName, opts.graphName),
		CSR:    g.CSR(),
		Driver: opts.algoName,
		Opts: driver.DriverOptions{
			Source:         opts.source,
			Seed:           opts.seed,
			KnownLatencies: opts.known,
			MaxRounds:      1 << 20,
		},
		Trials:   opts.trials,
		Replicas: opts.replicas,
		Round:    opts.roundDur,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Print(rep.String())
	if !rep.Passed() {
		fmt.Println("netcheck: FAIL")
		return 2
	}
	fmt.Println("netcheck: PASS")
	return 0
}

// buildGraph dispatches to the shared family builder (graphgen.Build),
// which is also the construction path behind gossipd simulation requests.
func buildGraph(name string, n, latency int, p float64, layers int, seed uint64) (*graph.Graph, error) {
	return graphgen.Build(graphgen.Spec{
		Family:  name,
		N:       n,
		Latency: latency,
		P:       p,
		Layers:  layers,
		Seed:    seed,
	})
}
