// Command gossipnode is one process of a real-network gossip fleet: it
// hosts a contiguous share of the topology's nodes, meshes with its
// peer processes over TCP (length-prefixed frames, HELLO registration)
// and runs the same protocol code the simulator drives — for real.
//
// Every process is started with the same topology flags and the full
// peer list; its -index selects which share it hosts. Process 0 is the
// lead: after the run it collects every peer's informed-time report
// over the mesh's control channel, assembles the fleet-wide spread
// curve and classifies it against a simulator-derived ICC envelope
// (package netcheck) — the same verdict `gossipsim -mode net` applies
// to in-process runs. Exit status 0 means the fleet's real run landed
// inside the simulator's envelope.
//
// Example (two processes):
//
//	gossipnode -index 0 -peers 127.0.0.1:9801,127.0.0.1:9802 -graph grid -n 49 &
//	gossipnode -index 1 -peers 127.0.0.1:9801,127.0.0.1:9802 -graph grid -n 49
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gossip/internal/envelope"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/netcheck"
	"gossip/internal/transport"
)

type options struct {
	index    int
	peers    []string
	graph    string
	n        int
	latency  int
	p        float64
	layers   int
	algo     string
	variant  string
	source   int
	seed     uint64
	known    bool
	roundDur time.Duration
	replicas int
	timeout  time.Duration
}

func parseArgs(args []string) (options, error) {
	var o options
	var peers string
	fs := flag.NewFlagSet("gossipnode", flag.ContinueOnError)
	fs.IntVar(&o.index, "index", 0, "this process's index into -peers (0 = lead, collects the fleet verdict)")
	fs.StringVar(&peers, "peers", "", "comma-separated host:port of every process, in index order (required)")
	fs.StringVar(&o.graph, "graph", "grid", "topology family (must match across the fleet)")
	fs.IntVar(&o.n, "n", 49, "node count (must match across the fleet)")
	fs.IntVar(&o.latency, "latency", 1, "uniform/slow edge latency")
	fs.Float64Var(&o.p, "p", 0.3, "edge probability for er/gadget")
	fs.IntVar(&o.layers, "layers", 6, "ring layers")
	fs.StringVar(&o.algo, "algo", "push-pull", "driver: "+strings.Join(gossip.RealTransportNames(), " | "))
	fs.StringVar(&o.variant, "variant", "", "protocol variant (driver-specific)")
	fs.IntVar(&o.source, "source", 0, "rumor source")
	fs.Uint64Var(&o.seed, "seed", 1, "seed (base of the envelope's seed family; must match across the fleet)")
	fs.BoolVar(&o.known, "known", false, "nodes know adjacent latencies")
	fs.DurationVar(&o.roundDur, "round-duration", 2*time.Millisecond, "wall-clock tick length")
	fs.IntVar(&o.replicas, "replicas", 16, "simulator replicas the envelope is built from")
	fs.DurationVar(&o.timeout, "timeout", 60*time.Second, "mesh barrier / report collection timeout")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	if fs.NArg() > 0 {
		return options{}, fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if peers == "" {
		return options{}, fmt.Errorf("-peers is required")
	}
	o.peers = strings.Split(peers, ",")
	if len(o.peers) < 2 {
		return options{}, fmt.Errorf("a fleet needs >= 2 peers, got %d", len(o.peers))
	}
	if o.index < 0 || o.index >= len(o.peers) {
		return options{}, fmt.Errorf("-index %d outside the %d-process fleet", o.index, len(o.peers))
	}
	if _, err := gossip.RealTransport(o.algo); err != nil {
		return options{}, fmt.Errorf("-algo: %w", err)
	}
	return o, nil
}

// report is the per-process outcome sent to the lead over the control
// channel. InformedAt carries the full-length vector with -1 outside
// the sender's range, so the lead merges by taking each owner's values.
type report struct {
	Index      int    `json:"index"`
	Completed  bool   `json:"completed"`
	InformedAt []int  `json:"informed_at"`
	Messages   int64  `json:"messages"`
	Drops      int64  `json:"drops"`
	Error      string `json:"error,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	o, err := parseArgs(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	g, err := graphgen.Build(graphgen.Spec{
		Family: o.graph, N: o.n, Latency: o.latency, P: o.p, Layers: o.layers, Seed: o.seed,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	csr := g.CSR()
	opts := gossip.DriverOptions{
		Source:         o.source,
		Seed:           o.seed,
		Variant:        o.variant,
		KnownLatencies: o.known,
		MaxRounds:      1 << 20,
	}
	// Every process derives the identical envelope (the simulator is
	// deterministic), so horizon and verdict need no pre-run coordination.
	env, err := netcheck.BuildSimEnvelope(netcheck.Spec{
		CSR: csr, Driver: o.algo, Opts: opts, Replicas: o.replicas,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	mesh, err := transport.NewTCPMesh(o.index, o.peers, csr.N(), 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer mesh.Close()
	ctx, cancel := context.WithTimeout(context.Background(), o.timeout)
	defer cancel()
	if err := mesh.Start(ctx); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Printf("gossipnode %d/%d: mesh up, hosting %d nodes\n", o.index, len(o.peers), len(mesh.Local()))

	res, runErr := gossip.RunNet(gossip.NetConfig{
		Mesh:      mesh,
		CSR:       csr,
		Driver:    o.algo,
		Opts:      opts,
		Round:     o.roundDur,
		MaxRounds: netcheck.Horizon(env),
	})
	rep := report{Index: o.index, Completed: res.Completed, InformedAt: res.InformedAt,
		Messages: res.Messages, Drops: res.Drops}
	if runErr != nil {
		rep.Error = runErr.Error()
		rep.Completed = false
	}

	if o.index != 0 {
		return runPeer(mesh, rep, o.timeout)
	}
	return runLead(mesh, env, rep, len(o.peers), o.timeout)
}

// runPeer ships this process's report to the lead and waits for the
// lead's release message so the sockets stay up until it was read.
func runPeer(mesh *transport.TCPMesh, rep report, timeout time.Duration) int {
	payload, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := mesh.SendControl(0, payload); err != nil {
		fmt.Fprintf(os.Stderr, "gossipnode %d: reporting to lead: %v\n", rep.Index, err)
		return 1
	}
	deadline := time.After(timeout)
	for {
		select {
		case cm := <-mesh.Control():
			if cm.FromProc == 0 {
				fmt.Printf("gossipnode %d: released (%s)\n", rep.Index, cm.Payload)
				if rep.Error != "" {
					return 1
				}
				return 0
			}
		case <-deadline:
			fmt.Fprintf(os.Stderr, "gossipnode %d: lead never released\n", rep.Index)
			return 1
		}
	}
}

// runLead collects every peer's report, assembles the fleet-wide
// informed-time vector and applies the netcheck verdict.
func runLead(mesh *transport.TCPMesh, env *envelope.Envelope, own report, procs int, timeout time.Duration) int {
	merged := own
	reports := map[int]report{0: own}
	deadline := time.After(timeout)
	for len(reports) < procs {
		select {
		case cm := <-mesh.Control():
			var r report
			if err := json.Unmarshal(cm.Payload, &r); err != nil || r.Index != cm.FromProc {
				fmt.Fprintf(os.Stderr, "gossipnode 0: bad report from %d\n", cm.FromProc)
				continue
			}
			reports[r.Index] = r
		case <-deadline:
			fmt.Fprintf(os.Stderr, "gossipnode 0: only %d/%d reports arrived\n", len(reports), procs)
			return 1
		}
	}
	completed := true
	for idx, r := range reports {
		if r.Error != "" {
			fmt.Fprintf(os.Stderr, "gossipnode 0: process %d failed: %s\n", idx, r.Error)
			completed = false
			continue
		}
		completed = completed && r.Completed
		if idx == 0 {
			continue
		}
		lo, hi := transport.NodeRange(len(own.InformedAt), procs, idx)
		for u := lo; u < hi && u < len(merged.InformedAt); u++ {
			merged.InformedAt[u] = r.InformedAt[u]
		}
		merged.Messages += r.Messages
		merged.Drops += r.Drops
	}
	verdict := netcheck.CheckResult(env, gossip.NetResult{
		Completed:  completed,
		InformedAt: merged.InformedAt,
	})
	status := "PASS"
	if verdict != nil {
		status = "FAIL: " + verdict.Error()
	}
	fmt.Printf("gossipnode fleet: completed=%v messages=%d drops=%d envelope=%s\n",
		completed, merged.Messages, merged.Drops, status)
	for i := 1; i < procs; i++ {
		if err := mesh.SendControl(i, []byte(status)); err != nil {
			fmt.Fprintf(os.Stderr, "gossipnode 0: releasing %d: %v\n", i, err)
		}
	}
	// Leave the release frames a moment to flush before sockets close.
	time.Sleep(200 * time.Millisecond)
	if verdict != nil {
		return 1
	}
	return 0
}
