package gossip

import (
	"fmt"
	"strings"

	"gossip/internal/graph"
	"gossip/internal/sim"
)

// DistributableNames returns the sorted canonical names of the
// distributable drivers — the list every "does not support distributed
// execution" message quotes.
func DistributableNames() []string {
	return namesWhere(func(d *Driver) bool { return d.Distributable })
}

// Distributable reports whether the named driver supports distributed
// (multi-process sharded) execution.
func Distributable(name string) bool {
	d, ok := Lookup(name)
	return ok && d.Distributable
}

// PrepareDist expands a distributed-eligible driver invocation into the
// single sim run it amounts to, enforcing the distributed gates that are
// about the request rather than the engine (RunDist re-checks the engine
// ones). Every shard worker and the coordinator call this with identical
// options, so each derives the identical sim.Config.
func PrepareDist(name string, g *graph.Graph, opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	d, ok := Lookup(name)
	if !ok {
		return sim.Config{}, nil, nil, fmt.Errorf("gossip: unknown driver %q", name)
	}
	if !d.Distributable {
		return sim.Config{}, nil, nil, fmt.Errorf("gossip: driver %q does not support distributed execution (distributable: %s)", d.Name, strings.Join(DistributableNames(), ", "))
	}
	if opts.Stop != nil {
		// A caller-supplied closure cannot be shipped to workers, and a
		// stop that reads non-replicated state would silently diverge.
		return sim.Config{}, nil, nil, fmt.Errorf("gossip: distributed execution does not accept a custom Stop condition")
	}
	if opts.MaxInPerRound > 0 {
		return sim.Config{}, nil, nil, fmt.Errorf("gossip: distributed execution does not support the bounded in-degree model (max_in_per_round)")
	}
	if err := topology(g, &opts); err != nil {
		return sim.Config{}, nil, nil, err
	}
	return d.Prepare(opts)
}

// DispatchLocalSharded runs the named driver sharded across goroutines
// through the full distributed path — shard-restricted engines, frame
// barriers, node-order merge — instead of the in-process worker pool.
// It produces the same DriverResult as Dispatch, plus per-shard
// execution stats. This is the distributed path's in-process harness:
// the invariant suite and experiments assert bit-identity through it
// without paying for process fan-out.
func DispatchLocalSharded(name string, opts DriverOptions, shards int) (DriverResult, []sim.DistStats, error) {
	cfg, factory, stop, err := PrepareDist(name, nil, opts)
	if err != nil {
		return DriverResult{}, nil, err
	}
	res, stats, err := sim.RunDistLocal(cfg, shards, factory, stop)
	if err != nil {
		return DriverResult{}, nil, err
	}
	out, err := fromSimResult(res, nil)
	return out, stats, err
}
