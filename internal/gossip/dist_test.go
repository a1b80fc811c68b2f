package gossip

import (
	"reflect"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

func TestDistributable(t *testing.T) {
	for name, want := range map[string]bool{
		"push-pull": true,
		"pushpull":  true, // alias resolves first
		"flood":     true,
		"dtg":       true,
		"superstep": true,
		"election":  true,
		"leader":    true, // alias resolves first
		"echo":      true,
		"auto":      false,
		"pattern":   false,
		"spanner":   false,
		"rr":        false,
		"bogus":     false,
	} {
		if got := Distributable(name); got != want {
			t.Errorf("Distributable(%q) = %v, want %v", name, got, want)
		}
	}
}

func TestPrepareDistRejects(t *testing.T) {
	g := graphgen.Clique(8, 1)
	cases := []struct {
		name   string
		driver string
		opts   DriverOptions
	}{
		{"unknown driver", "bogus", DriverOptions{}},
		{"non-distributable", "auto", DriverOptions{}},
		{"custom stop", "push-pull", DriverOptions{Stop: func(w *sim.World) bool { return false }}},
		{"bounded in-degree", "push-pull", DriverOptions{MaxInPerRound: 2}},
	}
	for _, tc := range cases {
		if _, _, _, err := PrepareDist(tc.driver, g, tc.opts); err == nil {
			t.Errorf("%s: PrepareDist succeeded, want error", tc.name)
		}
		if _, _, err := DispatchLocalSharded(tc.driver, onCSR(g, tc.opts), 2); err == nil {
			t.Errorf("%s: DispatchLocalSharded succeeded, want error", tc.name)
		}
	}
}

// TestDispatchLocalShardedMatchesDispatch is the in-package spelling of
// the bit-identity contract: the full distributed path (shard engines,
// frame barriers, node-order merge) must reproduce the serial dispatch
// exactly, for every distributable driver, at 2 and 3 shards.
func TestDispatchLocalShardedMatchesDispatch(t *testing.T) {
	g := graphgen.Dumbbell(8, 6)
	for _, name := range []string{"push-pull", "flood", "dtg", "superstep", "election", "echo"} {
		opts := DriverOptions{Source: 0, Seed: 11, MaxRounds: 1 << 14}
		serial, err := Dispatch(name, g, opts)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, shards := range []int{2, 3} {
			dist, stats, err := DispatchLocalSharded(name, onCSR(g, opts), shards)
			if err != nil {
				t.Fatalf("%s sharded(%d): %v", name, shards, err)
			}
			if dist.Rounds != serial.Rounds || dist.Completed != serial.Completed ||
				dist.Exchanges != serial.Exchanges || dist.Messages != serial.Messages ||
				dist.Dropped != serial.Dropped || dist.Delivered != serial.Delivered {
				t.Fatalf("%s sharded(%d) counters diverge: %+v vs %+v", name, shards, dist, serial)
			}
			if !reflect.DeepEqual(dist.Sim.InformedAt, serial.Sim.InformedAt) {
				t.Fatalf("%s sharded(%d): InformedAt diverges", name, shards)
			}
			if len(stats) != shards {
				t.Fatalf("%s sharded(%d): %d stats entries", name, shards, len(stats))
			}
			for i, st := range stats {
				if st.Barriers == 0 || st.Rounds == 0 {
					t.Fatalf("%s shard %d stats never moved: %+v", name, i, st)
				}
			}
		}
	}
}

// onCSR returns o running on g's CSR, the topology the graph-free entry
// points (Fork, DispatchLocalSharded) read.
func onCSR(g *graph.Graph, o DriverOptions) DriverOptions {
	o.CSR = g.CSR()
	return o
}
