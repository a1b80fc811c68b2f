package gossip

import (
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

func TestDriverRegistryNames(t *testing.T) {
	want := []string{"auto", "dtg", "echo", "election", "flood", "pattern", "push-pull", "rr", "spanner", "superstep"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v", got, want)
		}
	}
}

func TestDriverLookupAliases(t *testing.T) {
	for alias, canonical := range map[string]string{
		"pushpull": "push-pull", "PUSH-PULL": "push-pull",
		"unified": "auto", " auto ": "auto",
	} {
		d, ok := Lookup(alias)
		if !ok || d.Name != canonical {
			t.Fatalf("Lookup(%q) = %v,%v, want driver %q", alias, d, ok, canonical)
		}
	}
	if _, ok := Lookup("bogus"); ok {
		t.Fatal("Lookup accepted an unregistered name")
	}
}

func TestDispatchUnknownDriver(t *testing.T) {
	if _, err := Dispatch("bogus", graphgen.Clique(4, 1), DriverOptions{}); err == nil {
		t.Fatal("expected error")
	}
}

// TestDispatchAllDriversComplete smoke-runs every registered driver with
// zero-value options on one topology: the registry contract is that the
// zero DriverOptions is valid everywhere.
func TestDispatchAllDriversComplete(t *testing.T) {
	g := graphgen.Grid(3, 3, 2)
	for _, name := range Names() {
		res, err := Dispatch(name, g, DriverOptions{Seed: 1, KnownLatencies: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: incomplete: %+v", name, res)
		}
		if res.Rounds <= 0 {
			t.Fatalf("%s: rounds = %d", name, res.Rounds)
		}
		if (res.Sim == nil) == (res.Broadcast == nil) && res.Winner == "" {
			t.Fatalf("%s: result carries neither Sim nor Broadcast detail", name)
		}
	}
}

// TestCrashBatchIsForeverChurn pins the single failure model across the
// whole registry: a crash batch and the same nodes churned out at the
// same round with no rejoin are one schedule spelled two ways, so every
// driver must report the identical result for both — for a crash at
// round 0, mid-run, and long after the run is over.
func TestCrashBatchIsForeverChurn(t *testing.T) {
	dead := []graph.NodeID{2, 5}
	for fname, g := range map[string]*graph.Graph{
		"grid":     graphgen.Grid(4, 4, 2),
		"dumbbell": graphgen.Dumbbell(5, 6),
	} {
		for _, name := range Names() {
			for _, round := range []int{0, 5, 1 << 14} {
				crash := &adversity.Spec{Crashes: []adversity.Crash{{Round: round, Nodes: dead}}}
				churn := &adversity.Spec{}
				for _, u := range dead {
					churn.Churn = append(churn.Churn, adversity.Churn{Node: u, Leave: round, Rejoin: adversity.Forever})
				}
				run := func(spec *adversity.Spec) DriverResult {
					res, err := Dispatch(name, g, DriverOptions{
						Seed: 7, KnownLatencies: true, MaxRounds: 1 << 15,
						ExecOptions: ExecOptions{Adversity: spec},
					})
					if err != nil {
						t.Fatalf("%s/%s crash@%d: %v", fname, name, round, err)
					}
					res.Sim = nil // per-run engine state; the reported fields are what must agree
					return res
				}
				if a, b := run(crash), run(churn); !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%s crash@%d: crash batch and forever-churn disagree:\n crash %+v\n churn %+v", fname, name, round, a, b)
				}
			}
		}
	}
}

// dispatchReport runs one driver on (g, csr) and returns what it reports,
// less the per-run engine state the reported fields are drawn from.
func dispatchReport(t *testing.T, name string, g *graph.Graph, csr *graph.CSR, spec *adversity.Spec) DriverResult {
	t.Helper()
	res, err := Dispatch(name, g, DriverOptions{
		Seed: 7, KnownLatencies: true, MaxRounds: 1 << 15,
		ExecOptions: ExecOptions{Adversity: spec, CSR: csr},
	})
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	res.Sim = nil
	return res
}

// TestPipelinesRunOnCSROnly pins that the pipeline drivers execute on the
// CSR alone: handed only g.CSR() they report, field for field, what they
// report for g — phases, spanner shape and winner included — with and
// without a fault schedule.
func TestPipelinesRunOnCSROnly(t *testing.T) {
	ring, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 6, Layers: 4, Latency: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for fname, g := range map[string]*graph.Graph{
		"grid":     graphgen.Grid(4, 4, 2),
		"dumbbell": graphgen.Dumbbell(5, 6),
		"ring":     ring,
	} {
		for _, name := range []string{"rr", "spanner", "pattern", "auto"} {
			for _, spec := range []*adversity.Spec{nil, adversity.MustParseSpec("loss=0.05;churn=1:4-30:amnesia;crash=6:2")} {
				if a, b := dispatchReport(t, name, g, nil, spec), dispatchReport(t, name, nil, g.CSR(), spec); !reflect.DeepEqual(a, b) {
					t.Errorf("%s/%s (faults %v): graph and CSR-only runs disagree:\n graph %+v\n csr   %+v", fname, name, spec != nil, a, b)
				}
			}
		}
	}
}

// TestDispatchGraphEqualsCSR: for every driver, handing Dispatch a graph
// is handing it that graph's CSR — the conversion at the entry point is
// the only thing the graph is used for.
func TestDispatchGraphEqualsCSR(t *testing.T) {
	g := graphgen.Dumbbell(8, 40)
	for _, name := range Names() {
		if a, b := dispatchReport(t, name, g, nil, nil), dispatchReport(t, name, nil, g.CSR(), nil); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: graph and CSR runs disagree:\n graph %+v\n csr   %+v", name, a, b)
		}
	}
}

// TestDispatchRunsOnOptsCSR is the one precedence rule, for every driver:
// when the options carry a CSR, the run is on it and a graph passed
// beside it changes nothing — here a dumbbell whose bridge is forty times
// faster, which would move every latency-derived timer and result.
func TestDispatchRunsOnOptsCSR(t *testing.T) {
	other, csr := graphgen.Dumbbell(8, 1), graphgen.Dumbbell(8, 40).CSR()
	for _, name := range Names() {
		if a, b := dispatchReport(t, name, other, csr, nil), dispatchReport(t, name, nil, csr, nil); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: a graph beside opts.CSR changed the run:\n with    %+v\n without %+v", name, a, b)
		}
	}
}

// TestMissingTopologyIsAnError: every way into a run answers a missing
// topology with an error, never a nil dereference.
func TestMissingTopologyIsAnError(t *testing.T) {
	entries := map[string]func() error{
		"sim.Run": func() error { _, err := sim.Run(sim.Config{}, nil, sim.StopNever()); return err },
		"PrepareDist": func() error {
			_, _, _, err := PrepareDist("push-pull", nil, DriverOptions{})
			return err
		},
		"DispatchLocalSharded": func() error {
			_, _, err := DispatchLocalSharded("push-pull", DriverOptions{}, 2)
			return err
		},
		"Fork":    func() error { _, err := Fork("push-pull", DriverOptions{}, 1); return err },
		"Unified": func() error { _, err := Unified(DriverOptions{}); return err },
		"RunNet":  func() error { _, err := RunNet(NetConfig{}); return err },
	}
	for _, name := range Names() {
		entries["Dispatch/"+name] = func() error { _, err := Dispatch(name, nil, DriverOptions{}); return err }
	}
	for entry, call := range entries {
		if err := call(); err == nil {
			t.Errorf("%s accepted a run without a topology", entry)
		}
	}
}

func TestSpannerDriverDefaultsLBTimeout(t *testing.T) {
	// FaultTolerant with LBTimeout 0 must pick a timeout above any round
	// trip (2·ℓmax + slack) rather than disabling abandonment.
	g := graphgen.Clique(8, 4)
	res, err := Dispatch("spanner", g, DriverOptions{
		KnownLatencies: true, Seed: 3, MaxRounds: 1 << 14,
		FaultTolerant: true, ExecOptions: crashes(2, 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("fault-tolerant spanner did not survive the crash: %+v", res)
	}
}

// TestDriverRequestKeys pins the machine-readable options schema every
// registered driver exposes: keys are drawn from the closed vocabulary,
// the universal execution keys are always present, and the per-driver
// sets match what the driver actually reads — the contract gossipd's
// request validation is built on.
func TestDriverRequestKeys(t *testing.T) {
	vocab := map[string]bool{}
	for _, k := range RequestKeyVocabulary() {
		vocab[k] = true
	}
	want := map[string][]string{
		"push-pull": {"fault_spec", "max_in_per_round", "max_rounds", "objective", "seed", "source", "sources", "variant", "workers"},
		"flood":     {"fault_spec", "max_rounds", "seed", "source", "variant", "workers"},
		"dtg":       {"ell", "fault_spec", "max_rounds", "seed", "workers"},
		"superstep": {"ell", "fault_spec", "lb_timeout", "max_rounds", "seed", "workers"},
		"rr":        {"budget", "fault_spec", "k", "max_rounds", "seed", "workers"},
		"spanner":   {"d", "fault_spec", "fault_tolerant", "known_latencies", "lb_timeout", "max_rounds", "seed", "skip_check", "workers"},
		"pattern":   {"d", "fault_spec", "max_rounds", "seed", "skip_check", "workers"},
		"auto":      {"d", "fault_spec", "known_latencies", "max_rounds", "seed", "source", "workers"},
		"election":  {"fault_spec", "max_rounds", "seed", "stable_rounds", "suspect_after", "workers"},
		"echo":      {"fault_spec", "max_rounds", "seed", "source", "workers"},
	}
	for _, name := range Names() {
		d, _ := Lookup(name)
		keys := d.RequestKeys()
		for _, k := range keys {
			if !vocab[k] {
				t.Errorf("%s: key %q outside RequestKeyVocabulary", name, k)
			}
			if !d.AcceptsKey(k) {
				t.Errorf("%s: AcceptsKey(%q) = false for a declared key", name, k)
			}
		}
		if d.AcceptsKey("nonsense") {
			t.Errorf("%s: AcceptsKey accepted an undeclared key", name)
		}
		w, ok := want[name]
		if !ok {
			t.Errorf("new driver %q: add its expected request keys to this test", name)
			continue
		}
		if len(keys) != len(w) {
			t.Errorf("%s: RequestKeys() = %v, want %v", name, keys, w)
			continue
		}
		for i := range w {
			if keys[i] != w[i] {
				t.Errorf("%s: RequestKeys() = %v, want %v", name, keys, w)
				break
			}
		}
	}
}

// TestRegisterRejectsUnknownKey pins that a typo'd option key is caught
// at registration time.
func TestRegisterRejectsUnknownKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Register accepted an option key outside the vocabulary")
		}
	}()
	Register(&Driver{
		Name:    "bad-key-driver",
		Options: []OptionDoc{{Name: "X", Doc: "x", Keys: []string{"not_a_key"}}},
	})
}

// TestScaleAllocBudget pins, to the allocation, the two scale runs of
// BenchmarkSimMillionNode at Workers: 1, on 2¹⁵ nodes: push-pull to full
// dissemination on the ring+matching expander, and the standalone dtg
// driver (a fresh slab, so every instance runs live) on the slow-bridge
// ring, two unit-latency cycles joined by a latency-n/4 bridge. One
// worker makes a run's allocations independent of the scheduler, and the
// collector is off while they are counted: each collection during a run
// adds one or two allocations of its own, so with it on the count moves
// by a few from run to run; under -race, whose instrumentation allocates
// too, the test is skipped. Each case runs twice (a warm-up and the
// counted run). On two vCPUs the test took 0.5–0.9 s and peaked near
// 100 MB at 2¹⁵ nodes, and 1.6–2.7 s and 190 MB at 2¹⁶, so 2¹⁵ is the
// largest power of two that stays under 2 s. The bounds are the counts
// the runs made when the test was added; a change that lowers one
// tightens it.
func TestScaleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates on its own")
	}
	const n = 1 << 15
	expander, err := graphgen.RingMatchingExpanderCSR(n, 1, graphgen.NewRand(7))
	if err != nil {
		t.Fatal(err)
	}
	bridge, err := graphgen.SlowBridgeRingCSR(n, n/4)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		driver string
		opts   DriverOptions
		bound  float64
	}{
		{"push-pull", DriverOptions{Seed: 1, MaxRounds: 1 << 12, ExecOptions: ExecOptions{CSR: expander, Workers: 1}}, 32811},
		{"dtg", DriverOptions{Seed: 1, ExecOptions: ExecOptions{CSR: bridge, Workers: 1}}, 295050},
	} {
		var res DriverResult
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(1, func() {
			res, err = Dispatch(c.driver, nil, c.opts)
		})
		debug.SetGCPercent(gc)
		runtime.GC()
		if err != nil || !res.Completed {
			t.Fatalf("%s: completed %v, err %v", c.driver, res.Completed, err)
		}
		t.Logf("%s: %.0f allocations (bound %.0f)", c.driver, allocs, c.bound)
		if allocs > c.bound {
			t.Errorf("%s on %d nodes made %.0f allocations, bound %.0f", c.driver, n, allocs, c.bound)
		}
	}
}
