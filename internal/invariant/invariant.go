// Package invariant is the cross-protocol invariant harness: it runs
// every registered gossip driver against every graph family in the
// suite under benign, lossy and churny network regimes, twice (serial
// and 8-way sharded), and checks the properties that must hold for
// every protocol regardless of its schedule:
//
//   - worker-count determinism: the workers=1 and workers=8 runs are
//     identical down to per-node informed times and final rumor counts;
//   - monotonic informed growth: in runs without amnesia, a node that
//     was ever informed still holds the watched rumor at the end;
//   - survivor-only completion: a completed broadcast has informed
//     every survivor, every node the schedule never removes for good;
//   - payload accounting: only delivered (non-dropped) exchanges carry
//     payload — benign runs drop nothing, Delivered+Dropped never
//     exceeds Exchanges, and zero deliveries means zero payload;
//   - warm-fork equivalence: capturing an engine snapshot halfway
//     through the run and resuming it reproduces the cold run
//     bit-identically, at workers 1 and 8 (single-phase drivers; the
//     pipelines fall back to a cold replay, which must also agree);
//   - distributed equivalence: partitioning the run over 2 and 3
//     shards of the distributed exchanger reproduces the serial run
//     bit-identically (distributable drivers).
//
// The harness is a library so both the test suite (TestInvariants) and
// `make determinism` exercise it; violations carry enough context to
// reproduce a failing cell with one Dispatch call.
package invariant

import (
	"errors"
	"fmt"
	"reflect"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

// Family is one topology of the suite.
type Family struct {
	Name string
	CSR  *graph.CSR
}

// Families returns the graph suite: clique, path, slow-bridge dumbbell,
// Erdős–Rényi and a ring+matching expander (≥ 4 families, per the
// harness contract).
func Families(seed uint64) ([]Family, error) {
	rng := graphgen.NewRand(seed)
	er, err := graphgen.ErdosRenyi(16, 0.3, 1, rng)
	if err != nil {
		return nil, err
	}
	graphgen.AssignRandomLatencies(er, 1, 6, rng)
	csr, err := graphgen.RingMatchingExpanderCSR(16, 1, graphgen.NewRand(seed+1))
	if err != nil {
		return nil, err
	}
	return []Family{
		{"clique12", graphgen.Clique(12, 2).CSR()},
		{"path10", graphgen.Path(10, 1).CSR()},
		{"dumbbell6", graphgen.Dumbbell(6, 20).CSR()},
		{"er16", er.CSR()},
		{"expander16", csr},
	}, nil
}

// Scenario is one network-adversity regime. Build derives the fault
// schedule from the topology (flaps must name real edges), nil meaning
// benign.
type Scenario struct {
	Name  string
	Build func(c *graph.CSR) *adversity.Spec
}

// Scenarios returns the benign/lossy/churny triple of the harness.
// Node ids in the churny schedule stay below the smallest family size;
// the flap rides the first edge of node 0, which every connected
// topology has.
func Scenarios() []Scenario {
	return []Scenario{
		{"benign", func(*graph.CSR) *adversity.Spec { return nil }},
		{"lossy", func(*graph.CSR) *adversity.Spec {
			return &adversity.Spec{Loss: 0.15}
		}},
		{"churny", func(c *graph.CSR) *adversity.Spec {
			flapPeer := int(c.NeighborIDs(0)[0])
			return &adversity.Spec{
				Churn: []adversity.Churn{
					{Node: 1, Leave: 4, Rejoin: 12, Amnesia: true},
					{Node: 2, Leave: 6, Rejoin: adversity.Forever},
				},
				Crashes: []adversity.Crash{{Round: 8, Nodes: []graph.NodeID{3}}},
				Flaps:   []adversity.Flap{{U: 0, V: flapPeer, From: 3, To: 9}},
			}
		}},
	}
}

// Violation is one broken invariant, with the coordinates to replay it.
type Violation struct {
	Driver, Family, Scenario string
	// Rule names the invariant: determinism, distributed, warm-fork,
	// monotonic-informed, survivor-completion, accounting, run-error.
	Rule   string
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s/%s: %s: %s", v.Driver, v.Family, v.Scenario, v.Rule, v.Detail)
}

// fingerprint is the observable outcome of one run, the unit of the
// worker-count determinism comparison. Everything a DriverResult
// exposes that is not a pointer into live engine state, plus the final
// per-node rumor counts when the single-phase world is available.
type fingerprint struct {
	Rounds      int
	Completed   bool
	Exchanges   int64
	Messages    int64
	Dropped     int64
	Delivered   int64
	Payload     int64
	Winner      string
	InformedAt  []int
	RumorCounts []int
}

func fingerprintOf(res gossip.DriverResult) fingerprint {
	fp := fingerprint{
		Rounds:     res.Rounds,
		Completed:  res.Completed,
		Exchanges:  res.Exchanges,
		Messages:   res.Messages,
		Dropped:    res.Dropped,
		Delivered:  res.Delivered,
		Payload:    res.RumorPayload,
		Winner:     res.Winner,
		InformedAt: res.InformedAt,
	}
	if res.Sim != nil && res.Sim.World != nil {
		fp.RumorCounts = make([]int, len(res.Sim.World.Views))
		for u, nv := range res.Sim.World.Views {
			fp.RumorCounts[u] = nv.RumorCount()
		}
	}
	return fp
}

// MaxRounds bounds every harness run: generous for the small suite
// graphs, and the horizon stalled lossy runs terminate against.
const MaxRounds = 1 << 12

// options is every harness run's configuration: source 0 on c under spec.
func options(c *graph.CSR, spec *adversity.Spec, seed uint64, workers int) gossip.DriverOptions {
	return gossip.DriverOptions{
		Source:      0,
		Seed:        seed,
		MaxRounds:   MaxRounds,
		ExecOptions: gossip.ExecOptions{Adversity: spec, Workers: workers, CSR: c},
	}
}

// Check runs one (driver, family, scenario) cell at workers 1 and 8 and
// returns every invariant violation.
func Check(driver string, fam Family, sc Scenario, seed uint64) []Violation {
	var out []Violation
	report := func(rule, format string, args ...any) {
		out = append(out, Violation{
			Driver: driver, Family: fam.Name, Scenario: sc.Name,
			Rule: rule, Detail: fmt.Sprintf(format, args...),
		})
	}
	spec := sc.Build(fam.CSR)
	run := func(workers int) (gossip.DriverResult, error) {
		return gossip.Dispatch(driver, nil, options(fam.CSR, spec, seed, workers))
	}
	r1, err := run(1)
	if err != nil {
		report("run-error", "workers=1: %v", err)
		return out
	}
	r8, err := run(8)
	if err != nil {
		report("run-error", "workers=8: %v", err)
		return out
	}

	// Worker-count determinism: the sharded run must match the serial
	// run in every observable, including per-node informed times and
	// final rumor counts.
	fp1, fp8 := fingerprintOf(r1), fingerprintOf(r8)
	if !reflect.DeepEqual(fp1, fp8) {
		report("determinism", "workers=1 %+v vs workers=8 %+v", fp1, fp8)
	}

	// Distributed equivalence: the same cell partitioned over the
	// in-process shard exchanger must reproduce the serial run exactly —
	// the bit-identical guarantee behind gossipd's multi-worker mode,
	// checked here at the engine level for every distributable driver.
	if gossip.Distributable(driver) {
		for _, shards := range []int{2, 3} {
			rd, _, err := gossip.DispatchLocalSharded(driver, options(fam.CSR, spec, seed, 1), shards)
			if err != nil {
				report("distributed", "shards=%d: %v", shards, err)
				continue
			}
			if fpd := fingerprintOf(rd); !reflect.DeepEqual(fp1, fpd) {
				report("distributed", "shards=%d: serial %+v vs distributed %+v", shards, fp1, fpd)
			}
		}
	}

	// Warm-fork equivalence: a snapshot at the halfway barrier, resumed
	// under the identical options, must replay the cold run exactly — at
	// both worker counts. Pipelines have no single engine to freeze
	// (ErrNoWarmStart); for them the rule degrades to cold-replay
	// determinism, which the same comparison covers.
	for _, workers := range []int{1, 8} {
		cold := fp1
		if workers == 8 {
			cold = fp8
		}
		warm, err := warmReplay(driver, options(fam.CSR, spec, seed, workers), r1.Rounds/2)
		if err != nil {
			report("warm-fork", "workers=%d: %v", workers, err)
			continue
		}
		if !reflect.DeepEqual(warm, cold) {
			report("warm-fork", "workers=%d: warm %+v vs cold %+v", workers, warm, cold)
		}
	}

	// Payload accounting: drops carry nothing.
	if r1.Delivered+r1.Dropped > r1.Exchanges {
		report("accounting", "delivered %d + dropped %d > exchanges %d", r1.Delivered, r1.Dropped, r1.Exchanges)
	}
	if spec.Empty() && r1.Dropped != 0 {
		report("accounting", "benign run dropped %d exchanges", r1.Dropped)
	}
	if r1.Delivered == 0 && r1.RumorPayload != 0 {
		report("accounting", "payload %d with zero delivered exchanges", r1.RumorPayload)
	}
	if r1.Sim != nil && r1.Messages != 2*r1.Exchanges {
		report("accounting", "messages %d != 2×exchanges %d (no in-degree cap configured)", r1.Messages, r1.Exchanges)
	}

	if r1.Sim == nil || r1.Sim.World == nil {
		return out // pipeline drivers: no single final world to inspect
	}
	w := r1.Sim.World

	// Monotonic informed growth: without amnesia, once a node held the
	// watched rumor (InformedAt >= 0) it must still hold it at the end.
	if r1.InformedAt != nil && !spec.HasAmnesia() {
		for u, at := range r1.InformedAt {
			if at >= 0 && !w.Views[u].Knows(0) {
				report("monotonic-informed", "node %d informed at round %d no longer holds rumor 0", u, at)
			}
		}
	}

	// Survivor-only completion: a completed broadcast has informed every
	// survivor — every node the schedule never permanently removes,
	// including nodes that were temporarily churned out (they rejoin and
	// must not be left behind; the rule StopAllSurvivorsInformed and the
	// pipelines judge completion by).
	if objectiveOf[driver] == objBroadcast && r1.Completed {
		for u := range w.Views {
			if !spec.NeverReturns(u) && !w.Views[u].Knows(0) {
				report("survivor-completion", "completed at round %d but surviving node %d is uninformed", r1.Rounds, u)
			}
		}
	}

	// Leader agreement safety: a completed election means every survivor
	// decided on the same leader, and that leader is itself a survivor —
	// the unique-leader invariant, judged through the LeaderReporter
	// facet over exactly the nodes StopLeaderStable quantifies.
	if objectiveOf[driver] == objLeader && r1.Completed {
		elected := -1
		for u := range w.Views {
			if spec.NeverReturns(u) {
				continue
			}
			lr, ok := w.Protos[u].(sim.LeaderReporter)
			if !ok {
				report("leader-agreement", "survivor %d has no LeaderReporter facet", u)
				continue
			}
			l, decided := lr.Leader()
			switch {
			case !decided:
				report("leader-agreement", "completed at round %d but survivor %d is undecided", r1.Rounds, u)
			case elected == -1:
				elected = l
			case l != elected:
				report("leader-agreement", "survivor %d decided on %d, others on %d", u, l, elected)
			}
		}
		if elected >= 0 && spec.NeverReturns(elected) {
			report("leader-agreement", "elected leader %d never returns under the schedule", elected)
		}
	}

	// Echo completion and no-phantom-ack: a completed wave means the
	// root heard every survivor, and — when no amnesia can wipe a node
	// after it acked — every ack the root holds is from a node that
	// heard the root's token (an exchange exporting a node's rumor
	// always imports the initiator's set, and only token-holders
	// initiate).
	if objectiveOf[driver] == objEcho {
		root := w.Views[0]
		if r1.Completed {
			for u := range w.Views {
				if !spec.NeverReturns(u) && !root.Knows(graph.NodeID(u)) {
					report("echo-completion", "completed at round %d but root lacks survivor %d's ack", r1.Rounds, u)
				}
			}
		}
		if !spec.HasAmnesia() {
			for u := 1; u < len(w.Views); u++ {
				if root.Knows(graph.NodeID(u)) && !w.Views[u].Knows(0) {
					report("echo-phantom-ack", "root holds node %d's ack but %d never heard the token", u, u)
				}
			}
		}
	}

	// Local-broadcast quiescence on a benign network really means local
	// broadcast: every node ends holding each graph neighbor's rumor.
	if objectiveOf[driver] == objLocal && spec.Empty() && r1.Completed {
		for u := range w.Views {
			for i := 0; i < w.Views[u].Degree(); i++ {
				if nb := w.Views[u].NeighborID(i); !w.Views[u].Knows(nb) {
					report("survivor-completion", "benign local broadcast completed but node %d misses neighbor %d's rumor", u, nb)
				}
			}
		}
	}
	return out
}

// warmReplay re-runs one harness cell through the warm-start path: fork
// the driver at atRound and resume with unchanged options. Drivers
// without snapshot support (the multi-phase pipelines) re-Dispatch cold
// instead — replay determinism is the strongest claim available there.
func warmReplay(driver string, opts gossip.DriverOptions, atRound int) (fingerprint, error) {
	w, err := gossip.Fork(driver, opts, atRound)
	if errors.Is(err, gossip.ErrNoWarmStart) {
		res, err := gossip.Dispatch(driver, nil, opts)
		if err != nil {
			return fingerprint{}, err
		}
		return fingerprintOf(res), nil
	}
	if err != nil {
		return fingerprint{}, err
	}
	res, err := w.Resume(opts)
	if err != nil {
		return fingerprint{}, err
	}
	return fingerprintOf(res), nil
}

// Completion objectives per driver: broadcast drivers finish when every
// survivor holds the source rumor; local drivers (DTG, Superstep)
// finish at local-broadcast quiescence — every node heard each of its
// G_ℓ neighbors. rr finishes on budget exhaustion and the pipelines
// (auto, spanner, pattern) expose no single final world, so only the
// universal invariants apply to them.
const (
	objBroadcast = "broadcast"
	objLocal     = "local"
	objLeader    = "leader"
	objEcho      = "echo"
)

var objectiveOf = map[string]string{
	"push-pull": objBroadcast,
	"flood":     objBroadcast,
	"dtg":       objLocal,
	"superstep": objLocal,
	"election":  objLeader,
	"echo":      objEcho,
}
