package gossip

import (
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

// electionLeaders extracts every node's (leader, decided) report from a
// finished run's protocol instances.
func electionLeaders(t *testing.T, res DriverResult) []int {
	t.Helper()
	if res.Sim == nil {
		t.Fatal("election result carries no Sim detail")
	}
	out := make([]int, len(res.Sim.World.Protos))
	for u, p := range res.Sim.World.Protos {
		lr, ok := p.(sim.LeaderReporter)
		if !ok {
			t.Fatalf("node %d protocol has no LeaderReporter facet", u)
		}
		l, decided := lr.Leader()
		if !decided {
			l = -1
		}
		out[u] = l
	}
	return out
}

func TestElectionBenignElectsMaxID(t *testing.T) {
	g := graphgen.Dumbbell(6, 8)
	res, err := Dispatch("election", g, DriverOptions{Seed: 7, MaxRounds: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("election did not stabilize: %+v", res)
	}
	want := g.N() - 1
	for u, l := range electionLeaders(t, res) {
		if l != want {
			t.Fatalf("node %d decided on leader %d, want %d", u, l, want)
		}
	}
}

// TestElectionReelectsAfterLeaderCrash is the re-election contract: the
// highest ID crashes mid-run, its stale candidacy must time out
// everywhere, and the surviving maximum must win the second wave.
func TestElectionReelectsAfterLeaderCrash(t *testing.T) {
	g := graphgen.Clique(10, 1)
	// Round 30 is beyond first convergence start, before settling.
	res, err := Dispatch("election", g, DriverOptions{Seed: 3, MaxRounds: 1 << 13, ExecOptions: crashes(30, g.N()-1)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("election did not re-stabilize after leader crash: %+v", res)
	}
	want := g.N() - 2
	for u, l := range electionLeaders(t, res) {
		if u == g.N()-1 {
			continue // the crashed ex-leader's state is frozen, not judged
		}
		if l != want {
			t.Fatalf("node %d decided on leader %d, want %d", u, l, want)
		}
	}
}

// TestElectionSurvivesChurnOfLeader churns the max-ID node out with
// amnesia: survivors must re-elect while it is away, and after it
// rejoins (with wiped state) everyone — the rejoiner included — must
// re-converge on it.
func TestElectionSurvivesChurnOfLeader(t *testing.T) {
	g := graphgen.Clique(8, 1)
	spec := &adversity.Spec{Churn: []adversity.Churn{
		{Node: g.N() - 1, Leave: 10, Rejoin: 200, Amnesia: true},
	}}
	res, err := Dispatch("election", g, DriverOptions{
		Seed: 5, MaxRounds: 1 << 13,
		ExecOptions: ExecOptions{Adversity: spec},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("election did not stabilize across churn: %+v", res)
	}
	want := g.N() - 1
	for u, l := range electionLeaders(t, res) {
		if l != want {
			t.Fatalf("node %d decided on leader %d, want %d", u, l, want)
		}
	}
}

func TestElectionTimerOverrides(t *testing.T) {
	g := graphgen.Clique(6, 1)
	base, err := Dispatch("election", g, DriverOptions{Seed: 2, MaxRounds: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	quick, err := Dispatch("election", g, DriverOptions{
		Seed: 2, MaxRounds: 1 << 13, SuspectAfter: 40, StableRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !quick.Completed || quick.Rounds >= base.Rounds {
		t.Fatalf("StableRounds=4 run (%d rounds, completed=%v) not faster than default (%d rounds)",
			quick.Rounds, quick.Completed, base.Rounds)
	}
}

func TestEchoCompletesAndRootHearsAll(t *testing.T) {
	g := graphgen.Dumbbell(6, 8)
	res, err := Dispatch("echo", g, DriverOptions{Source: 3, Seed: 9, MaxRounds: 1 << 13})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("echo wave incomplete: %+v", res)
	}
	root := res.Sim.World.Views[3]
	for u := 0; u < g.N(); u++ {
		if !root.Knows(graph.NodeID(u)) {
			t.Fatalf("root missing ack of node %d", u)
		}
	}
}

// TestEchoCompletesOverSurvivorsUnderCrash crashes one non-root node at
// round 0: the wave must still complete, judged over survivors only.
func TestEchoCompletesOverSurvivorsUnderCrash(t *testing.T) {
	g := graphgen.Clique(8, 1)
	res, err := Dispatch("echo", g, DriverOptions{Seed: 4, MaxRounds: 1 << 13, ExecOptions: crashes(0, 5)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("echo wave incomplete under crash: %+v", res)
	}
	root := res.Sim.World.Views[0]
	for u := 0; u < g.N(); u++ {
		if u != 5 && !root.Knows(graph.NodeID(u)) {
			t.Fatalf("root missing ack of survivor %d", u)
		}
	}
}

// TestCoordinationWorkerInvariance pins the tentpole determinism
// contract at the driver level: serial, 8-worker and sharded runs of
// both coordination drivers are the same run bit for bit, benign and
// under a fault schedule.
func TestCoordinationWorkerInvariance(t *testing.T) {
	g := graphgen.Dumbbell(8, 6)
	spec, err := adversity.ParseSpec("loss=0.05;churn=1:6-40:amnesia")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"election", "echo"} {
		for _, adv := range []*adversity.Spec{nil, spec} {
			opts := DriverOptions{Source: 2, Seed: 21, MaxRounds: 1 << 13}
			opts.Adversity = adv
			serial, err := Dispatch(name, g, opts)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			par := opts
			par.Workers = 8
			parallel, err := Dispatch(name, g, par)
			if err != nil {
				t.Fatalf("%s workers=8: %v", name, err)
			}
			if serial.Rounds != parallel.Rounds || serial.Completed != parallel.Completed ||
				serial.Exchanges != parallel.Exchanges || serial.Delivered != parallel.Delivered ||
				serial.Dropped != parallel.Dropped {
				t.Fatalf("%s adv=%v: workers=8 diverges: %+v vs %+v", name, adv != nil, parallel, serial)
			}
			sharded, _, err := DispatchLocalSharded(name, onCSR(g, opts), 3)
			if err != nil {
				t.Fatalf("%s sharded: %v", name, err)
			}
			if serial.Rounds != sharded.Rounds || serial.Completed != sharded.Completed ||
				serial.Exchanges != sharded.Exchanges || serial.Delivered != sharded.Delivered ||
				serial.Dropped != sharded.Dropped {
				t.Fatalf("%s adv=%v: sharded diverges: %+v vs %+v", name, adv != nil, sharded, serial)
			}
		}
	}
}

// TestStopLeaderStableNoFacet pins that leader-quantified stops treat
// protocols without the LeaderReporter facet as undecided forever: a
// push-pull run under StopLeaderStable must hit the horizon.
func TestStopLeaderStableNoFacet(t *testing.T) {
	g := graphgen.Clique(4, 1)
	d, ok := Lookup("push-pull")
	if !ok {
		t.Fatal("push-pull not registered")
	}
	cfg, factory, _, err := d.Prepare(DriverOptions{Seed: 1, MaxRounds: 64, ExecOptions: ExecOptions{CSR: g.CSR()}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, factory, sim.StopLeaderStable(nil))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("StopLeaderStable completed without any LeaderReporter facet")
	}
}
