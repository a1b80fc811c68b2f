package gossip

import (
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// crashes is the execution surface that fail-stops nodes at round.
func crashes(round int, nodes ...graph.NodeID) ExecOptions {
	return ExecOptions{Adversity: &adversity.Spec{Crashes: []adversity.Crash{{Round: round, Nodes: nodes}}}}
}

func TestPushPullBlockingSlower(t *testing.T) {
	// On a slow-edged clique the blocking variant cannot pipeline, so it
	// should need at least as many rounds on average.
	g := graphgen.Clique(16, 8)
	sumNB, sumB := 0, 0
	for seed := uint64(0); seed < 5; seed++ {
		nb, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: seed, MaxRounds: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		bl, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Variant: VariantBlocking, Seed: seed, MaxRounds: 1 << 18})
		if err != nil {
			t.Fatal(err)
		}
		if !nb.Completed || !bl.Completed {
			t.Fatal("incomplete")
		}
		sumNB += nb.Rounds
		sumB += bl.Rounds
	}
	if sumB < sumNB {
		t.Fatalf("blocking (%d) beat non-blocking (%d) overall; expected the opposite", sumB, sumNB)
	}
}

func TestPushPullMultiSource(t *testing.T) {
	g := graphgen.Cycle(16, 2)
	single, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 3, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	multi, err := Dispatch("push-pull", g, DriverOptions{Sources: []graph.NodeID{0, 8}, Seed: 3, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !multi.Completed {
		t.Fatal("multi-source incomplete")
	}
	// Two antipodal sources should not be slower than one (they cover
	// half the ring each, though the all-sources criterion adds work).
	if multi.Rounds > 2*single.Rounds+4 {
		t.Fatalf("multi-source %d much slower than single %d", multi.Rounds, single.Rounds)
	}
}

func TestPushPullWithCrashesInformsSurvivors(t *testing.T) {
	g := graphgen.Clique(16, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{Seed: 7, MaxRounds: 1 << 18, ExecOptions: crashes(2, 5, 6)})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("survivors not informed")
	}
}

func TestPushPullBoundedInDegreeStar(t *testing.T) {
	// Cap 1 on a star serializes the center: Θ(n) rounds.
	n := 17
	g := graphgen.Star(n, 1)
	capped, err := Dispatch("push-pull", g, DriverOptions{Source: 0, MaxInPerRound: 1, Seed: 5, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	free, err := Dispatch("push-pull", g, DriverOptions{Source: 0, MaxInPerRound: 0, Seed: 5, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !capped.Completed || !free.Completed {
		t.Fatal("incomplete")
	}
	if capped.Rounds < (n-1)/2 {
		t.Fatalf("capped rounds = %d, expected Θ(n)", capped.Rounds)
	}
	if free.Rounds > 4 {
		t.Fatalf("uncapped rounds = %d on a star", free.Rounds)
	}
	if capped.Dropped == 0 {
		t.Fatal("no drops recorded under cap")
	}
}

func TestSpannerBroadcastWithMidRunCrashes(t *testing.T) {
	g := graphgen.Clique(16, 2)
	res, err := broadcastVia("spanner", g, DriverOptions{
		KnownLatencies: true, Seed: 3, MaxRounds: 4096, ExecOptions: crashes(5, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	// Survivors must end up complete on a redundant clique spanner, at
	// some round-count inflation versus the crash-free run.
	if !res.Completed {
		t.Fatalf("survivor dissemination incomplete: %+v", res)
	}
}

func TestRumorsFullAlive(t *testing.T) {
	g := graphgen.Clique(4, 1)
	_ = g
	res, err := Dispatch("dtg", graphgen.Clique(4, 1), DriverOptions{Ell: 1, Seed: 1, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	rumors := res.Sim.FinalRumors()
	if !rumorsFullAlive(rumors, nil) {
		t.Fatal("complete run not full")
	}
	// Mark node 3 dead: fullness over survivors must ignore it.
	rumors[3].Clear()
	dead3 := crashes(0, 3).Adversity
	if rumorsFullAlive(rumors, dead3) != true {
		t.Fatal("alive-fullness should ignore the crashed node")
	}
	rumors[0].Remove(1)
	if rumorsFullAlive(rumors, dead3) {
		t.Fatal("missing survivor rumor not detected")
	}
}

func TestSpreadCurveFromPushPull(t *testing.T) {
	g := graphgen.Clique(32, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 9, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	curve := res.Sim.SpreadCurve()
	if len(curve) != res.Rounds+1 {
		t.Fatalf("curve length %d for %d rounds", len(curve), res.Rounds)
	}
	if curve[0] < 1 || curve[len(curve)-1] != 32 {
		t.Fatalf("curve endpoints wrong: %v", curve)
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("curve not monotone")
		}
	}
	// Epidemic S-shape: the half-time is before the final round on a
	// clique (exponential growth phase then stragglers).
	if ht := res.Sim.HalfTime(); ht < 0 || ht > res.Rounds {
		t.Fatalf("HalfTime = %d", ht)
	}
}

// TestSuperstepAmnesiaRestartsProtocol pins the AmnesiaReseter wiring:
// a local-broadcast protocol's heard set and done flag reflect knowledge
// the engine's amnesia reset discards, so the protocol must restart with
// it. Node 2 hears peers before leaving, rejoins amnesic, and must end
// holding every neighbor's rumor again — with only its node-local
// restart (not stale heard entries) making that possible. Timeouts let
// the peers whose exchanges died with the down interval move on.
func TestSuperstepAmnesiaRestartsProtocol(t *testing.T) {
	g := graphgen.Clique(6, 1)
	res, err := Dispatch("superstep", g, DriverOptions{
		LBTimeout: 4,
		Seed:      3,
		MaxRounds: 1 << 12,
		ExecOptions: ExecOptions{
			Adversity: adversity.MustParseSpec("churn=2:4-12:amnesia"),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("superstep under amnesic churn incomplete: %+v", res)
	}
	// The amnesic node lost everything at round 12; quiescence after a
	// protocol restart means it re-gathered its full neighborhood.
	for v := 0; v < g.N(); v++ {
		if !res.Sim.World.Views[2].Knows(v) {
			t.Fatalf("amnesic node 2 completed without re-learning rumor %d (heard set survived the reset?)", v)
		}
	}
}

// TestAmnesiaRestartAcrossDrivers drives every single-phase driver
// through an amnesic churn schedule: the run must execute without
// error (each protocol's OnAmnesia restart included) and stay
// bit-identical between workers 1 and 8.
func TestAmnesiaRestartAcrossDrivers(t *testing.T) {
	g := graphgen.Clique(6, 1)
	spec := adversity.MustParseSpec("churn=1:2-8:amnesia")
	for _, driver := range []string{"push-pull", "flood", "dtg", "superstep", "rr"} {
		t.Run(driver, func(t *testing.T) {
			run := func(workers int) DriverResult {
				res, err := Dispatch(driver, g, DriverOptions{
					Source: 0, Seed: 5, MaxRounds: 1 << 12,
					ExecOptions: ExecOptions{Adversity: spec, Workers: workers},
				})
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			w1, w8 := run(1), run(8)
			if w1.Rounds != w8.Rounds || w1.Exchanges != w8.Exchanges ||
				w1.Dropped != w8.Dropped || w1.Delivered != w8.Delivered {
				t.Fatalf("workers diverge under amnesic churn:\n w1 %+v\n w8 %+v", w1, w8)
			}
		})
	}
}

// TestChurnedNodeMustBeInformedAfterRejoin pins the survivor-completion
// semantics: a broadcast under churn may not declare completion while a
// temporarily-down node is away — the node rejoins and must be informed
// first, exactly as the multi-phase pipelines' survivorsInformed judges
// the same spec. (A never-returning churn, by contrast, is exempt.)
func TestChurnedNodeMustBeInformedAfterRejoin(t *testing.T) {
	g := graphgen.Clique(12, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{
		Source: 0, Seed: 3, MaxRounds: 1 << 14,
		ExecOptions: ExecOptions{Adversity: adversity.MustParseSpec("churn=1:1-300")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %+v", res)
	}
	if res.Rounds < 300 {
		t.Fatalf("completed at round %d while node 1 was still churned out (rejoin at 300)", res.Rounds)
	}
	if res.InformedAt[1] < 300 {
		t.Fatalf("node 1 informed at %d, before its rejoin", res.InformedAt[1])
	}
	// A permanent leave is a survivor-set exemption: completion no
	// longer waits for the node.
	gone, err := Dispatch("push-pull", g, DriverOptions{
		Source: 0, Seed: 3, MaxRounds: 1 << 14,
		ExecOptions: ExecOptions{Adversity: adversity.MustParseSpec("churn=1:1-inf")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !gone.Completed || gone.Rounds >= 300 {
		t.Fatalf("permanent leave should not delay completion: %+v", gone)
	}
}
