package gossip

import (
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

func TestFloodStarCostsNTimesD(t *testing.T) {
	// Footnote 3: without pull, a star with latency-D edges costs Ω(nD)
	// in the blocking regime; push-pull needs ~D.
	n, lat := 12, 8
	g := graphgen.Star(n, lat)
	flood, err := Dispatch("flood", g, DriverOptions{Source: 0, Seed: 1, MaxRounds: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if !flood.Completed {
		t.Fatal("flood incomplete")
	}
	if flood.Rounds < (n-1)*lat {
		t.Fatalf("blocking flood took %d rounds, expected >= %d", flood.Rounds, (n-1)*lat)
	}
	pp, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 1, MaxRounds: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if pp.Rounds*4 > flood.Rounds {
		t.Fatalf("push-pull (%d) not clearly faster than blocking flood (%d)", pp.Rounds, flood.Rounds)
	}
}

func TestFloodNonBlocking(t *testing.T) {
	g := graphgen.Star(12, 8)
	res, err := Dispatch("flood", g, DriverOptions{Source: 0, Variant: VariantNonBlocking, Seed: 2, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("non-blocking flood incomplete")
	}
	// Non-blocking pipelines: n-1 initiations + latency.
	if res.Rounds > 12+8+2 {
		t.Fatalf("non-blocking flood took %d rounds", res.Rounds)
	}
}

func TestFloodFromLeaf(t *testing.T) {
	g := graphgen.Star(8, 3)
	res, err := Dispatch("flood", g, DriverOptions{Source: 5, Seed: 3, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("flood from leaf incomplete")
	}
}

func TestRRBroadcastDeliversWithinLemma21Budget(t *testing.T) {
	// Build a spanner on a weighted grid and RR-broadcast on it: all
	// rumors must spread within k·Δout + k where k covers the spanner
	// diameter.
	g := graphgen.Grid(5, 5, 2)
	sp, err := spanner.Build(g, spanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	k := int(g.CSR().WeightedDiameter()) * (2*sp.K - 1)
	res, err := Dispatch("rr", g, DriverOptions{Spanner: sp, K: k, Seed: 4, MaxRounds: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	rumors := res.Sim.FinalRumors()
	for u := 0; u < g.N(); u++ {
		if !rumors[u].Full() {
			t.Fatalf("node %d missing rumors after RR budget", u)
		}
	}
}

func TestRRStopsEarlyWithStopFunc(t *testing.T) {
	g := graphgen.Clique(10, 1)
	sp, err := spanner.Build(g, spanner.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Dispatch("rr", g, DriverOptions{
		Spanner: sp, K: 100, Seed: 6, MaxRounds: 1 << 20,
		Stop: sim.StopAllHaveAll(),
	})
	if err != nil {
		t.Fatal(err)
	}
	budget := 100*sp.MaxOutDegree() + 100
	if res.Rounds >= budget {
		t.Fatalf("RR did not stop early: %d rounds", res.Rounds)
	}
}

func TestRRLatencyFilter(t *testing.T) {
	// Spanner containing the slow bridge, but K below bridge latency:
	// the bridge must not be used, so the far side stays uninformed.
	g := graphgen.Dumbbell(5, 50)
	sp, err := spanner.Build(g, spanner.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Dispatch("rr", g, DriverOptions{Spanner: sp, K: 10, Seed: 8, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	rumors := res.Sim.FinalRumors()
	if rumors[0].Contains(7) {
		t.Fatal("rumor crossed an edge above the K filter")
	}
}

// broadcastVia runs the "spanner" or "pattern" pipeline on g the way every
// caller outside the package does, through the registry, and returns the
// per-phase detail.
func broadcastVia(name string, g *graph.Graph, opts DriverOptions) (BroadcastResult, error) {
	res, err := Dispatch(name, g, opts)
	if err != nil {
		return BroadcastResult{}, err
	}
	return *res.Broadcast, nil
}

func TestSpannerBroadcastKnownD(t *testing.T) {
	g := graphgen.Grid(4, 4, 2)
	d := int(g.CSR().WeightedDiameter())
	res, err := broadcastVia("spanner", g, DriverOptions{D: d, KnownLatencies: true, Seed: 1, SkipCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("spanner broadcast incomplete: %+v", res)
	}
	if res.FinalGuess != d {
		t.Fatalf("final guess %d, want %d", res.FinalGuess, d)
	}
	if len(res.Phases) == 0 || res.Rounds <= 0 {
		t.Fatalf("phase accounting missing: %+v", res)
	}
}

func TestSpannerBroadcastUnknownD(t *testing.T) {
	g := graphgen.Grid(4, 4, 2)
	res, err := broadcastVia("spanner", g, DriverOptions{KnownLatencies: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("guess-and-double incomplete: %+v", res)
	}
	// The loop may stop below the true diameter when the termination
	// check already passes (Lemma 24 forbids only *incorrect* early
	// termination), and overshoots at most one doubling past D.
	d := int(g.CSR().WeightedDiameter())
	if res.FinalGuess >= 4*d {
		t.Fatalf("final guess %d too large for diameter %d", res.FinalGuess, d)
	}
	if res.FinalGuess < 1 {
		t.Fatalf("final guess %d", res.FinalGuess)
	}
}

func TestSpannerBroadcastUnknownLatencies(t *testing.T) {
	rng := graphgen.NewRand(3)
	g, err := graphgen.ErdosRenyi(20, 0.3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 6, rng)
	res, err := broadcastVia("spanner", g, DriverOptions{KnownLatencies: false, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("unknown-latency spanner broadcast incomplete: %+v", res)
	}
	// Must contain discovery phases.
	foundDiscover := false
	for _, p := range res.Phases {
		if len(p.Name) >= 8 && p.Name[:8] == "discover" {
			foundDiscover = true
		}
	}
	if !foundDiscover {
		t.Fatal("no discovery phase recorded")
	}
}

func TestSpannerBroadcastAvoidsSlowEdges(t *testing.T) {
	// Dumbbell where the direct bridge is slow but D is small... here D
	// includes the bridge; spanner broadcast must still complete.
	g := graphgen.Dumbbell(6, 9)
	res, err := broadcastVia("spanner", g, DriverOptions{KnownLatencies: true, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
}

func TestPatternSequence(t *testing.T) {
	seq, err := PatternSequence(8)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 1, 4, 1, 2, 1, 8, 1, 2, 1, 4, 1, 2, 1}
	if len(seq) != len(want) {
		t.Fatalf("T(8) = %v, want %v", seq, want)
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("T(8) = %v, want %v", seq, want)
		}
	}
	if _, err := PatternSequence(6); err == nil {
		t.Fatal("non power of two should error")
	}
	one, err := PatternSequence(1)
	if err != nil || len(one) != 1 || one[0] != 1 {
		t.Fatalf("T(1) = %v, %v", one, err)
	}
}

func TestPatternBroadcastKnownD(t *testing.T) {
	g := graphgen.Grid(3, 4, 2)
	d := int(g.CSR().WeightedDiameter())
	res, err := broadcastVia("pattern", g, DriverOptions{D: d, Seed: 5, SkipCheck: true})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("pattern broadcast incomplete: %+v", res)
	}
}

func TestPatternBroadcastUnknownD(t *testing.T) {
	g := graphgen.Cycle(10, 3)
	res, err := broadcastVia("pattern", g, DriverOptions{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("pattern guess-and-double incomplete: %+v", res)
	}
}

// TestPatternGivesUpAtGuessCap: with phases too short to ever finish
// (MaxRounds 3 on the 24-node latency-8 ring), guess-and-double stops at
// the spanner pipeline's bound — 256, the largest power of two ≤
// 2·n·ℓmax = 384 — and reports the run incomplete.
func TestPatternGivesUpAtGuessCap(t *testing.T) {
	res, err := broadcastVia("pattern", pipelineGraphs(t)["ring"], DriverOptions{Seed: 5, MaxRounds: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed || res.FinalGuess != 256 {
		t.Fatalf("completed=%v final guess %d, want an incomplete run at guess 256", res.Completed, res.FinalGuess)
	}
}

// Lemma 26: after T(k), nodes within weighted distance k have exchanged
// rumors. Check on a path with mixed latencies.
func TestPatternReachesDistanceK(t *testing.T) {
	g := graph.New(5)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 1)
	g.MustAddEdge(3, 4, 4)
	// T(4): nodes within distance 4 must know each other afterwards.
	var out BroadcastResult
	opts := DriverOptions{Seed: 7, ExecOptions: ExecOptions{CSR: g.CSR()}}
	p := newPipeline(opts, new(sim.Pipeline))
	if err := p.pattern(4, opts, &out, "t"); err != nil {
		t.Fatal(err)
	}
	rumors := sim.Result{World: p.world}.FinalRumors()
	for u := 0; u < g.N(); u++ {
		du := g.CSR().Distances(u)
		for v := 0; v < g.N(); v++ {
			if du[v] <= 4 && !rumors[u].Contains(v) {
				t.Fatalf("after T(4), node %d missing rumor of node %d at distance %d", u, v, du[v])
			}
		}
	}
}

func TestDiscovery(t *testing.T) {
	g := graphgen.Dumbbell(4, 20)
	res, err := runDiscovery(DriverOptions{Seed: 1, MaxRounds: g.CSR().MaxDegree() + 25, ExecOptions: ExecOptions{CSR: g.CSR()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != g.CSR().MaxDegree()+25 {
		t.Fatalf("discovery rounds = %d, want full budget %d", res.Rounds, g.CSR().MaxDegree()+25)
	}
}

func TestUnifiedPicksWinner(t *testing.T) {
	// Well-connected clique: push-pull should win (log n rounds vs the
	// spanner pipeline's polylog overhead).
	g := graphgen.Clique(24, 1)
	res, err := Unified(DriverOptions{Source: 0, KnownLatencies: true, Seed: 1, MaxRounds: 1 << 20, ExecOptions: ExecOptions{CSR: g.CSR()}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Winner != "push-pull" {
		t.Fatalf("winner = %s on a clique, want push-pull (pp=%d, sp=%d)",
			res.Winner, res.PushPull.Rounds, res.Spanner.Rounds)
	}
	if res.Rounds != res.PushPull.Rounds {
		t.Fatalf("rounds %d != winner rounds %d", res.Rounds, res.PushPull.Rounds)
	}
}

func TestUnifiedSpannerWinsOnBadConductance(t *testing.T) {
	// Long path: ℓ*/φ* is huge (φ ~ 1/n) while D log³n is comparable;
	// with a high-latency star attached... simplest: path of slow edges
	// has pushpull ~ D anyway. Use a graph where push-pull is slow:
	// dumbbell with huge bridge latency and large cliques — push-pull
	// rarely picks the bridge (probability 1/deg per round), while the
	// spanner algorithm uses it deterministically.
	g := graphgen.Dumbbell(16, 4)
	res, err := Unified(DriverOptions{Source: 0, KnownLatencies: true, Seed: 2, MaxRounds: 1 << 20, ExecOptions: ExecOptions{CSR: g.CSR()}})
	if err != nil {
		t.Fatal(err)
	}
	if !res.PushPull.Completed || !res.Spanner.Completed {
		t.Fatalf("arm incomplete: %+v", res)
	}
	// Not asserting the winner here (both are fast); assert agreement.
	if res.Rounds > res.PushPull.Rounds && res.Rounds > res.Spanner.Rounds {
		t.Fatal("unified rounds exceed both arms")
	}
}

func TestRumorsFullHelper(t *testing.T) {
	if rumorsFull(nil, 3) {
		t.Fatal("nil rumors reported full")
	}
}
