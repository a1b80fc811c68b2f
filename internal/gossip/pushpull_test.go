package gossip

import (
	"math"
	"testing"

	"gossip/internal/conductance"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/stats"
)

// condExact is a test shorthand for exact conductance computation.
func condExact(g *graph.Graph) (conductance.Result, error) { return conductance.Exact(g.CSR()) }

func TestPushPullCompletesOnClique(t *testing.T) {
	g := graphgen.Clique(32, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 1, MaxRounds: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("push-pull incomplete on clique")
	}
	// Karp et al.: O(log n) rounds on the clique — generous constant.
	if res.Rounds > 10*int(math.Log2(32)) {
		t.Fatalf("clique push-pull took %d rounds", res.Rounds)
	}
	for u, at := range res.InformedAt {
		if at < 0 {
			t.Fatalf("node %d never informed", u)
		}
	}
}

func TestPushPullCompletesOnWeightedGraphs(t *testing.T) {
	rng := graphgen.NewRand(7)
	er, err := graphgen.ErdosRenyi(40, 0.2, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 10, rng)
	grid := graphgen.Grid(6, 6, 3)
	for name, g := range map[string]*graph.Graph{"er": er, "grid": grid} {
		res, err := Dispatch("push-pull", g, DriverOptions{Source: 3, Seed: 5, MaxRounds: 100000})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed {
			t.Fatalf("%s: push-pull incomplete", name)
		}
	}
}

func TestPushPullStarPullEffect(t *testing.T) {
	// Star: push-pull finishes in O(log n)-ish expected rounds per leaf
	// contact round... every leaf contacts the center every round, so 2
	// rounds suffice with unit latencies.
	g := graphgen.Star(50, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 9, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds > 3 {
		t.Fatalf("star push-pull: %+v", res)
	}
}

func TestPushPullDumbbellWaitsForBridge(t *testing.T) {
	bridge := 64
	g := graphgen.Dumbbell(8, bridge)
	res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 11, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Rounds < bridge {
		t.Fatalf("rounds %d below bridge latency %d", res.Rounds, bridge)
	}
}

func TestPushPullTheorem29Bound(t *testing.T) {
	// Measured rounds should sit below c·(ℓ*/φ*)·ln n for a modest c
	// across trials on structured graphs.
	g := graphgen.Dumbbell(10, 16)
	// Exact conductance is infeasible at n=20? MaxExactN=22, fine.
	resC, err := condExact(g)
	if err != nil {
		t.Fatal(err)
	}
	bound, err := PushPullBound(resC.PhiStar, resC.EllStar, g.N())
	if err != nil {
		t.Fatal(err)
	}
	var rounds []float64
	for seed := uint64(0); seed < 10; seed++ {
		res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: seed, MaxRounds: 1000000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		rounds = append(rounds, float64(res.Rounds))
	}
	if mean := stats.Mean(rounds); mean > 10*bound {
		t.Fatalf("mean rounds %v far above Theorem 29 bound %v", mean, bound)
	}
}

func TestPushPullBoundErrors(t *testing.T) {
	if _, err := PushPullBound(0, 1, 10); err == nil {
		t.Fatal("φ*=0 should error")
	}
}

func TestPushPullLocalBroadcast(t *testing.T) {
	g := graphgen.Clique(16, 1)
	res, err := Dispatch("push-pull", g, DriverOptions{Objective: LocalBroadcast, Seed: 3, MaxRounds: 10000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("local broadcast incomplete")
	}
}

func TestPushPullAllToAll(t *testing.T) {
	g := graphgen.Cycle(12, 2)
	res, err := Dispatch("push-pull", g, DriverOptions{Objective: AllToAll, Seed: 5, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("all-to-all incomplete")
	}
	// All-to-all on a cycle needs at least diameter time.
	if int64(res.Rounds) < g.CSR().WeightedDiameter() {
		t.Fatalf("rounds %d below diameter %d", res.Rounds, g.CSR().WeightedDiameter())
	}
}

func TestPushPullDeterministicBySeed(t *testing.T) {
	g := graphgen.Grid(5, 5, 2)
	a, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 42, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 42, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.Exchanges != b.Exchanges {
		t.Fatal("same seed, different outcome")
	}
	c, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 43, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds == c.Rounds && a.Exchanges == c.Exchanges {
		t.Log("different seeds coincided (possible but unusual)")
	}
}
