package gossip

import (
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// verifyLocalBroadcast checks every node ended up with the rumor of each
// G_ℓ neighbor.
func verifyLocalBroadcast(t *testing.T, g *graph.Graph, res DriverResult, ell int) {
	t.Helper()
	rumors := res.Sim.FinalRumors()
	c := g.CSR()
	for u := 0; u < c.N(); u++ {
		for i, v := range c.NeighborIDs(u) {
			if ell > 0 && int(c.Latencies(u)[i]) > ell {
				continue
			}
			if !rumors[u].Contains(int(v)) {
				t.Fatalf("node %d missing rumor of %d-neighbor %d", u, ell, v)
			}
		}
	}
}

func TestDTGSolvesLocalBroadcastClique(t *testing.T) {
	g := graphgen.Clique(16, 1)
	res, err := Dispatch("dtg", g, DriverOptions{Ell: 1, Seed: 1, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("DTG incomplete")
	}
	verifyLocalBroadcast(t, g, res, 1)
	// Haeupler: O(log² n) rounds; generous constant.
	logn := math.Log2(16)
	if float64(res.Rounds) > 30*logn*logn {
		t.Fatalf("DTG on K16 took %d rounds", res.Rounds)
	}
}

func TestDTGSolvesLocalBroadcastStar(t *testing.T) {
	// Star is the hard case for local broadcast: the center must hear
	// from all n-1 leaves, but DTG pipelines this in O(log² n)... no:
	// a star center has n-1 neighbors and must exchange with each (its
	// i-trees are vertex disjoint), still the schedule completes.
	g := graphgen.Star(16, 1)
	res, err := Dispatch("dtg", g, DriverOptions{Ell: 1, Seed: 2, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("DTG incomplete on star")
	}
	verifyLocalBroadcast(t, g, res, 1)
}

func TestDTGRespectsLatencyFilter(t *testing.T) {
	// Dumbbell with slow bridge: 1-DTG must complete local broadcast
	// within each clique and never wait on the bridge.
	g := graphgen.Dumbbell(6, 100)
	res, err := Dispatch("dtg", g, DriverOptions{Ell: 1, Seed: 3, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("1-DTG incomplete")
	}
	verifyLocalBroadcast(t, g, res, 1)
	if res.Rounds >= 100 {
		t.Fatalf("1-DTG used the slow bridge: %d rounds", res.Rounds)
	}
	// Node 0 must not have node 6..11's rumors... except via its clique?
	// The bridge endpoints only exchange across the bridge, which is
	// filtered, so side A cannot know side B.
	rumors := res.Sim.FinalRumors()
	if rumors[1].Contains(7) {
		t.Fatal("rumor crossed the filtered bridge")
	}
}

func TestDTGCostScalesWithEll(t *testing.T) {
	// ℓ-DTG on a uniform-latency clique: cost should scale roughly
	// linearly with the edge latency (every wait is ℓ).
	rounds := func(lat int) int {
		g := graphgen.Clique(8, lat)
		res, err := Dispatch("dtg", g, DriverOptions{Ell: lat, Seed: 4, MaxRounds: 1000000})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed {
			t.Fatal("incomplete")
		}
		return res.Rounds
	}
	r1, r8 := rounds(1), rounds(8)
	ratio := float64(r8) / float64(r1)
	if ratio < 4 || ratio > 16 {
		t.Fatalf("8x latency gave %vx rounds (r1=%d r8=%d); want ~8x", ratio, r1, r8)
	}
}

func TestDTGWeightedGraph(t *testing.T) {
	rng := graphgen.NewRand(5)
	g, err := graphgen.ErdosRenyi(24, 0.3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 8, rng)
	res, err := Dispatch("dtg", g, DriverOptions{Ell: 8, Seed: 6, MaxRounds: 1000000})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	verifyLocalBroadcast(t, g, res, 8)
}

func TestDTGPathPipelining(t *testing.T) {
	// On a path, each internal node has 2 neighbors; DTG completes in
	// O(log² n) rounds, independent of path length.
	short := graphgen.Path(8, 1)
	long := graphgen.Path(64, 1)
	rs, err := Dispatch("dtg", short, DriverOptions{Ell: 1, Seed: 9, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	rl, err := Dispatch("dtg", long, DriverOptions{Ell: 1, Seed: 9, MaxRounds: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if !rs.Completed || !rl.Completed {
		t.Fatal("incomplete")
	}
	// Local broadcast on a path is constant-ish work per node: an 8x
	// longer path must not cost 8x the rounds.
	if rl.Rounds > 4*rs.Rounds+8 {
		t.Fatalf("path DTG not local: %d vs %d rounds", rl.Rounds, rs.Rounds)
	}
}
