package gossip

import (
	"testing"

	"gossip/internal/graphgen"
)

func TestSuperstepSolvesLocalBroadcast(t *testing.T) {
	for _, tc := range []struct {
		name string
		ell  int
	}{
		{"clique", 1},
		{"weighted", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := graphgen.Clique(16, tc.ell)
			res, err := Dispatch("superstep", g, DriverOptions{Ell: tc.ell, Seed: 1, MaxRounds: 1 << 18})
			if err != nil {
				t.Fatal(err)
			}
			if !res.Completed {
				t.Fatal("incomplete")
			}
			rumors := res.Sim.FinalRumors()
			c := g.CSR()
			for u := 0; u < c.N(); u++ {
				for i, v := range c.NeighborIDs(u) {
					if int(c.Latencies(u)[i]) <= tc.ell && !rumors[u].Contains(int(v)) {
						t.Fatalf("node %d missing neighbor %d", u, v)
					}
				}
			}
		})
	}
}

func TestSuperstepRespectsFilter(t *testing.T) {
	g := graphgen.Dumbbell(6, 100)
	res, err := Dispatch("superstep", g, DriverOptions{Ell: 1, Seed: 2, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	if res.Rounds >= 100 {
		t.Fatalf("used the slow bridge: %d rounds", res.Rounds)
	}
}

func TestSuperstepStallsOnCrashWithoutTimeout(t *testing.T) {
	g := graphgen.Clique(8, 2)
	res, err := Dispatch("superstep", g, DriverOptions{Ell: 2, Seed: 3, MaxRounds: 2000, ExecOptions: crashes(1, 1)})
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 dies at round 1; without a timeout, any survivor whose
	// in-flight exchange with node 1 was dropped stalls forever, so the
	// phase cannot reach all-done.
	if res.Completed {
		t.Fatal("expected a stalled (incomplete) phase without timeout")
	}
}

func TestSuperstepTimeoutRecovers(t *testing.T) {
	g := graphgen.Clique(8, 2)
	res, err := Dispatch("superstep", g, DriverOptions{
		Ell: 2, LBTimeout: 6, Seed: 3, MaxRounds: 2000, ExecOptions: crashes(1, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("timeout variant did not recover from the crash")
	}
	// Survivors must have completed local broadcast among themselves.
	rumors := res.Sim.FinalRumors()
	for u := 0; u < g.N(); u++ {
		if u == 1 {
			continue
		}
		for _, v := range g.NeighborIDs(u) {
			if v == 1 {
				continue
			}
			if !rumors[u].Contains(v) {
				t.Fatalf("survivor %d missing survivor %d", u, v)
			}
		}
	}
}

func TestSuperstepComparableToDTG(t *testing.T) {
	// Both primitives solve the same problem; neither should be more
	// than ~10x the other on a clique.
	g := graphgen.Clique(32, 4)
	dtg, err := Dispatch("dtg", g, DriverOptions{Ell: 4, Seed: 5, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	ss, err := Dispatch("superstep", g, DriverOptions{Ell: 4, Seed: 5, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !dtg.Completed || !ss.Completed {
		t.Fatal("incomplete")
	}
	if ss.Rounds > 10*dtg.Rounds+20 || dtg.Rounds > 10*ss.Rounds+20 {
		t.Fatalf("primitives diverge: dtg=%d superstep=%d", dtg.Rounds, ss.Rounds)
	}
}

func TestSpannerBroadcastWithSuperstep(t *testing.T) {
	g := graphgen.Grid(4, 4, 2)
	res, err := broadcastVia("spanner", g, DriverOptions{
		KnownLatencies: true, Seed: 7, FaultTolerant: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("superstep pipeline incomplete: %+v", res)
	}
	foundSS := false
	for _, p := range res.Phases {
		if len(p.Name) >= 9 && p.Name[:9] == "superstep" {
			foundSS = true
		}
	}
	if !foundSS {
		t.Fatal("no superstep phase recorded")
	}
}

func TestSpannerBroadcastTimeoutSurvivesCrashes(t *testing.T) {
	g := graphgen.Clique(16, 2)
	res, err := broadcastVia("spanner", g, DriverOptions{
		KnownLatencies: true, Seed: 9, FaultTolerant: true, LBTimeout: 8,
		MaxRounds: 4096, ExecOptions: crashes(5, 1, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("fault-tolerant pipeline incomplete: %+v", res)
	}
}
