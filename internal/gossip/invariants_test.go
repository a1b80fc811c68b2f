package gossip

import (
	"testing"
	"testing/quick"

	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

// Pattern sequence invariants: T(k) has 2k-1 entries, the maximum is k,
// entries are the pattern of lowest-set-bit weights, and the total DTG
// weight Σℓ·log²n follows the Lemma 27 recurrence T(k) = 2T(k/2)+k·log²n,
// i.e. Σℓ over T(k) = k·(log2(k)/2 + 1).
func TestQuickPatternSequenceInvariants(t *testing.T) {
	f := func(raw uint8) bool {
		k := 1 << (raw % 8) // k ∈ {1..128}
		seq, err := PatternSequence(k)
		if err != nil {
			return false
		}
		if len(seq) != 2*k-1 {
			return false
		}
		sum, max := 0, 0
		for _, ell := range seq {
			if ell < 1 || ell > k || ell&(ell-1) != 0 {
				return false
			}
			sum += ell
			if ell > max {
				max = ell
			}
		}
		if max != k {
			return false
		}
		// Σℓ over T(k): S(1)=1; S(k) = 2S(k/2) + k → S(k) = k·(log2 k + 1).
		lg := 0
		for v := k; v > 1; v >>= 1 {
			lg++
		}
		want := k * (lg + 1)
		return sum == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Any completed dissemination must satisfy: every informed time is at
// least the weighted distance from the source (information cannot travel
// faster than the latencies allow).
func TestInformationSpeedLimit(t *testing.T) {
	rng := graphgen.NewRand(33)
	g, err := graphgen.ErdosRenyi(20, 0.3, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 9, rng)
	res, err := Dispatch("push-pull", g, DriverOptions{Source: 0, Seed: 5, MaxRounds: 1 << 18})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	dist := g.CSR().Distances(0)
	for u, at := range res.InformedAt {
		if at < 0 {
			t.Fatalf("node %d never informed", u)
		}
		if int64(at) < dist[u] {
			t.Fatalf("node %d informed at %d, below weighted distance %d", u, at, dist[u])
		}
	}
}

// The same speed limit holds for every composed algorithm via the sim's
// snapshot semantics; spot-check the spanner pipeline on a weighted path.
func TestPipelineSpeedLimit(t *testing.T) {
	g := graphgen.Path(10, 7)
	res, err := broadcastVia("spanner", g, DriverOptions{
		D: int(g.CSR().WeightedDiameter()), KnownLatencies: true, Seed: 3, SkipCheck: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("incomplete")
	}
	// All-to-all across a path of weighted diameter 63 cannot beat D.
	if int64(res.Rounds) < g.CSR().WeightedDiameter() {
		t.Fatalf("completed in %d rounds, below diameter %d", res.Rounds, g.CSR().WeightedDiameter())
	}
}

// Unified equals the min of its arms by construction; verify on several
// seeds (quick property).
func TestQuickUnifiedIsMin(t *testing.T) {
	g := graphgen.Clique(12, 2)
	f := func(seed uint16) bool {
		res, err := Unified(DriverOptions{
			Source: 0, KnownLatencies: true, Seed: uint64(seed), MaxRounds: 1 << 18,
			ExecOptions: ExecOptions{CSR: g.CSR()},
		})
		if err != nil {
			return false
		}
		min := res.PushPull.Rounds
		if res.Spanner.Rounds < min {
			min = res.Spanner.Rounds
		}
		return res.Rounds == min
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// RR with an empty spanner (no out-edges) must terminate immediately
// rather than loop.
func TestRRNoOutEdges(t *testing.T) {
	r := newRR(nil, 100)
	if _, ok := r.Activate(0); ok {
		t.Fatal("activation with no out-edges")
	}
	if !r.Done() {
		t.Fatal("not done with no out-edges")
	}
}

// Discovery must reveal exactly the latencies of edges whose round trip
// fits in the budget.
func TestDiscoveryBudgetSemantics(t *testing.T) {
	g := graphgen.Dumbbell(4, 50)
	budget := g.CSR().MaxDegree() + 10 // bridge (50) cannot respond in time
	res, err := runDiscovery(DriverOptions{Seed: 1, MaxRounds: budget, ExecOptions: ExecOptions{CSR: g.CSR()}})
	if err != nil {
		t.Fatal(err)
	}
	views := res.Sim.World.Views
	// Bridge endpoints: the latency-50 edge must still be unknown.
	idx := views[0].NeighborIndex(4)
	if idx >= 0 {
		if _, known := views[0].Latency(idx); known {
			t.Fatal("slow edge discovered inside too-small budget")
		}
	}
	// Clique edges (latency 1) must be known.
	cIdx := views[0].NeighborIndex(1)
	if l, known := views[0].Latency(cIdx); !known || l != 1 {
		t.Fatalf("fast edge not discovered: %d,%v", l, known)
	}
}

// DTG must also work when some nodes have no eligible neighbors at all.
func TestDTGIsolatedUnderFilter(t *testing.T) {
	g := graphgen.Star(6, 10) // all edges latency 10
	res, err := Dispatch("dtg", g, DriverOptions{Ell: 1, Seed: 1, MaxRounds: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Nobody has a G_1 neighbor: everyone done at round 0.
	if !res.Completed || res.Rounds != 0 {
		t.Fatalf("expected trivial completion, got %+v", res)
	}
}

// Protocol interface compliance (the Uber guide's interface checks, here
// verified once at test time for the concrete sim wiring).
func TestProtocolCompliance(t *testing.T) {
	var _ sim.Protocol = (*PushPull)(nil)
	var _ sim.Protocol = (*Flood)(nil)
	var _ sim.Protocol = (*DTG)(nil)
	var _ sim.Protocol = (*RR)(nil)
	var _ sim.Protocol = (*Discover)(nil)
	var _ sim.Protocol = (*Superstep)(nil)
	var _ sim.MetaProducer = (*DTG)(nil)
	var _ sim.MetaProducer = (*Superstep)(nil)
	var _ sim.DoneReporter = (*RR)(nil)
	var _ sim.Waiter = (*Superstep)(nil)
}
