package sim

import (
	"reflect"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// randProtocol contacts a uniformly random neighbor every round — the
// minimal spreading protocol for engine tests (push-pull without the
// driver layer).
type randProtocol struct{ nv *NodeView }

func (p *randProtocol) Activate(int) (int, bool) {
	if p.nv.Degree() == 0 {
		return 0, false
	}
	return p.nv.RNG().IntN(p.nv.Degree()), true
}
func (p *randProtocol) OnDeliver(Delivery) {}

// TestStopSurvivorsInformedUnderChurn is the stop-condition agreement
// gate, and the one gate on the engine's informed tally under amnesia:
// for schedules that take nodes down and bring them back (with and
// without amnesia), the O(n/64) word-level path of
// StopAllSurvivorsInformed (survivors ⊆ informed over the
// engine-maintained tally) must agree with a per-node scan over the
// nodes the schedule never removes for good at every single stop check,
// and the run must be identical at workers 1 and 8.
func TestStopSurvivorsInformedUnderChurn(t *testing.T) {
	cases := []struct {
		name string
		spec *adversity.Spec
	}{
		{"retention", adversity.MustParseSpec("churn=3:2-9;churn=5:4-12")},
		{"amnesia", adversity.MustParseSpec("churn=3:2-9:amnesia;churn=1:5-11:amnesia")},
		// The permanent removals (6 and its cycle neighbor 5) stay
		// adjacent so no survivor is disconnected.
		{"mixed", adversity.MustParseSpec("churn=2:3-10:amnesia;churn=6:1-inf;crash=7:5")},
		{"source-amnesia", adversity.MustParseSpec("churn=0:3-8:amnesia")},
		{"flap-and-churn", adversity.MustParseSpec("flap=0-1:2-6;churn=7:4-13")},
	}
	g := graphgen.Cycle(10, 1)
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var results []Result
			for _, workers := range []int{1, 8} {
				checks := 0
				fast := StopAllSurvivorsInformed(0, tc.spec)
				stop := func(w *World) bool {
					checks++
					got := fast(w)
					// The per-node slow path: every survivor holds
					// rumor 0, probing each rumor set directly.
					want := true
					for u, nv := range w.Views {
						if !tc.spec.NeverReturns(u) && !nv.rum.Contains(0) {
							want = false
							break
						}
					}
					if got != want {
						t.Fatalf("workers=%d round %d: tally path %v, per-node scan %v", workers, w.Round, got, want)
					}
					return got
				}
				res, err := Run(Config{
					CSR: g.CSR(), Seed: 9, Mode: OneToAll, Source: 0,
					MaxRounds: 1 << 12, Adversity: tc.spec, Workers: workers,
				}, func(nv *NodeView) Protocol { return &randProtocol{nv} }, stop)
				if err != nil {
					t.Fatal(err)
				}
				if checks == 0 {
					t.Fatal("stop condition never evaluated")
				}
				res.World = nil // compare the value parts only
				results = append(results, res)
			}
			if !reflect.DeepEqual(results[0], results[1]) {
				t.Fatalf("workers diverge:\n w1 %+v\n w8 %+v", results[0], results[1])
			}
			if !results[0].Completed {
				t.Fatalf("churny broadcast did not complete: %+v", results[0])
			}
		})
	}
}

// TestAmnesiaResetsState pins the amnesia semantics: a node that
// rejoins with amnesia restarts from its initial assignment, its
// informed mark is rewound, and it can be re-informed afterwards.
func TestAmnesiaResetsState(t *testing.T) {
	// Path 0-1-2. Node 1 (degree-1 neighbor of the source) is
	// deterministically informed at round 1, then leaves at round 2 and
	// rejoins amnesic at 20 — forgetting rumor 0. Node 2 can only learn
	// the rumor through node 1, so completion proves re-dissemination.
	g := pathGraph(1, 1)
	spec := adversity.MustParseSpec("churn=1:2-20:amnesia")
	res, err := Run(Config{
		CSR: g.CSR(), Seed: 5, Mode: OneToAll, Source: 0,
		MaxRounds: 1 << 10, Adversity: spec,
	}, func(nv *NodeView) Protocol { return &randProtocol{nv} }, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("incomplete: %+v", res)
	}
	// The amnesia reset rewound node 1's informed mark: its recorded
	// informed time must be after the rejoin, not the pre-leave round 1.
	if res.InformedAt[1] < 20 {
		t.Fatalf("node 1 informed at %d, before its amnesic rejoin at 20", res.InformedAt[1])
	}
	if res.InformedAt[2] <= res.InformedAt[1] {
		t.Fatalf("node 2 informed at %d, not after node 1's re-inform at %d", res.InformedAt[2], res.InformedAt[1])
	}
	if !res.World.Views[1].Knows(0) || !res.World.Views[2].Knows(0) {
		t.Fatal("nodes not informed at the end")
	}
}

// TestAmnesiaKeepsOwnRumor: in all-to-all mode an amnesic rejoin
// restarts from the initial assignment, which includes the node's own
// rumor — state is lost, identity is not.
func TestAmnesiaKeepsOwnRumor(t *testing.T) {
	g := graphgen.Clique(4, 1)
	spec := adversity.MustParseSpec("churn=1:2-30:amnesia")
	res, err := Run(Config{
		CSR: g.CSR(), Seed: 5, Mode: AllToAll,
		MaxRounds: 1 << 10, Adversity: spec,
	}, func(nv *NodeView) Protocol { return &randProtocol{nv} }, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("all-to-all under amnesic churn incomplete: %+v", res)
	}
}

// TestLossDropsAreAccounted checks the loss bookkeeping at the engine
// level: on a two-node graph with total loss on the only edge, every
// exchange is dropped, nothing is delivered, and no rumor ever crosses.
func TestLossDropsAreAccounted(t *testing.T) {
	g := graph.New(2)
	g.MustAddEdge(0, 1, 1)
	spec := &adversity.Spec{EdgeLoss: []adversity.EdgeLoss{{U: 0, V: 1, P: 1}}}
	res, err := Run(Config{
		CSR: g.CSR(), Seed: 1, Mode: OneToAll, Source: 0,
		MaxRounds: 64, Adversity: spec,
	}, func(nv *NodeView) Protocol { return &randProtocol{nv} }, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("rumor crossed a fully lossy edge")
	}
	if res.Delivered != 0 || res.RumorPayload != 0 {
		t.Fatalf("delivered %d payload %d on a fully lossy edge", res.Delivered, res.RumorPayload)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops recorded")
	}
	if res.InformedAt[1] != -1 {
		t.Fatalf("node 1 informed at %d across a dead edge", res.InformedAt[1])
	}
}

// TestFlapWindowsDropExchanges: an exchange whose transit window
// touches a flap interval is lost; one that starts after the flap ends
// is delivered.
func TestFlapWindowsDropExchanges(t *testing.T) {
	g := pathGraph(4) // one edge, latency 4
	spec := &adversity.Spec{Flaps: []adversity.Flap{{U: 0, V: 1, From: 0, To: 3}}}
	// Initiate at rounds 0 (transit [0,4] overlaps the flap: lost) and
	// 3 (transit [3,7] misses [0,3): delivered).
	res, err := Run(Config{
		CSR: g.CSR(), Seed: 1, Mode: OneToAll, Source: 0, MaxRounds: 64,
		Adversity: spec,
	}, func(nv *NodeView) Protocol {
		if nv.ID() != 0 {
			return &fixedProtocol{nv: nv, schedule: map[int]int{}}
		}
		return &fixedProtocol{nv: nv, schedule: map[int]int{0: 0, 3: 0}}
	}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 || res.Delivered != 1 {
		t.Fatalf("dropped %d delivered %d, want 1 and 1", res.Dropped, res.Delivered)
	}
	if res.InformedAt[1] != 7 {
		t.Fatalf("node 1 informed at %d, want 7 (the post-flap exchange)", res.InformedAt[1])
	}
}

// TestAdversityValidation: schedules referencing absent edges or
// out-of-range nodes must be rejected by Run.
func TestAdversityValidation(t *testing.T) {
	g := pathGraph(1, 1) // edges 0-1, 1-2 only
	for name, spec := range map[string]*adversity.Spec{
		"absent-flap-edge": {Flaps: []adversity.Flap{{U: 0, V: 2, From: 0, To: 5}}},
		"absent-loss-edge": {EdgeLoss: []adversity.EdgeLoss{{U: 0, V: 2, P: 0.5}}},
		"node-range":       {Churn: []adversity.Churn{{Node: 9, Leave: 0, Rejoin: 5}}},
		"bad-prob":         {Loss: 1.5},
	} {
		_, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 8, Adversity: spec},
			func(nv *NodeView) Protocol { return &randProtocol{nv} }, StopNever())
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBenignSpecMatchesNil: an empty adversity spec must not perturb a
// run in any way (no extra RNG draws, identical results).
func TestBenignSpecMatchesNil(t *testing.T) {
	g := graphgen.Clique(8, 2)
	run := func(spec *adversity.Spec) Result {
		res, err := Run(Config{CSR: g.CSR(), Seed: 3, Mode: OneToAll, Source: 0, MaxRounds: 1 << 10, Adversity: spec},
			func(nv *NodeView) Protocol { return &randProtocol{nv} }, StopAllInformed(0))
		if err != nil {
			t.Fatal(err)
		}
		res.World = nil
		return res
	}
	if a, b := run(nil), run(&adversity.Spec{}); !reflect.DeepEqual(a, b) {
		t.Fatalf("empty spec diverges from nil:\n nil   %+v\n empty %+v", a, b)
	}
}
