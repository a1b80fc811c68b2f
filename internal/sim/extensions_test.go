package sim

import (
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
)

// crashes is the fault schedule that fail-stops the given nodes at round.
func crashes(round int, nodes ...int) *adversity.Spec {
	return &adversity.Spec{Crashes: []adversity.Crash{{Round: round, Nodes: nodes}}}
}

func TestCrashStopsActivation(t *testing.T) {
	g := pathGraph(1, 1)
	activations := map[int][]int{}
	_, err := Run(Config{CSR: g.CSR(), Mode: AllToAll, MaxRounds: 6, Adversity: crashes(2, 1)},
		func(nv *NodeView) Protocol {
			return &recordingProto{nv: nv, log: activations}
		}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range activations[1] {
		if r >= 2 {
			t.Fatalf("crashed node activated at round %d", r)
		}
	}
	if len(activations[0]) < 6 {
		t.Fatalf("healthy node stopped activating: %v", activations[0])
	}
}

// recordingProto activates neighbor 0 every round and records when.
type recordingProto struct {
	nv  *NodeView
	log map[int][]int
}

func (p *recordingProto) Activate(round int) (int, bool) {
	p.log[p.nv.ID()] = append(p.log[p.nv.ID()], round)
	return 0, true
}
func (p *recordingProto) OnDeliver(Delivery) {}

func TestCrashDropsInFlightExchanges(t *testing.T) {
	// Edge latency 5; node 1 crashes at round 3, before the round-0
	// exchange would deliver at round 5 — nothing must arrive.
	g := pathGraph(5)
	res, err := Run(Config{
		CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 20,
		Adversity: crashes(3, 1),
	}, func(nv *NodeView) Protocol {
		p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
		if nv.ID() == 0 {
			p.schedule[0] = 0
		}
		return p
	}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 1 {
		t.Fatalf("Dropped = %d, want 1", res.Dropped)
	}
	if res.InformedAt[1] >= 0 {
		t.Fatal("crashed node received a delivery")
	}
}

func TestCrashBeforeDeliveryCutsBothWays(t *testing.T) {
	// The initiator also loses the response when the peer dies.
	g := pathGraph(5)
	got := 0
	_, err := Run(Config{
		CSR: g.CSR(), Mode: AllToAll, MaxRounds: 20,
		Adversity: crashes(3, 1),
	}, func(nv *NodeView) Protocol {
		p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
		if nv.ID() == 0 {
			p.schedule[0] = 0
		}
		if nv.ID() == 0 {
			// count deliveries via closure below
		}
		return &countingProto{inner: p, hits: &got}
	}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("deliveries = %d, want 0 (exchange lost)", got)
	}
}

type countingProto struct {
	inner Protocol
	hits  *int
}

func (p *countingProto) Activate(round int) (int, bool) { return p.inner.Activate(round) }
func (p *countingProto) OnDeliver(d Delivery)           { *p.hits++ }

func TestStopAllSurvivorsInformedSkipsCrashed(t *testing.T) {
	g := pathGraph(1, 100)
	// Node 2 is behind a latency-100 edge and crashes at round 1: the
	// run should stop once nodes 0 and 1 are informed.
	spec := crashes(1, 2)
	res, err := Run(Config{
		CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1000,
		Adversity: spec,
	}, func(nv *NodeView) Protocol {
		p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
		if nv.ID() == 0 {
			p.schedule[0] = 0
		}
		return p
	}, StopAllSurvivorsInformed(0, spec))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("did not complete over survivors")
	}
	if res.Rounds > 2 {
		t.Fatalf("rounds = %d, want <= 2", res.Rounds)
	}
}

func TestCrashConfigValidation(t *testing.T) {
	g := pathGraph(1)
	for name, spec := range map[string]*adversity.Spec{
		"node out of range": crashes(1, 2),
		"negative round":    crashes(-1, 0),
		"node crashes twice": {Crashes: []adversity.Crash{
			{Round: 1, Nodes: []int{1}}, {Round: 3, Nodes: []int{1}},
		}},
	} {
		_, err := Run(Config{CSR: g.CSR(), MaxRounds: 5, Adversity: spec},
			func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever())
		if err == nil {
			t.Fatalf("%s: expected a config error", name)
		}
	}
}

func TestMaxInPerRoundCap(t *testing.T) {
	// Star: all 4 leaves contact the center at round 0 with cap 1 —
	// exactly one exchange goes through.
	g := graph.New(5)
	for v := 1; v < 5; v++ {
		g.MustAddEdge(0, v, 1)
	}
	res, err := Run(Config{
		CSR: g.CSR(), Mode: AllToAll, MaxRounds: 3, MaxInPerRound: 1,
	}, func(nv *NodeView) Protocol {
		p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
		if nv.ID() != 0 {
			p.schedule[0] = 0
		}
		return p
	}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exchanges != 1 {
		t.Fatalf("Exchanges = %d, want 1 (cap)", res.Exchanges)
	}
	if res.Dropped != 3 {
		t.Fatalf("Dropped = %d, want 3", res.Dropped)
	}
}

func TestMultiSourceSeeding(t *testing.T) {
	g := pathGraph(1, 1, 1)
	res, err := Run(Config{
		CSR: g.CSR(), Mode: OneToAll, Sources: []graph.NodeID{0, 3}, MaxRounds: 10,
	}, func(nv *NodeView) Protocol {
		return &fixedProtocol{nv: nv, schedule: map[int]int{}}
	}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	rumors := res.FinalRumors()
	if !rumors[0].Contains(0) || !rumors[3].Contains(3) {
		t.Fatal("sources not seeded")
	}
	if rumors[1].Contains(1) {
		t.Fatal("non-source seeded in multi-source mode")
	}
}

func TestSpreadCurve(t *testing.T) {
	r := Result{Rounds: 4, InformedAt: []int{0, 2, 2, -1, 4}}
	curve := r.SpreadCurve()
	want := []int{1, 1, 3, 3, 4}
	if len(curve) != len(want) {
		t.Fatalf("curve = %v, want %v", curve, want)
	}
	for i := range want {
		if curve[i] != want[i] {
			t.Fatalf("curve = %v, want %v", curve, want)
		}
	}
	if ht := r.HalfTime(); ht != 2 {
		t.Fatalf("HalfTime = %d, want 2", ht)
	}
}

func TestHalfTimeNever(t *testing.T) {
	r := Result{Rounds: 3, InformedAt: []int{0, -1, -1, -1}}
	if ht := r.HalfTime(); ht != -1 {
		t.Fatalf("HalfTime = %d, want -1", ht)
	}
}
