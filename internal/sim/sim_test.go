package sim

import (
	"math"
	"slices"
	"testing"

	"gossip/internal/bitset"
	"gossip/internal/graph"
)

// fixedProtocol activates a fixed neighbor index on chosen rounds.
type fixedProtocol struct {
	nv       *NodeView
	schedule map[int]int // round -> neighbor index
	delivers []Delivery
}

func (p *fixedProtocol) Activate(round int) (int, bool) {
	idx, ok := p.schedule[round]
	return idx, ok
}
func (p *fixedProtocol) OnDeliver(d Delivery) { p.delivers = append(p.delivers, d) }

func pathGraph(lats ...int) *graph.Graph {
	g := graph.New(len(lats) + 1)
	for i, l := range lats {
		g.MustAddEdge(i, i+1, l)
	}
	return g
}

func TestExchangeLatencySemantics(t *testing.T) {
	// Two nodes, edge latency 3. Node 0 activates at round 0; rumor must
	// arrive at node 1 exactly at round 3.
	g := pathGraph(3)
	protos := make(map[int]*fixedProtocol)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 100},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			protos[nv.ID()] = p
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("run did not complete")
	}
	if res.Rounds != 3 {
		t.Fatalf("rounds = %d, want 3", res.Rounds)
	}
	if res.InformedAt[1] != 3 {
		t.Fatalf("InformedAt[1] = %d, want 3", res.InformedAt[1])
	}
	if res.Exchanges != 1 || res.Messages != 2 {
		t.Fatalf("exchanges/messages = %d/%d", res.Exchanges, res.Messages)
	}
	// Both endpoints got OnDeliver with the right metadata.
	d1 := protos[1].delivers
	if len(d1) != 1 || d1[0].Round != 3 || d1[0].Latency != 3 || d1[0].Initiator {
		t.Fatalf("node 1 delivery = %+v", d1)
	}
	d0 := protos[0].delivers
	if len(d0) != 1 || !d0[0].Initiator || d0[0].Peer != 1 {
		t.Fatalf("node 0 delivery = %+v", d0)
	}
}

func TestSnapshotAtInitiation(t *testing.T) {
	// Path 0-1-2 with latencies 1, 5. Node 1 activates toward 2 at round
	// 0 (before it knows the rumor) and at round 2 (after). The round-0
	// exchange must NOT carry the rumor; the round-2 one must, arriving
	// at round 7.
	g := pathGraph(1, 5)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 100},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			switch nv.ID() {
			case 0:
				p.schedule[0] = 0 // deliver rumor to node 1 at round 1
			case 1:
				idx := nv.NeighborIndex(2)
				p.schedule[0] = idx // too early: no rumor yet
				p.schedule[2] = idx // carries rumor, arrives at 7
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.InformedAt[2] != 7 {
		t.Fatalf("InformedAt[2] = %d, want 7 (snapshot semantics)", res.InformedAt[2])
	}
}

func TestBidirectionalExchange(t *testing.T) {
	// AllToAll: one exchange informs both endpoints of each other.
	g := pathGraph(2)
	res, err := Run(Config{CSR: g.CSR(), Mode: AllToAll, MaxRounds: 10},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 2 {
		t.Fatalf("bidirectional exchange: %+v", res)
	}
}

func TestLatencyDiscovery(t *testing.T) {
	g := pathGraph(4)
	var v0 *NodeView
	_, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 10},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				v0 = nv
				p.schedule[0] = 0
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if l, ok := v0.Latency(0); !ok || l != 4 {
		t.Fatalf("latency after discovery = %d,%v want 4,true", l, ok)
	}
}

func TestKnownLatenciesMode(t *testing.T) {
	g := pathGraph(7)
	_, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1, KnownLatencies: true},
		func(nv *NodeView) Protocol {
			if l, ok := nv.Latency(0); !ok || l != 7 {
				t.Errorf("node %d: latency = %d,%v want 7,true", nv.ID(), l, ok)
			}
			return &fixedProtocol{nv: nv, schedule: map[int]int{}}
		}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
}

func TestHorizonIncomplete(t *testing.T) {
	g := pathGraph(100)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 5},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run completed despite horizon")
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want horizon 5", res.Rounds)
	}
}

// TestHorizonFitsCalendar: the calendar stores rounds as int32, so a
// horizon whose latest delivery (MaxRounds + 2·MaxLatency + 1) overflows
// it is rejected before the run, not wrapped.
func TestHorizonFitsCalendar(t *testing.T) {
	g := pathGraph(7)
	cases := []struct {
		maxRounds int
		ok        bool
	}{
		{DefaultMaxRounds, true},
		{math.MaxInt32 - 2*7 - 1, true},
		{math.MaxInt32 - 2*7, false},
		{math.MaxInt, false},
	}
	for _, c := range cases {
		_, err := Run(Config{CSR: g.CSR(), MaxRounds: c.maxRounds},
			func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever())
		if c.ok != (err == nil) {
			t.Errorf("MaxRounds %d: err = %v, want ok=%v", c.maxRounds, err, c.ok)
		}
	}
}

func TestQuiescenceStops(t *testing.T) {
	g := pathGraph(1, 1)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1000},
		func(nv *NodeView) Protocol {
			return &fixedProtocol{nv: nv, schedule: map[int]int{}} // nobody acts
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("incomplete quiescent run reported completed")
	}
	if res.Rounds != 0 {
		t.Fatalf("quiescence detected at round %d, want 0", res.Rounds)
	}
}

func TestInitialRumorsCarryOver(t *testing.T) {
	g := pathGraph(1)
	initial := []*bitset.Set{bitset.New(2), bitset.New(2)}
	initial[0].Add(0)
	initial[0].Add(1) // node 0 already knows both
	initial[1].Add(1)
	res, err := Run(Config{CSR: g.CSR(), MaxRounds: 10, Mode: AllToAll, InitialRumors: initial},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 1 {
		t.Fatalf("carry-over run: %+v", res)
	}
	final := res.FinalRumors()
	if !final[1].Full() {
		t.Fatal("node 1 missing rumors after carry-over")
	}
}

func TestInitialRumorsLengthMismatch(t *testing.T) {
	g := pathGraph(1)
	_, err := Run(Config{CSR: g.CSR(), MaxRounds: 10, InitialRumors: []*bitset.Set{bitset.New(2)}},
		func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever())
	if err == nil {
		t.Fatal("expected error for mismatched InitialRumors")
	}
}

func TestInvalidGraphRejected(t *testing.T) {
	g := graph.New(3)
	g.MustAddEdge(0, 1, 1) // node 2 disconnected
	_, err := Run(Config{CSR: g.CSR(), MaxRounds: 10},
		func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever())
	if err == nil {
		t.Fatal("expected error for disconnected graph")
	}
	if _, err := Run(Config{MaxRounds: 1}, nil, StopNever()); err == nil {
		t.Fatal("expected error for a missing topology")
	}
}

func TestInvalidActivationRejected(t *testing.T) {
	g := pathGraph(1)
	_, err := Run(Config{CSR: g.CSR(), MaxRounds: 10, Mode: OneToAll},
		func(nv *NodeView) Protocol {
			return &fixedProtocol{nv: nv, schedule: map[int]int{0: 99}}
		}, StopNever())
	if err == nil {
		t.Fatal("expected error for out-of-range activation")
	}
}

// metaProto verifies metadata snapshot/delivery.
type metaProto struct {
	nv      *NodeView
	val     int32
	gotPeer [][]int32
}

func (p *metaProto) Activate(round int) (int, bool) {
	if p.nv.ID() == 0 && round == 0 {
		return 0, true
	}
	return 0, false
}
func (p *metaProto) OnDeliver(d Delivery) { p.gotPeer = append(p.gotPeer, d.PeerMeta) }
func (p *metaProto) Meta() []int32        { return []int32{p.val} }

func TestMetaDelivery(t *testing.T) {
	g := pathGraph(2)
	protos := map[int]*metaProto{}
	_, err := Run(Config{CSR: g.CSR(), MaxRounds: 10, Mode: OneToAll},
		func(nv *NodeView) Protocol {
			p := &metaProto{nv: nv, val: int32(100 + nv.ID())}
			protos[nv.ID()] = p
			return p
		}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	if len(protos[1].gotPeer) != 1 || !slices.Equal(protos[1].gotPeer[0], []int32{100}) {
		t.Fatalf("node 1 peer meta = %v, want [100]", protos[1].gotPeer)
	}
	if len(protos[0].gotPeer) != 1 || !slices.Equal(protos[0].gotPeer[0], []int32{101}) {
		t.Fatalf("node 0 peer meta = %v, want [101]", protos[0].gotPeer)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	g := graph.New(8)
	for u := 0; u < 8; u++ {
		for v := u + 1; v < 8; v++ {
			g.MustAddEdge(u, v, 1+(u+v)%4)
		}
	}
	run := func() Result {
		res, err := Run(Config{CSR: g.CSR(), Seed: 99, Mode: OneToAll, Source: 0, MaxRounds: 1000},
			func(nv *NodeView) Protocol { return &randomProto{nv: nv} }, StopAllInformed(0))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Rounds != b.Rounds || a.Exchanges != b.Exchanges {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

type randomProto struct{ nv *NodeView }

func (p *randomProto) Activate(int) (int, bool) { return p.nv.RNG().IntN(p.nv.Degree()), true }
func (p *randomProto) OnDeliver(Delivery)       {}

func TestNonBlockingConcurrentExchanges(t *testing.T) {
	// A node may have several exchanges in flight: activate the slow
	// edge every round; deliveries arrive in consecutive rounds.
	g := pathGraph(10)
	protos := map[int]*fixedProtocol{}
	res, err := Run(Config{CSR: g.CSR(), MaxRounds: 30, Mode: OneToAll},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
				p.schedule[1] = 0
				p.schedule[2] = 0
			}
			protos[nv.ID()] = p
			return p
		}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	if res.Exchanges != 3 {
		t.Fatalf("exchanges = %d, want 3 concurrent", res.Exchanges)
	}
	rounds := []int{}
	for _, d := range protos[1].delivers {
		rounds = append(rounds, d.Round)
	}
	if len(rounds) != 3 || rounds[0] != 10 || rounds[1] != 11 || rounds[2] != 12 {
		t.Fatalf("delivery rounds = %v, want [10 11 12]", rounds)
	}
}

func TestStopCombinators(t *testing.T) {
	always := func(*World) bool { return true }
	never := func(*World) bool { return false }
	if StopAnd(always, never)(nil) {
		t.Fatal("StopAnd(true,false) = true")
	}
	if !StopAnd(always, always)(nil) {
		t.Fatal("StopAnd(true,true) = false")
	}
	if !StopOr(never, always)(nil) {
		t.Fatal("StopOr(false,true) = false")
	}
	if StopOr(never, never)(nil) {
		t.Fatal("StopOr(false,false) = true")
	}
	if StopNever()(nil) {
		t.Fatal("StopNever() = true")
	}
}

func TestNodeViewAccessors(t *testing.T) {
	g := pathGraph(2, 3)
	_, err := Run(Config{CSR: g.CSR(), MaxRounds: 1, Mode: AllToAll, KnownLatencies: true},
		func(nv *NodeView) Protocol {
			if nv.N() != 3 {
				t.Errorf("N() = %d", nv.N())
			}
			if nv.ID() == 1 {
				if nv.Degree() != 2 {
					t.Errorf("Degree() = %d", nv.Degree())
				}
				if nv.NeighborIndex(0) < 0 || nv.NeighborIndex(2) < 0 {
					t.Error("NeighborIndex missing neighbors")
				}
				if nv.NeighborIndex(1) != -1 {
					t.Error("NeighborIndex(self) should be -1")
				}
				if !nv.Knows(1) {
					t.Error("node 1 missing its own rumor in AllToAll mode")
				}
			}
			return &fixedProtocol{nv: nv, schedule: map[int]int{}}
		}, StopNever())
	if err != nil {
		t.Fatal(err)
	}
}
