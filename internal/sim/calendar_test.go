package sim

import (
	"testing"
)

// sleepyProtocol initiates per a fixed schedule and parks between
// scheduled rounds, counting how often the engine actually wakes it.
type sleepyProtocol struct {
	nv        *NodeView
	schedule  map[int]int // round -> neighbor index
	lastRound int         // largest scheduled round
	calls     int
	delivers  []Delivery
}

func newSleepy(nv *NodeView, schedule map[int]int) *sleepyProtocol {
	s := &sleepyProtocol{nv: nv, schedule: schedule, lastRound: -1}
	for r := range schedule {
		if r > s.lastRound {
			s.lastRound = r
		}
	}
	return s
}

func (s *sleepyProtocol) Activate(round int) (int, bool) {
	s.calls++
	idx, ok := s.schedule[round]
	return idx, ok
}

func (s *sleepyProtocol) OnDeliver(d Delivery) { s.delivers = append(s.delivers, d) }

func (s *sleepyProtocol) NextWake(round int) int {
	for r := round + 1; r <= s.lastRound; r++ {
		if _, ok := s.schedule[r]; ok {
			return r
		}
	}
	return WakeOnDelivery
}

// TestCalendarSkipsIdleSpans is the point of the event engine: a
// latency-1000 edge must not cost 1000 activation scans. The initiator is
// woken only for its scheduled round and its delivery.
func TestCalendarSkipsIdleSpans(t *testing.T) {
	g := pathGraph(1000)
	protos := map[int]*sleepyProtocol{}
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1 << 20},
		func(nv *NodeView) Protocol {
			sched := map[int]int{}
			if nv.ID() == 0 {
				sched[0] = 0
			}
			p := newSleepy(nv, sched)
			protos[nv.ID()] = p
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 1000 {
		t.Fatalf("run: %+v, want completion at 1000", res)
	}
	// Round 0 (scheduled), round 1 (post-activity check), round 1000
	// (delivery wake): a handful of calls, not ~1000.
	if protos[0].calls > 5 {
		t.Fatalf("initiator woken %d times across a 1000-round idle span", protos[0].calls)
	}
	if protos[1].calls > 5 {
		t.Fatalf("target woken %d times across a 1000-round idle span", protos[1].calls)
	}
}

// TestDeliveryNewsDelta pins the per-edge high-water semantics: the
// second exchange on an edge carries only rumors gained since the first.
func TestDeliveryNewsDelta(t *testing.T) {
	// Path 0-1-2 with latencies 3,1. Node 1 exchanges with 2 at round 0
	// (news: {1}), then gains rumor 2 (round 1, from that exchange) and
	// rumor 0 (round 3, from node 0), and exchanges with 2 again at round
	// 3: the delta is exactly those gains, [2 0] — rumor 1 is not resent.
	g := pathGraph(3, 1)
	var deliveries *sleepyProtocol
	_, err := Run(Config{CSR: g.CSR(), Mode: AllToAll, MaxRounds: 20},
		func(nv *NodeView) Protocol {
			sched := map[int]int{}
			switch nv.ID() {
			case 0:
				sched[0] = 0
			case 1:
				idx := nv.NeighborIndex(2)
				sched[0] = idx
				sched[3] = idx
			}
			p := newSleepy(nv, sched)
			if nv.ID() == 2 {
				deliveries = p
			}
			return p
		}, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	if len(deliveries.delivers) != 2 {
		t.Fatalf("node 2 got %d deliveries, want 2", len(deliveries.delivers))
	}
	first, second := deliveries.delivers[0], deliveries.delivers[1]
	if len(first.News) != 1 || first.News[0] != 1 || first.NewRumors != 1 {
		t.Fatalf("first delivery news = %v (new %d), want [1]", first.News, first.NewRumors)
	}
	if len(second.News) != 2 || second.News[0] != 2 || second.News[1] != 0 || second.NewRumors != 1 {
		t.Fatalf("second delivery news = %v (new %d), want delta [2 0] with 1 new", second.News, second.NewRumors)
	}
}

// TestCrashRoundIsCalendarEvent: a stop condition quantifying over alive
// nodes (World.Alive, as StopAllDone and StopLeaderStable read it) can
// first hold at a crash round with no delivery or activation — the
// engine must process that round rather than jump past it.
func TestCrashRoundIsCalendarEvent(t *testing.T) {
	// Node 2 sits behind a latency-500 edge and crashes at round 7 while
	// node 1's round-1 exchange to it is still in flight (so the run
	// cannot quiesce). Nodes 0,1 are informed by round 1 and then park:
	// all survivors are informed exactly when node 2 dies.
	g := pathGraph(1, 500)
	res, err := Run(Config{
		CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1 << 20,
		Adversity: crashes(7, 2),
	}, func(nv *NodeView) Protocol {
		sched := map[int]int{}
		switch nv.ID() {
		case 0:
			sched[0] = 0
		case 1:
			sched[1] = nv.NeighborIndex(2)
		}
		return newSleepy(nv, sched)
	}, func(w *World) bool {
		for u, nv := range w.Views {
			if w.Alive(u) && !nv.Knows(0) {
				return false
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 7 {
		t.Fatalf("run: %+v, want completion exactly at crash round 7", res)
	}
}

// TestScheduledWakeSuppressesQuiescence: a Sleeper that declares a finite
// future wake (a timer) keeps the run alive across an otherwise idle,
// nothing-in-flight span — the engine must jump to the scheduled round,
// not declare quiescence.
func TestScheduledWakeSuppressesQuiescence(t *testing.T) {
	g := pathGraph(1)
	protos := map[int]*sleepyProtocol{}
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1 << 20},
		func(nv *NodeView) Protocol {
			sched := map[int]int{}
			if nv.ID() == 0 {
				// Nothing until round 10: rounds 1-9 are idle with an
				// empty delivery heap.
				sched[10] = 0
			}
			p := newSleepy(nv, sched)
			protos[nv.ID()] = p
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 11 {
		t.Fatalf("run: %+v, want completion at 11 (round-10 exchange + latency 1)", res)
	}
	if res.Exchanges != 1 {
		t.Fatalf("exchanges = %d, want the scheduled round-10 initiation", res.Exchanges)
	}
	if protos[0].calls > 5 {
		t.Fatalf("initiator woken %d times; the idle span should be jumped, not scanned", protos[0].calls)
	}
}

// TestJournalMatchesRumorSet: the gain journal is an exact index of the
// rumor set, so FinalRumors (bitset view) and journals must agree.
func TestJournalMatchesRumorSet(t *testing.T) {
	g := pathGraph(1, 1, 1)
	res, err := Run(Config{CSR: g.CSR(), Mode: AllToAll, Seed: 3, MaxRounds: 1 << 16},
		func(nv *NodeView) Protocol { return &randomProto{nv: nv} }, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	for u, nv := range res.World.Views {
		if count := len(nv.rum.AppendTo(nil)); len(nv.journal) != count {
			t.Fatalf("node %d: journal length %d != rumor count %d", u, len(nv.journal), count)
		}
		seen := map[int32]bool{}
		for _, r := range nv.journal {
			if seen[r] {
				t.Fatalf("node %d: rumor %d journaled twice", u, r)
			}
			seen[r] = true
			if !nv.rum.Contains(int(r)) {
				t.Fatalf("node %d: journaled rumor %d missing from set", u, r)
			}
		}
	}
}
