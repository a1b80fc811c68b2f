package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
	"gossip/internal/graphgen"
)

// newsLogger activates a random neighbor every round and logs every
// delivery it receives, News order included, into its node's slot.
type newsLogger struct {
	nv  *NodeView
	log *[]string
}

func (p *newsLogger) Activate(int) (int, bool) { return p.nv.RNG().IntN(p.nv.Degree()), true }
func (p *newsLogger) OnDeliver(d Delivery) {
	*p.log = append(*p.log, fmt.Sprint(d.Round, d.Peer, d.NewRumors, d.News))
}

// phaseTrace is everything observable about one phase: the counters, the
// informed times, every node's journal and every delivery's news.
type phaseTrace struct {
	Rounds                                 int
	Exchanges, Dropped, Delivered, Payload int64
	InformedAt                             []int
	Journals                               [][]int32
	Deliveries                             [][]string
}

func tracePhase(res Result, logs [][]string) phaseTrace {
	tr := phaseTrace{Rounds: res.Rounds, Exchanges: res.Exchanges, Dropped: res.Dropped,
		Delivered: res.Delivered, Payload: res.RumorPayload, InformedAt: slices.Clone(res.InformedAt)}
	for _, nv := range res.World.Views {
		tr.Journals = append(tr.Journals, slices.Clone(nv.journal))
	}
	for _, l := range logs {
		tr.Deliveries = append(tr.Deliveries, slices.Clone(l))
	}
	return tr
}

// TestPipelineReloadMatchesFreshEngine: three phases on one Pipeline —
// each stopped at its horizon with exchanges still in flight, with and
// without an amnesic churn and loss schedule, serial and sharded — leave
// exactly the journals (order included), deliveries and counters that a
// fresh engine per phase seeded with the previous phase's FinalRumors
// does. The third schedule strikes node 2 with amnesia in a phase it
// enters holding every rumor, so its journal is the engine's listing
// when amnesia empties it; the listing must still read 0…n−1 after.
func TestPipelineReloadMatchesFreshEngine(t *testing.T) {
	csr := graphgen.Dumbbell(6, 5).CSR()
	n := csr.N()
	strikesFull := adversity.MustParseSpec("churn=2:3-7:amnesia;loss=0.1")
	for _, spec := range []*adversity.Spec{nil, adversity.MustParseSpec("churn=1:3-9:amnesia;churn=8:2-5;loss=0.2"), strikesFull} {
		for _, workers := range []int{1, 3} {
			var p Pipeline
			var prev *Result
			struckFull := false
			for phase := 0; phase < 3; phase++ {
				if prev != nil && spec == strikesFull && prev.World.Views[2].RumorCount() == n {
					struckFull = true
				}
				cfg := Config{CSR: csr, Mode: AllToAll, Seed: uint64(10 + phase), MaxRounds: 12 + phase,
					Workers: workers, Adversity: spec}
				run := func(run func(Config, Factory, StopFunc) (Result, error), cfg Config) phaseTrace {
					logs := make([][]string, csr.N())
					res, err := run(cfg, func(nv *NodeView) Protocol {
						return &newsLogger{nv: nv, log: &logs[nv.ID()]}
					}, StopNever())
					if err != nil {
						t.Fatal(err)
					}
					return tracePhase(res, logs)
				}
				got := run(p.Run, cfg)
				fresh := cfg
				if prev != nil {
					fresh.InitialRumors = prev.FinalRumors()
				}
				var freshRes Result
				want := run(func(c Config, f Factory, s StopFunc) (Result, error) {
					var err error
					freshRes, err = Run(c, f, s)
					return freshRes, err
				}, fresh)
				prev = &freshRes
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("faults %v, workers %d, phase %d: reloaded engine diverges from a fresh one:\n got  %+v\n want %+v",
						spec, workers, phase, got, want)
				}
				if !slices.Equal(p.e.all, listing(n)[:len(p.e.all)]) {
					t.Fatalf("faults %v, workers %d, phase %d: the listing reads %v", spec, workers, phase, p.e.all)
				}
			}
			if spec == strikesFull && !struckFull {
				t.Fatalf("workers %d: node 2 never entered a phase full, so amnesia never struck a listed journal", workers)
			}
		}
	}
}

// listing is 0…n−1.
func listing(n int) []int32 {
	all := make([]int32, n)
	for i := range all {
		all[i] = int32(i)
	}
	return all
}

// listed reports whether journal j is the engine's listing.
func listed(e *engine, j []int32) bool {
	return len(e.all) > 0 && cap(j) > 0 && &j[:1][0] == &e.all[0]
}

// TestFullJournalsShareListing: a carried load lists a node holding every
// rumor as the engine's one listing, all[:n:n], and every other node in
// storage of its own. The listing is made only when some node is full.
func TestFullJournalsShareListing(t *testing.T) {
	csr := graphgen.Dumbbell(6, 5).CSR()
	n := csr.N()
	factory := func(nv *NodeView) Protocol { return &silentProto{nv: nv} }
	var p Pipeline
	sawFull, sawPartial := false, false
	for phase, rounds := range []int{2, 6, 20} {
		if _, err := p.Run(Config{CSR: csr, Mode: AllToAll, Seed: uint64(phase), MaxRounds: rounds}, factory, StopNever()); err != nil {
			t.Fatal(err)
		}
		if err := p.e.load(Config{CSR: csr, Mode: AllToAll, Seed: 9, MaxRounds: 1}, factory, 0, 1, true); err != nil {
			t.Fatal(err)
		}
		full := 0
		for u, nv := range p.e.views {
			isFull := nv.rum.Len() == n
			if isFull {
				full++
			}
			if listed(p.e, nv.journal) != isFull {
				t.Fatalf("phase %d: node %d full %v, journal listed %v", phase, u, isFull, !isFull)
			}
			if isFull && cap(nv.journal) != n {
				t.Fatalf("phase %d: node %d's listed journal has room %d past n", phase, u, cap(nv.journal)-n)
			}
			if !slices.Equal(nv.journal, nv.rum.AppendTo(nil)) {
				t.Fatalf("phase %d: node %d's journal %v is not its set in order", phase, u, nv.journal)
			}
		}
		if (p.e.all == nil) != (full == 0 && !sawFull) {
			t.Fatalf("phase %d: %d full nodes, listing made %v", phase, full, p.e.all != nil)
		}
		sawFull = sawFull || full > 0
		sawPartial = sawPartial || full < n
	}
	if !sawFull || !sawPartial {
		t.Fatalf("the phases never left both full (%v) and partial (%v) nodes", sawFull, sawPartial)
	}
	if !slices.Equal(p.e.all, listing(n)) {
		t.Fatalf("the listing reads %v", p.e.all)
	}
}

// TestEmptiedJournalLeavesListing: a listed journal that is emptied to be
// written again — here by an amnesic rejoin that re-gains the node's own
// rumor, the path an engine reloaded without carried sets would take —
// is detached from the listing first, so the nodes still listed keep
// reading 0…n−1.
func TestEmptiedJournalLeavesListing(t *testing.T) {
	csr := graphgen.Clique(5, 1).CSR()
	n := csr.N()
	full := make([]*bitset.Set, n)
	for u := range full {
		full[u] = bitset.New(n)
		for v := 0; v < n; v++ {
			full[u].Add(v)
		}
	}
	e, err := newEngine(Config{CSR: csr, Mode: AllToAll, InitialRumors: full}, func(nv *NodeView) Protocol { return &silentProto{nv: nv} })
	if err != nil {
		t.Fatal(err)
	}
	for u, nv := range e.views {
		if !listed(e, nv.journal) {
			t.Fatalf("node %d entered full but its journal is not the listing", u)
		}
	}
	e.entry = nil // restart from the mode's seeding, not the entry sets
	e.amnesia(3, 0)
	if got := e.views[3].journal; !slices.Equal(got, []int32{3}) || listed(e, got) {
		t.Fatalf("after amnesia node 3's journal is %v (listed %v), want [3] of its own", got, listed(e, got))
	}
	if !slices.Equal(e.all, listing(n)) || !slices.Equal(e.views[0].journal, listing(n)) {
		t.Fatalf("after amnesia the listing reads %v", e.all)
	}
}
