package sim

import (
	"fmt"
	"reflect"
	"testing"

	"gossip/internal/adversity"
)

// silentProto picks a random neighbor every round and implements no
// Receiver: the engine never calls it on a delivery. It is a StateCloner
// so that captures can use it.
type silentProto struct{ nv *NodeView }

func (p *silentProto) Activate(int) (int, bool) { return p.nv.RNG().IntN(p.nv.Degree()), true }
func (p *silentProto) CloneStateFrom(Protocol)  {}

// noopReceiver is silentProto plus an OnDeliver that does nothing.
type noopReceiver struct{ silentProto }

func (p *noopReceiver) OnDeliver(Delivery) {}

// deliveryTape is a hash of every Delivery a node was handed, in order,
// and their count.
type deliveryTape struct {
	sum   uint64
	count int64
}

func (t *deliveryTape) mix(x int64) { t.sum = (t.sum ^ uint64(x)) * 0x100000001b3 }

func (t *deliveryTape) record(d Delivery) {
	t.count++
	initiator := int64(0)
	if d.Initiator {
		initiator = 1
	}
	for _, x := range []int64{int64(d.Round), int64(d.InitRound), int64(d.Peer), int64(d.NeighborIndex),
		int64(d.Latency), initiator, int64(d.NewRumors), int64(len(d.News))} {
		t.mix(x)
	}
	for _, r := range d.News {
		t.mix(int64(r))
	}
	if d.PeerMeta != nil {
		t.mix(-1)
	}
}

// tapingReceiver is silentProto plus an OnDeliver that tapes what it is
// handed; a restored instance continues its source's tape.
type tapingReceiver struct {
	silentProto
	tape *deliveryTape
}

func (p *tapingReceiver) OnDeliver(d Delivery) { p.tape.record(d) }
func (p *tapingReceiver) CloneStateFrom(src Protocol) {
	*p.tape = *src.(*tapingReceiver).tape
}

// receiverKind selects which nodes of a run have a Receiver.
type receiverKind int

const (
	noReceivers   receiverKind = iota // silentProto everywhere: a nil receiver table
	noopReceivers                     // every node has a no-op OnDeliver
	tapeEveryNode                     // every node tapes its deliveries
	tapeOddNodes                      // only odd nodes have a Receiver: a mixed table
)

var receiverKinds = []receiverKind{noReceivers, noopReceivers, tapeEveryNode, tapeOddNodes}

func (k receiverKind) String() string {
	return [...]string{"no receivers", "no-op receivers", "every node taping", "odd nodes taping"}[k]
}

// receiverFactory builds kind's protocols for an n-node network and the
// tapes its taping receivers write (one per node, zero for a node
// without one).
func receiverFactory(kind receiverKind, n int) (Factory, []deliveryTape) {
	tapes := make([]deliveryTape, n)
	return func(nv *NodeView) Protocol {
		p := silentProto{nv: nv}
		switch {
		case kind == noopReceivers:
			return &noopReceiver{p}
		case kind == tapeEveryNode, kind == tapeOddNodes && nv.ID()%2 == 1:
			return &tapingReceiver{p, &tapes[nv.ID()]}
		}
		return &p
	}, tapes
}

// receiverOutcome is what a run must produce whatever its receivers: the
// result's counters and informed rounds, and every node's final journal.
type receiverOutcome struct {
	Rounds                                 int
	Completed                              bool
	InformedAt                             []int
	Exchanges, Delivered, Dropped, Payload int64
	Journals                               [][]int32
}

// receiverRun is one run's outcome and its receivers' tapes.
type receiverRun struct {
	out   receiverOutcome
	tapes []deliveryTape
}

func newReceiverRun(res Result, tapes []deliveryTape) receiverRun {
	out := receiverOutcome{
		Rounds: res.Rounds, Completed: res.Completed,
		InformedAt: append([]int(nil), res.InformedAt...),
		Exchanges:  res.Exchanges, Delivered: res.Delivered, Dropped: res.Dropped, Payload: res.RumorPayload,
	}
	for _, nv := range res.World.Views {
		out.Journals = append(out.Journals, append([]int32{}, nv.journal...))
	}
	return receiverRun{out, append([]deliveryTape(nil), tapes...)}
}

// TestReceiverFacet pins the Receiver facet's contract: whether a node
// has a Receiver changes nothing but whether OnDeliver is called. A
// protocol without one, the same protocol with a no-op OnDeliver, with a
// taping OnDeliver on every node and with one on odd nodes only give the
// same results and final journals; every delivery reaches a taping
// receiver, and a receiver in a mixed table is handed exactly the
// deliveries it is handed when every node receives. Covered: serial, 4
// workers and 3 distributed shards, benign and under loss, amnesic churn
// and a link flap, latency jitter, three Pipeline phases, and
// CaptureAt/Resume at workers 1 and 4.
func TestReceiverFacet(t *testing.T) {
	const n = 37
	csr := denseTestGraph(n).CSR()
	churn := adversity.MustParseSpec("loss=0.15;churn=2:6-14:amnesia;churn=5:3-9:amnesia;flap=0-1:3-8")
	type scenario struct {
		name string
		run  func(kind receiverKind) ([]receiverRun, error)
	}
	var scenarios []scenario
	rows := []struct {
		name string
		cfg  Config
		dist bool
	}{
		{"one-to-all", Config{Mode: OneToAll, Source: 3, MaxRounds: 40}, true},
		{"all-to-all churn", Config{Mode: AllToAll, MaxRounds: 40, Adversity: churn}, true},
		{"jitter", Config{Mode: AllToAll, MaxRounds: 40, LatencyJitter: 0.5, Adversity: churn}, false},
	}
	for _, row := range rows {
		cfg := row.cfg
		cfg.CSR, cfg.Seed = csr, 17
		for _, workers := range []int{1, 4} {
			cfg := cfg
			cfg.Workers = workers
			scenarios = append(scenarios, scenario{fmt.Sprintf("%s, workers %d", row.name, workers),
				func(kind receiverKind) ([]receiverRun, error) {
					f, tapes := receiverFactory(kind, n)
					res, err := Run(cfg, f, StopNever())
					if err != nil {
						return nil, err
					}
					return []receiverRun{newReceiverRun(res, tapes)}, nil
				}})
		}
		if row.dist {
			scenarios = append(scenarios, scenario{row.name + ", 3 shards",
				func(kind receiverKind) ([]receiverRun, error) {
					f, tapes := receiverFactory(kind, n)
					res, _, err := RunDistLocal(cfg, 3, f, StopNever())
					if err != nil {
						return nil, err
					}
					return []receiverRun{newReceiverRun(res, tapes)}, nil
				}})
		}
	}
	for _, workers := range []int{1, 4} {
		scenarios = append(scenarios, scenario{fmt.Sprintf("pipeline, workers %d", workers),
			func(kind receiverKind) ([]receiverRun, error) {
				var p Pipeline
				var runs []receiverRun
				for phase := 0; phase < 3; phase++ {
					cfg := Config{CSR: csr, Mode: AllToAll, Seed: uint64(30 + phase), MaxRounds: 12 + 3*phase,
						Workers: workers, Adversity: churn}
					f, tapes := receiverFactory(kind, n)
					res, err := p.Run(cfg, f, StopNever())
					if err != nil {
						return nil, err
					}
					runs = append(runs, newReceiverRun(res, tapes))
				}
				return runs, nil
			}})
	}
	for _, at := range []int{7, 20} {
		scenarios = append(scenarios, scenario{fmt.Sprintf("resume at %d", at),
			func(kind receiverKind) ([]receiverRun, error) {
				cfg := Config{CSR: csr, Mode: AllToAll, Seed: 9, MaxRounds: 40, Adversity: churn}
				f, _ := receiverFactory(kind, n)
				snap, err := CaptureAt(cfg, f, StopNever(), at)
				if err != nil {
					return nil, err
				}
				var runs []receiverRun
				for _, workers := range []int{1, 4} {
					cfg.Workers = workers
					f, tapes := receiverFactory(kind, n)
					res, err := snap.Resume(cfg, f, StopNever())
					if err != nil {
						return nil, err
					}
					runs = append(runs, newReceiverRun(res, tapes))
				}
				return runs, nil
			}})
	}

	for _, sc := range scenarios {
		got := map[receiverKind][]receiverRun{}
		for _, kind := range receiverKinds {
			runs, err := sc.run(kind)
			if err != nil {
				t.Fatalf("%s, %v: %v", sc.name, kind, err)
			}
			got[kind] = runs
		}
		base := got[noReceivers]
		for _, kind := range receiverKinds[1:] {
			for i := range base {
				if !reflect.DeepEqual(got[kind][i].out, base[i].out) {
					t.Errorf("%s, run %d: %v diverge from %v", sc.name, i, kind, noReceivers)
				}
			}
		}
		for i, every := range got[tapeEveryNode] {
			var taped int64
			for _, tp := range every.tapes {
				taped += tp.count
			}
			if every.out.Delivered == 0 || taped != 2*every.out.Delivered {
				t.Errorf("%s, run %d: receivers were handed %d deliveries, want 2 × %d", sc.name, i, taped, every.out.Delivered)
			}
			odd := got[tapeOddNodes][i]
			for u := range odd.tapes {
				want := deliveryTape{}
				if u%2 == 1 {
					want = every.tapes[u]
				}
				if odd.tapes[u] != want {
					t.Errorf("%s, run %d, node %d: mixed-table tape %+v, want %+v", sc.name, i, u, odd.tapes[u], want)
					break
				}
			}
		}
	}
}
