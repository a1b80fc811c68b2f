package sim

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"gossip/internal/graphgen"
)

// heardProto gossips a heard set as exchange metadata the way the local
// broadcast protocols do: the set is a sorted []int32 that is never
// written once handed out, so Meta returns the same slice until the set
// changes and a new one after. It contacts a random neighbor each round
// until it has heard its whole neighborhood, and records every delivered
// peer set it is handed.
type heardProto struct {
	nv    *NodeView
	heard []int32
	done  bool
	// got logs each delivery's peer metadata; produced, when set, every
	// version Meta handed out, and handed every peer set delivered.
	got              []string
	produced, handed *[][]int32
}

func newHeardProto(nv *NodeView, produced, handed *[][]int32) *heardProto {
	return &heardProto{nv: nv, heard: []int32{int32(nv.ID())}, produced: produced, handed: handed}
}

func (p *heardProto) Activate(int) (int, bool) {
	if p.done {
		return 0, false
	}
	return p.nv.RNG().IntN(p.nv.Degree()), true
}

func (p *heardProto) Meta() []int32 {
	if p.produced != nil && (len(*p.produced) == 0 || !sameSlice((*p.produced)[len(*p.produced)-1], p.heard)) {
		*p.produced = append(*p.produced, p.heard)
	}
	return p.heard
}

func (p *heardProto) Done() bool { return p.done }

func (p *heardProto) OnDeliver(d Delivery) {
	p.got = append(p.got, fmt.Sprint(d.Round, d.Peer, d.PeerMeta))
	if p.handed != nil {
		*p.handed = append(*p.handed, d.PeerMeta)
	}
	next := slices.Clone(p.heard)
	for _, v := range append(slices.Clone(d.PeerMeta), int32(d.Peer)) {
		if i, found := slices.BinarySearch(next, v); !found {
			next = slices.Insert(next, i, v)
		}
	}
	if len(next) > len(p.heard) {
		p.heard = next // a new version; the old one stays as handed out
	}
	p.done = true
	for i := 0; i < p.nv.Degree(); i++ {
		if _, found := slices.BinarySearch(p.heard, int32(p.nv.NeighborID(i))); !found {
			p.done = false
		}
	}
}

func (p *heardProto) CloneStateFrom(src Protocol) {
	s := src.(*heardProto)
	p.heard, p.done, p.got = slices.Clone(s.heard), s.done, slices.Clone(s.got)
}

// sameSlice reports whether a and b are the same slice (one first
// element, one length).
func sameSlice(a, b []int32) bool {
	return len(a) == len(b) && (len(a) == 0 || &a[0] == &b[0])
}

// heardTrace is what a heard-set run shows: its counters and, per node,
// the final set and every peer set it was handed.
type heardTrace struct {
	Rounds                                  int
	Exchanges, Messages, Delivered, Payload int64
	InformedAt                              []int
	Heard                                   [][]int32
	Got                                     [][]string
}

func traceHeard(res Result) heardTrace {
	tr := heardTrace{Rounds: res.Rounds, Exchanges: res.Exchanges, Messages: res.Messages,
		Delivered: res.Delivered, Payload: res.RumorPayload, InformedAt: slices.Clone(res.InformedAt)}
	for _, p := range res.World.Protos {
		h := p.(*heardProto)
		tr.Heard = append(tr.Heard, h.heard)
		tr.Got = append(tr.Got, h.got)
	}
	return tr
}

// inFlightMeta counts the pending exchanges of e that carry metadata.
func inFlightMeta(e *engine) int {
	k := 0
	count := func(ex *exch) {
		if ex.uMeta != 0 || ex.vMeta != 0 {
			k++
		}
	}
	for _, b := range e.ring {
		for i := range b {
			count(&b[i])
		}
	}
	for i := range e.overflow {
		count(&e.overflow[i])
	}
	return k
}

// TestMetaInFlightAcrossSnapshot: a heard-set run captured while
// exchanges carrying metadata are in flight, on a ring whose slow links
// keep them in flight for many rounds, resumes to exactly the cold run:
// every delivery hands over the same peer set, so the restored engine
// resolves the captured exchanges' handles against the capture's table.
func TestMetaInFlightAcrossSnapshot(t *testing.T) {
	csr, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 8, Layers: 4, Latency: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CSR: csr, Seed: 5, Mode: AllToAll, MaxRounds: 1 << 12}
	factory := func(nv *NodeView) Protocol { return newHeardProto(nv, nil, nil) }
	cold, err := Run(cfg, factory, StopAllDone())
	if err != nil {
		t.Fatal(err)
	}
	want := traceHeard(cold)
	captured := 0
	for at := 1; at < cold.Rounds; at++ {
		snap, err := CaptureAt(cfg, factory, StopAllDone(), at)
		if err != nil {
			t.Fatal(err)
		}
		if snap.Done() || inFlightMeta(snap.src) == 0 {
			continue
		}
		captured++
		e, err := snap.restore(cfg, factory)
		if err != nil {
			t.Fatal(err)
		}
		checkMetaHolds(t, e)
		for _, workers := range []int{1, 3} {
			resumed := cfg
			resumed.Workers = workers
			res, err := snap.Resume(resumed, factory, StopAllDone())
			if err != nil {
				t.Fatal(err)
			}
			if got := traceHeard(res); !reflect.DeepEqual(got, want) {
				t.Fatalf("resumed at round %d (workers %d) diverges from the cold run:\n got  %+v\n want %+v", at, workers, got, want)
			}
		}
	}
	if captured < 3 {
		t.Fatalf("only %d capture rounds had metadata in flight", captured)
	}
}

// TestPipelineReloadDropsMetaHandles: a phase stopped at its horizon with
// metadata in flight hands none of it to the next phase. After the
// reload, every peer set delivered, every entry of the engine's metadata
// table and every handle still in flight is a version the second phase's
// protocols produced.
func TestPipelineReloadDropsMetaHandles(t *testing.T) {
	csr, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 8, Layers: 4, Latency: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	var p Pipeline
	var first, second, handed [][]int32
	cfg := Config{CSR: csr, Seed: 5, Mode: AllToAll, MaxRounds: 9}
	if _, err := p.Run(cfg, func(nv *NodeView) Protocol { return newHeardProto(nv, &first, nil) }, StopNever()); err != nil {
		t.Fatal(err)
	}
	if inFlightMeta(p.e) == 0 {
		t.Fatal("the first phase ended with no metadata in flight")
	}
	cfg.MaxRounds = 40
	if _, err := p.Run(cfg, func(nv *NodeView) Protocol { return newHeardProto(nv, &second, &handed) }, StopNever()); err != nil {
		t.Fatal(err)
	}
	if len(handed) == 0 || len(second) == 0 {
		t.Fatalf("second phase delivered %d peer sets, produced %d versions", len(handed), len(second))
	}
	fromSecond := func(m []int32) bool {
		return m == nil || slices.ContainsFunc(second, func(v []int32) bool { return sameSlice(v, m) })
	}
	for i, m := range handed {
		if !fromSecond(m) {
			t.Fatalf("delivery %d of the second phase handed over %v, not a second-phase version", i, m)
		}
	}
	for h, m := range p.e.metas {
		if !fromSecond(m) {
			t.Fatalf("table entry %d, %v, is not a second-phase version", h, m)
		}
	}
	for _, b := range p.e.ring {
		for i := range b {
			for _, h := range []int32{b[i].uMeta, b[i].vMeta} {
				if !fromSecond(p.e.metas[h]) {
					t.Fatalf("in-flight handle %d resolves to %v, not a second-phase version", h, p.e.metas[h])
				}
			}
		}
	}
	checkMetaHolds(t, p.e)
}

// checkMetaHolds checks the metadata table's accounting against e's
// calendar: every slot counts exactly the pending exchange endpoints
// holding its handle, and a slot is empty and on the free list, once,
// exactly when it counts none.
func checkMetaHolds(t *testing.T, e *engine) {
	t.Helper()
	holds := make([]int32, len(e.metas))
	count := func(ex *exch) { holds[ex.uMeta]++; holds[ex.vMeta]++ }
	for _, b := range e.ring {
		for i := range b {
			count(&b[i])
		}
	}
	for i := range e.overflow {
		count(&e.overflow[i])
	}
	free := make([]int, len(e.metas))
	for _, h := range e.metaFree {
		free[h]++
	}
	for h := 1; h < len(e.metas); h++ {
		refs, m := e.metaRefs[h], e.metas[h]
		if refs != holds[h] {
			t.Fatalf("slot %d counts %d holds, the calendar has %d", h, refs, holds[h])
		}
		onFree := free[h] == 1
		if free[h] > 1 || onFree != (refs == 0) || onFree != (m == nil) {
			t.Fatalf("slot %d (%d holds, version %v) is on the free list %d times", h, refs, m, free[h])
		}
	}
}

// stampProto hands out fresh metadata every round, {node, round}, the
// way Election's evidence round changes, and checks that each delivery
// hands over exactly what the peer produced when the exchange began.
type stampProto struct {
	nv       *NodeView
	round    int32
	produced *int
	bad      int
}

func (p *stampProto) Activate(round int) (int, bool) {
	p.round = int32(round)
	return p.nv.RNG().IntN(p.nv.Degree()), true
}

func (p *stampProto) Meta() []int32 {
	*p.produced++
	return []int32{int32(p.nv.ID()), p.round}
}

func (p *stampProto) OnDeliver(d Delivery) {
	if !slices.Equal(d.PeerMeta, []int32{int32(d.Peer), int32(d.InitRound)}) {
		p.bad++
	}
}

// TestMetaTableStaysBounded: metadata that changes every round is
// interned every round, yet the table keeps only what is still held:
// after a long run on slow links it is a small fraction of the versions
// produced, its hold counts match the calendar, and every delivery still
// hands over its initiation-time version, through the reuse of slots.
func TestMetaTableStaysBounded(t *testing.T) {
	csr, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 8, Layers: 4, Latency: 6, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		produced, bad := 0, 0
		e, err := newEngine(Config{CSR: csr, Seed: 2, Workers: workers, MaxRounds: 400},
			func(nv *NodeView) Protocol { return &stampProto{nv: nv, produced: &produced} })
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.run(StopNever())
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range e.protos {
			bad += p.(*stampProto).bad
		}
		if res.Delivered == 0 || bad != 0 {
			t.Fatalf("workers %d: %d of %d deliveries handed over the wrong version", workers, bad, res.Delivered)
		}
		if 8*len(e.metas) > produced {
			t.Fatalf("workers %d: table holds %d versions of %d produced", workers, len(e.metas), produced)
		}
		checkMetaHolds(t, e)
	}
}
