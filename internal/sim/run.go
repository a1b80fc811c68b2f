package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"sync"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
	"gossip/internal/graph"
)

// DefaultMaxRounds is the safety horizon when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// wordWindowMin is the shortest window a dense receiver takes by the word
// (engine.wordMin): below it the per-rumor loop is as fast.
const wordWindowMin = 32

// Factory builds the protocol instance for one node. It runs once per
// node, in node order, before round 0.
type Factory func(nv *NodeView) Protocol

// StopFunc decides when the simulation is finished. It runs after the
// deliveries of each round have been applied.
type StopFunc func(w *World) bool

// World is the global state a StopFunc may inspect.
type World struct {
	// CSR is the compressed sparse row form the engine executes on.
	CSR    *graph.CSR
	Views  []*NodeView
	Protos []Protocol
	Round  int
	// adv is the compiled adversity schedule (nil when benign).
	adv *adversity.Schedule
	// watched is the rumor whose spread InformedAt tracks; informed is
	// the word-level tally of nodes holding it, maintained incrementally
	// by the engine so completion checks are O(n/64) scans instead of
	// per-node set probes.
	watched  graph.NodeID
	informed *bitset.Set
	// dones caches the DoneReporter facet per node (nil entries for
	// protocols without one, a nil table when no protocol has it) so
	// quiescence stops skip per-check type assertions.
	dones []DoneReporter
	// distDone, on a distributed shard worker, holds every shard's
	// captured all-done flag for the stop evaluation in progress (remote
	// protocol facets are not materialized on a worker, so StopAllDone
	// consults these instead of scanning dones). Nil in serial runs.
	distDone []bool
	// leaders caches the LeaderReporter facet per node, mirroring dones.
	leaders []LeaderReporter
	// distLeader, on a distributed shard worker, holds every shard's
	// captured leader summary for the stop evaluation in progress — a
	// node ID when the shard's owned survivors unanimously decided it,
	// or a LeaderAgnostic/LeaderUnsettled sentinel. Nil in serial runs.
	distLeader []int32
}

// Alive reports whether node u is up (not crashed, not churned out) as
// of the current round.
func (w *World) Alive(u graph.NodeID) bool {
	return w.adv == nil || !w.adv.Down(u, w.Round)
}

// exch is an in-flight bidirectional rumor swap, stored by value in the
// delivery calendar (64 bytes, and no pointers, so a bucket is never
// scanned by the garbage collector). Instead of cloning the endpoints'
// rumor sets it records a window into each endpoint's gain journal:
// [start,end) is the delta this exchange carries, end is also the size of
// the endpoint's full set at initiation time. The window views themselves
// are captured only when the exchange comes due, into the round's news
// scratch (engine.news), not stored per entry; so is each endpoint's
// metadata, which the entry holds as a handle into engine.metas. Rounds
// fit in int32: newEngineShard rejects a horizon whose deliveries could
// overflow it.
type exch struct {
	seq          int64
	deliver      int32
	initRound    int32
	u, v         int32 // u initiated
	uIdx, vIdx   int32 // adjacency index of the peer at u / at v
	latency      int32
	uStart, uEnd int32 // window into u's journal
	vStart, vEnd int32 // window into v's journal
	// lost marks an exchange the adversity schedule kills (message
	// loss, churned-out endpoint, flapped link). It is decided at
	// initiation — serially, in node order, so sharded runs agree — but
	// executed at the delivery round, so the exchange occupies the
	// calendar (and holds off idle detection) for its whole transit.
	lost bool
	// uMeta, vMeta are the endpoints' metadata at initiation, as handles
	// into engine.metas (0: none).
	uMeta, vMeta int32
}

// dueOrder orders exchanges by (deliver, seq): the order cold execution
// delivers them in.
func dueOrder(a, b *exch) int {
	return cmp.Or(cmp.Compare(a.deliver, b.deliver), cmp.Compare(a.seq, b.seq))
}

// exchHeap is the overflow queue for deliveries beyond the calendar
// ring's horizon (slow edges), ordered by dueOrder.
type exchHeap []exch

func (h exchHeap) Len() int            { return len(h) }
func (h exchHeap) Less(i, j int) bool  { return dueOrder(&h[i], &h[j]) < 0 }
func (h exchHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *exchHeap) Push(x interface{}) { *h = append(*h, x.(exch)) }
func (h *exchHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = exch{}
	*h = old[:n-1]
	return it
}

// never is the parked-wake sentinel.
const never = WakeOnDelivery

// actIntent is one buffered activation: node u wants to contact its
// idx-th neighbor this round.
type actIntent struct{ u, idx int32 }

// shard is the per-worker slice of a round: a contiguous node range plus
// the buffers its worker fills between barriers. Everything a worker
// writes lives either here or in per-node state it owns, which is what
// makes worker-count-independent determinism structural rather than
// lucky.
type shard struct {
	lo, hi int
	// intents are this shard's activations, in node order; merged into
	// exchanges serially at the round barrier.
	intents []actIntent
	// recs are this shard's due deliveries: index into the engine's due
	// list shifted left one, low bit = side (0 = initiator endpoint).
	recs []uint32
	// newlyInformed collects nodes that first saw the watched rumor this
	// round; folded into the informed tally at the barrier.
	newlyInformed []int32
	// mark is the word-path delivery scratch (NodeView.gainWindow): one
	// bit per rumor id, all zero between deliveries; allocated at the
	// shard's first word-path delivery.
	mark                 []int32
	minWake, sleeperWake int
	idle, called         bool
	err                  error
}

type engine struct {
	cfg    Config
	csr    *graph.CSR
	n      int
	views  []*NodeView
	protos []Protocol
	// Facet tables, indexed by node; a table is nil when no protocol on
	// the owned range implements its facet (facets), so every index site
	// checks the table first.
	sleeper  []Sleeper
	waiter   []Waiter
	meta     []MetaProducer
	amnesiac []AmnesiaReseter
	recv     []Receiver
	world    *World

	// metas is the phase's table of metadata versions, indexed by the
	// handles exchanges carry; metas[0] is nil, the handle of no
	// metadata. metaRefs[h] counts the pending exchange endpoints that
	// hold handle h: finishDeliveries releases each due exchange's two
	// handles, and a slot nothing holds any more is emptied onto metaFree
	// for the next version to reuse, so the table is as long as the most
	// versions in flight at once. metaOf[u] is the handle node u's
	// metadata was last interned at, a hint only: a producer handing out
	// that slice again while the slot still holds it reuses the handle,
	// so a version takes one slot however many exchanges it rides. load
	// empties the table (a phase starts with an empty calendar); metaOf
	// is allocated at the first intern.
	metas    [][]int32
	metaRefs []int32
	metaFree []int32
	metaOf   []int32

	// pcgArena/rngArena back every NodeView's private stream; kept on the
	// engine (not as setup locals) so a snapshot can copy the PCG cursors
	// and a restored engine can splice them back in.
	pcgArena []rand.PCG
	rngArena []rand.Rand

	watched graph.NodeID
	// informedAt[u] is negative exactly when u's set lacks the watched
	// rumor: load, amnesia, restore and every gain keep that true, so a
	// delivery that gains nothing need not look.
	informedAt []int
	wake       []int
	// jlen[u] is len(views[u].journal), and known is the arena every
	// NodeView's known slice views, indexed by half-edge. They are the
	// per-node words the round loop reads for a random peer, kept flat so
	// a delivery that moves no rumor never touches the peer's NodeView.
	// Every journal change (load, a delivery's gains, amnesia, a
	// distributed replica's gains, Snapshot.Resume) updates jlen with it.
	// learn: deliveries record latencies in known. A configuration that
	// knows every latency and draws no jitter learns nothing, so its views
	// read the CSR's latencies and known stays unallocated until a phase
	// does learn.
	jlen  []int32
	known []int32
	learn bool
	// all is the listing 0…n−1, made the first time a node's set is full:
	// a full node's journal is all[:n:n] (reseed), the ids it would list
	// in the order it would list them. Nothing writes it: no gain appends
	// to a full journal, and a journal is detached from it before it is
	// emptied to be written again (emptyJournal).
	all []int32
	// entry is what an amnesic rejoin restarts a node from besides its
	// Mode seeding: Config.InitialRumors, or the sets a Pipeline phase
	// entered with (kept only when the schedule has amnesia).
	entry []*bitset.Set
	// wordMin is the shortest window a bitmap receiver takes by the word:
	// wordWindowMin ids, and never fewer than the bitmap has words, so the
	// word pass costs at most what the window does.
	wordMin int
	// sent is the per-half-edge journal high-water mark (delta windows);
	// nil under latency jitter, which falls back to full prefixes.
	sent []int32

	// ring is the delivery calendar: bucket d&ringMask holds the
	// exchanges completing at round d, in seq order, for deliveries
	// within ringSize rounds; farther ones wait in overflow. Bucket
	// append order is seq order because initiations are merged in node
	// order round by round, so draining a bucket needs no sorting.
	ring      [][]exch
	ringMask  int
	ringCount int
	overflow  exchHeap
	// far is where slot builds an exchange bound for the overflow heap;
	// commit pushes it.
	far exch

	due    []exch // scratch: this round's deliveries in (deliver,seq) order
	dueBuf []exch // merge buffer when overflow items join a bucket
	// news is the round's captured journal windows, indexed like a shard
	// delivery record: news[i<<1] is what due[i]'s initiator receives (the
	// peer's window), news[i<<1|1] what the peer receives. Taken serially
	// at the drain, so cross-shard reads see immutable views; reused
	// across rounds and cleared when the round's deliveries are done.
	news [][]int32
	// spare is the drained bucket's backing array, handed forward to the
	// next first-touch slot: a drained slot is not due again for
	// len(ring) rounds, while the slot the current round schedules into
	// usually starts empty — recycling makes steady-state scheduling
	// allocation-free at fixed latency instead of regrowing a multi-MB
	// bucket every round.
	spare []exch
	// peak is the longest any bucket has been since load. A bucket that
	// must grow and finds no spare is sized from it instead of doubling
	// up from 16: a fresh engine's first len(ring) rounds touch every
	// bucket for the first time, and under mixed latencies a bucket keeps
	// filling for rounds after its first touch, from every latency that
	// reaches it.
	peak int
	// oneSlot: every edge has one latency and there is no jitter, so all
	// of a round's exchanges land in a single bucket; fill is then the
	// round's intent count while mergeIntents runs (0 otherwise), and a
	// bucket that must grow is sized to it at once instead of doubling.
	// Snapshot.restore sets fill to each captured bucket's length the
	// same way while it re-schedules that bucket.
	oneSlot bool
	fill    int
	// oneLat: every edge has the topology's maximum latency (oneSlot
	// without jitter); a property of the CSR, derived once.
	oneLat bool

	// shards are the execution shards this engine runs: every part of the
	// contiguous node partition on an ordinary engine, the one owned part
	// on a distributed shard worker. per is the partition's part width.
	shards []shard
	per    int

	// jitterPCG is the jitter draw stream, held by value (jitterRNG wraps
	// it) so snapshots can copy the cursor like any per-node stream.
	jitterPCG rand.PCG
	jitterRNG *rand.Rand
	useDelta  bool
	inCount   []int
	seq       int64
	res       Result

	// startRound is where the event loop enters (non-zero on a restored
	// engine). snapAt >= 0 arms a capture barrier: the loop freezes and
	// returns at the first processed round >= snapAt, recording it in
	// snapRound and setting snapped.
	startRound int
	snapAt     int
	snapRound  int
	snapped    bool

	// adv is the compiled fault schedule; advRNG holds the per-node
	// loss-draw PCG streams (allocated only when the schedule can lose
	// exchanges, and distinct from the protocol streams so faults do not
	// perturb protocol randomness).
	adv          *adversity.Schedule
	advPCG       []rand.PCG
	advRNG       []rand.Rand
	advEvents    []adversity.Event
	nextAdvEvent int

	// dist is the barrier seam of a distributed shard worker (nil in
	// ordinary runs); see dist.go.
	dist *distRun
}

// tally is what a round's epilogue needs to know about its activations,
// aggregated over the local shards and — on a distributed shard worker —
// folded with every other worker's frame at the barrier.
type tally struct {
	// quiet: nobody initiated, nothing is in flight, no Sleeper declared
	// a future wake and no fault event is still to come.
	quiet bool
	// waiting: a live Waiter holds a quiet run open.
	waiting bool
	// called: some protocol's Activate ran this round.
	called bool
	// soonest is the earliest eligible activation (plus, on a shard
	// worker, the earliest delivery other workers hold).
	soonest int
}

// down reports whether node u is unavailable at round (crashed or
// churned out per the adversity schedule).
func (e *engine) down(u int, round int) bool {
	return e.adv != nil && e.adv.Down(u, round)
}

func (e *engine) actualLatency(nominal int) int {
	if e.cfg.LatencyJitter == 0 {
		return nominal
	}
	f := 1 + e.cfg.LatencyJitter*(2*e.jitterRNG.Float64()-1)
	l := int(float64(nominal)*f + 0.5)
	if l < 1 {
		l = 1
	}
	return l
}

// partWidth is the part width of the contiguous k-way partition of
// [0,n): node u belongs to part u/partWidth (engine.ownerOf).
func partWidth(n, k int) int { return (n + k - 1) / k }

// partition returns part i of that partition; parts past the end are
// empty (k need not divide n, and may exceed it).
func partition(n, k, i int) (lo, hi int) {
	per := partWidth(n, k)
	return min(i*per, n), min((i+1)*per, n)
}

func nextPow2(x int) int {
	if x <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(x-1))
}

// csrHasEdge reports whether {u,v} is an edge of the topology (used to
// validate adversity schedules, not on any hot path).
func csrHasEdge(csr *graph.CSR, u, v int) bool {
	if u < 0 || u >= csr.N() || v < 0 || v >= csr.N() {
		return false
	}
	for _, nb := range csr.NeighborIDs(u) {
		if int(nb) == v {
			return true
		}
	}
	return false
}

// Run executes the simulation until stop returns true or the horizon is
// reached.
func Run(cfg Config, factory Factory, stop StopFunc) (Result, error) {
	e, err := newEngine(cfg, factory)
	if err != nil {
		return Result{}, err
	}
	return e.run(stop)
}

// Pipeline runs the phases of a multi-phase algorithm on one engine. The
// first phase builds the engine exactly as Run does. Every later phase
// reloads it in place (engine.load) and enters with the rumor sets the
// previous phase left, as if they were handed over as
// Config.InitialRumors, which a later phase must therefore leave nil. Each
// phase is thus bit-identical to a fresh Run seeded with the previous
// phase's FinalRumors, without rebuilding the arenas or materializing the
// sets. All phases share one topology (the same Config.CSR). A phase's
// Result, World included, is valid until the next phase starts; after a
// failed phase the Pipeline must not be used again. The zero value is
// ready to use.
type Pipeline struct{ e *engine }

// Run runs the pipeline's next phase.
func (p *Pipeline) Run(cfg Config, factory Factory, stop StopFunc) (Result, error) {
	if p.e == nil {
		e, err := newEngine(cfg, factory)
		if err != nil {
			return Result{}, err
		}
		p.e = e
	} else if err := p.e.load(cfg, factory, 0, 1, true); err != nil {
		return Result{}, err
	}
	return p.e.run(stop)
}

// newEngine validates cfg and builds a ready-to-run engine positioned at
// round 0: arenas, rumor seeding, protocol facets, the delivery calendar
// and the worker shards. Run is newEngine + run; snapshot restore
// (snapshot.go) builds the same fresh engine and splices captured state
// over it, which is why everything mutable lives in engine fields.
func newEngine(cfg Config, factory Factory) (*engine, error) {
	return newEngineShard(cfg, factory, 0, 1)
}

// newEngineShard is newEngine generalized to a distributed shard worker:
// with shardCount > 1 the engine still builds the full deterministic
// node-state arenas (views, journals, RNG streams, seeding — all
// derivable from cfg alone), but protocol instances and their facets are
// constructed only for the worker's contiguous node range, and the
// single execution shard covers exactly that range. shardCount <= 1 is
// the ordinary full-range engine.
func newEngineShard(cfg Config, factory Factory, shardIdx, shardCount int) (*engine, error) {
	csr := cfg.CSR
	if csr == nil {
		return nil, fmt.Errorf("sim: nil topology (Config.CSR is required)")
	}
	if err := csr.Validate(); err != nil {
		return nil, fmt.Errorf("sim: invalid graph: %w", err)
	}
	n := csr.N()
	e := &engine{csr: csr, n: n, wordMin: max(wordWindowMin, bitset.Words(n))}

	// NodeViews, known-latency tables, RNG states and the rumor sets'
	// first room are arena-allocated: a handful of slabs instead of ~5n
	// small objects keeps setup off the allocator's hot path at n=10⁶.
	viewArena := make([]NodeView, n)
	e.views = make([]*NodeView, n)
	e.protos = make([]Protocol, n)
	e.pcgArena = make([]rand.PCG, n)
	e.rngArena = make([]rand.Rand, n)
	e.oneLat = true
	first := bitset.FirstRoom(n)
	rumArena := make([]int32, n*first)
	for u := 0; u < n; u++ {
		for _, l := range csr.Latencies(u) {
			e.oneLat = e.oneLat && int(l) == csr.MaxLatency()
		}
		e.rngArena[u] = *rand.New(&e.pcgArena[u])
		viewArena[u] = NodeView{
			id:   u,
			n:    n,
			nbrs: csr.NeighborIDs(u),
			lats: csr.Latencies(u),
			rng:  &e.rngArena[u],
			rum:  rumArena[u*first : u*first : (u+1)*first],
		}
		e.views[u] = &viewArena[u]
	}
	e.informedAt = make([]int, n)
	e.wake = make([]int, n)
	e.jlen = make([]int32, n)
	e.world = &World{informed: bitset.New(n)}
	e.jitterRNG = rand.New(&e.jitterPCG)
	if err := e.load(cfg, factory, shardIdx, shardCount, false); err != nil {
		return nil, err
	}
	return e, nil
}

// load validates cfg and positions the engine at round 0 of it: it
// re-derives every table cfg shapes — RNG seeds, known latencies, the
// compiled fault schedule, rumor seeding and the informed tally, shards,
// protocols and their facets, transport state, an empty calendar — over
// the storage newEngineShard allocated. A fresh engine loads its one
// configuration. A Pipeline loads each later phase onto the same engine
// with carry set: the rumor sets stay as the previous phase left them and
// each journal is re-seeded from its set in ascending id order, the state
// a fresh engine given those sets as InitialRumors starts from.
func (e *engine) load(cfg Config, factory Factory, shardIdx, shardCount int, carry bool) error {
	csr, n := e.csr, e.n
	if cfg.CSR != csr {
		return fmt.Errorf("sim: the phases of a pipeline must share one topology")
	}
	if carry && cfg.InitialRumors != nil {
		return fmt.Errorf("sim: a pipeline phase carries the previous phase's rumor sets; Config.InitialRumors must be nil")
	}
	if cfg.Mode == 0 {
		cfg.Mode = OneToAll
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	// The calendar stores rounds as int32: the latest possible delivery,
	// the horizon plus a (jittered, < 2·MaxLatency+1) latency, must fit.
	if cfg.MaxRounds > math.MaxInt32-2*csr.MaxLatency()-1 {
		return fmt.Errorf("sim: horizon %d with max latency %d overflows the int32 round calendar", cfg.MaxRounds, csr.MaxLatency())
	}
	// LatencyJitter is part of config validation, not of the round loop:
	// anything that is not a finite value in [0,1) is rejected up front
	// (the negated-range form also catches NaN).
	if cfg.LatencyJitter != 0 && !(cfg.LatencyJitter >= 0 && cfg.LatencyJitter < 1) {
		return fmt.Errorf("sim: latency jitter %v outside [0,1)", cfg.LatencyJitter)
	}
	if cfg.Source < 0 || cfg.Source >= n {
		return fmt.Errorf("sim: source %d out of range", cfg.Source)
	}
	for _, s := range cfg.Sources {
		if s < 0 || s >= n {
			return fmt.Errorf("sim: source %d out of range", s)
		}
	}
	var sched *adversity.Schedule
	if !cfg.Adversity.Empty() {
		var err error
		sched, err = cfg.Adversity.Compile(n)
		if err != nil {
			return fmt.Errorf("sim: %w", err)
		}
		for _, ref := range sched.EdgeRefs() {
			if !csrHasEdge(csr, ref[0], ref[1]) {
				return fmt.Errorf("sim: adversity schedule references edge (%d,%d) not in the graph", ref[0], ref[1])
			}
		}
	}

	e.cfg, e.adv = cfg, sched
	e.seq = 0
	e.startRound, e.snapAt, e.snapRound, e.snapped = 0, -1, 0, false
	views, protos := e.views, e.protos
	e.learn = !cfg.KnownLatencies || cfg.LatencyJitter != 0
	if e.learn && e.known == nil {
		e.known = make([]int32, csr.HalfEdges())
	}
	for u, nv := range views {
		if !e.learn {
			nv.known = nv.lats
		} else {
			off := int(csr.Offset(u))
			nv.known = e.known[off : off+len(nv.lats) : off+len(nv.lats)]
			if cfg.KnownLatencies {
				copy(nv.known, nv.lats)
			} else {
				for i := range nv.known {
					nv.known[i] = -1
				}
			}
		}
		e.pcgArena[u].Seed(cfg.Seed, uint64(u)*0x9e3779b97f4a7c15+1)
	}

	watched := cfg.Source
	if len(cfg.Sources) > 0 {
		watched = cfg.Sources[0]
	}
	e.watched = watched
	informedAt := e.informedAt
	for i := range informedAt {
		informedAt[i] = -1
	}
	informed := e.world.informed
	informed.Clear()
	e.entry = cfg.InitialRumors
	switch {
	case carry:
		if cfg.Adversity.HasAmnesia() {
			// An amnesic rejoin restarts a node from the set it entered
			// the phase with.
			e.entry = rumorSets(views)
		}
		for u, nv := range views {
			e.reseed(nv)
			if nv.rum.Contains(watched) {
				informedAt[u] = 0
				informed.Add(u)
			}
		}
	case cfg.InitialRumors != nil:
		if len(cfg.InitialRumors) != n {
			return fmt.Errorf("sim: %d initial rumor sets for %d nodes", len(cfg.InitialRumors), n)
		}
		for u := 0; u < n; u++ {
			nv := views[u]
			e.seedFrom(nv, cfg.InitialRumors[u])
			if nv.rum.Contains(watched) {
				informedAt[u] = 0
				informed.Add(u)
			}
		}
	case cfg.Mode == OneToAll && len(cfg.Sources) > 0:
		for _, s := range cfg.Sources {
			views[s].gain(s)
		}
		informedAt[watched] = 0
		informed.Add(watched)
	case cfg.Mode == OneToAll:
		views[cfg.Source].gain(cfg.Source)
		informedAt[cfg.Source] = 0
		informed.Add(cfg.Source)
	case cfg.Mode == AllToAll:
		for u := 0; u < n; u++ {
			views[u].gain(u)
		}
		informedAt[watched] = 0
		informed.Add(watched)
	default:
		return fmt.Errorf("sim: unknown rumor mode %d", cfg.Mode)
	}
	for u, nv := range views {
		e.jlen[u] = int32(len(nv.journal))
	}

	// One contiguous partition serves both execution modes: a worker-
	// sharded engine runs every part, a distributed shard worker runs part
	// shardIdx of shardCount as a single shard (the goroutine fan-out is
	// pointless on a worker that owns one contiguous slice of the network).
	parts := max(1, min(cfg.Workers, n))
	count := parts
	if shardCount > 1 {
		parts, count = shardCount, 1
	}
	if len(e.shards) != count {
		e.shards = make([]shard, count)
	}
	e.per = partWidth(n, parts)
	for i := range e.shards {
		s := &e.shards[i]
		lo, hi := partition(n, parts, shardIdx+i)
		*s = shard{lo: lo, hi: hi, intents: s.intents[:0], recs: s.recs[:0], newlyInformed: s.newlyInformed[:0], mark: s.mark}
		if cap(s.intents) < hi-lo {
			s.intents = make([]actIntent, 0, hi-lo)
		}
	}

	// A distributed shard worker instantiates protocols only for its
	// owned range; remote entries stay nil and are never invoked (remote
	// protocol effects arrive through barrier frames instead).
	ownLo, ownHi := e.owned()
	for u := ownLo; u < ownHi; u++ {
		protos[u] = factory(views[u])
		if protos[u] == nil {
			return fmt.Errorf("sim: factory returned nil protocol for node %d", u)
		}
	}
	e.sleeper = facets(e.sleeper, protos, ownLo, ownHi)
	e.waiter = facets(e.waiter, protos, ownLo, ownHi)
	e.meta = facets(e.meta, protos, ownLo, ownHi)
	e.amnesiac = facets(e.amnesiac, protos, ownLo, ownHi)
	e.recv = facets(e.recv, protos, ownLo, ownHi)

	e.advEvents, e.nextAdvEvent = nil, 0
	if sched != nil {
		// Crash/leave/rejoin transitions are calendar events, applied
		// serially at the top of their round: a stop condition
		// quantifying over alive nodes can flip there with no other
		// activity.
		e.advEvents = sched.Events()
	}
	if sched != nil && sched.HasLoss() {
		if e.advPCG == nil {
			e.advPCG = make([]rand.PCG, n)
			e.advRNG = make([]rand.Rand, n)
			for u := range e.advRNG {
				e.advRNG[u] = *rand.New(&e.advPCG[u])
			}
		}
		for u := range e.advPCG {
			e.advPCG[u].Seed(cfg.Seed^0xa5a5f00dd00dfeed, uint64(u)*0x9e3779b97f4a7c15+0x632be59bd9b4e019)
		}
	} else {
		e.advPCG, e.advRNG = nil, nil
	}

	dones := facets(e.world.dones, protos, ownLo, ownHi)
	leaders := facets(e.world.leaders, protos, ownLo, ownHi)
	*e.world = World{
		CSR: csr, Views: views, Protos: protos,
		adv: sched, watched: watched, informed: informed,
		dones: dones, leaders: leaders,
	}
	e.res = Result{InformedAt: informedAt, World: e.world}

	e.jitterPCG.Seed(cfg.Seed^0xdeadbeefcafe, 0x5851f42d4c957f2d)
	// Delta windows require exchanges on an edge to deliver in initiation
	// order; jitter can reorder them, so it falls back to full prefixes.
	e.useDelta = cfg.LatencyJitter == 0
	e.oneSlot = e.oneLat && e.useDelta
	e.sent = zeroed(e.sent, csr.HalfEdges(), e.useDelta)
	e.inCount = zeroed(e.inCount, n, cfg.MaxInPerRound > 0)
	clear(e.wake)

	// Calendar ring: sized to cover every achievable delivery delta when
	// that is small, capped otherwise (slow-edge deliveries overflow to
	// the heap, which stays tiny because slow edges are, by the paper's
	// economics, the rare ones).
	maxDelta := csr.MaxLatency()
	if cfg.LatencyJitter > 0 {
		maxDelta = 2*maxDelta + 1
	}
	ringSize := min(nextPow2(maxDelta+2), 1<<13)
	if len(e.ring) != ringSize {
		e.ring = make([][]exch, ringSize)
	}
	// A pipeline's previous phase may have stopped with exchanges still
	// in flight: they die with it.
	for i, b := range e.ring {
		clear(b)
		e.ring[i] = b[:0]
	}
	e.ringMask, e.ringCount, e.peak = ringSize-1, 0, 0
	clear(e.overflow)
	e.overflow = e.overflow[:0]
	e.due, e.fill = nil, 0
	// Metadata handles die with the exchanges that carried them.
	clear(e.metas)
	e.metas, e.metaRefs = append(e.metas[:0], nil), append(e.metaRefs[:0], 0)
	e.metaFree = e.metaFree[:0]
	clear(e.metaOf)
	return nil
}

// zeroed returns a zeroed table of n entries when want is set, reusing
// old's storage when it has the size, and nil otherwise.
func zeroed[T any](old []T, n int, want bool) []T {
	if !want {
		return nil
	}
	if len(old) != n {
		return make([]T, n)
	}
	clear(old)
	return old
}

// rumorSets materializes every node's rumor set as a bitset.Set.
func rumorSets(views []*NodeView) []*bitset.Set {
	out := make([]*bitset.Set, len(views))
	for i, nv := range views {
		out[i] = nv.rum.Set(nv.n)
	}
	return out
}

// facets resolves facet F of the protocols on [lo,hi) once instead of
// per round: a table indexed by node, or nil when none of them has F.
// Facets are fixed per protocol, and a protocol usually has few of them
// (non-blocking push-pull one of seven), so most tables are never
// allocated. A reload refills the previous table, prev, when it has the
// size.
func facets[F any](prev []F, protos []Protocol, lo, hi int) []F {
	var fs []F
	for u := lo; u < hi; u++ {
		if f, ok := protos[u].(F); ok {
			if fs == nil {
				fs = zeroed(prev, len(protos), true)
			}
			fs[u] = f
		}
	}
	return fs
}

// facet is node u's entry in a facet table: nil when the node, or every
// protocol, lacks the facet.
func facet[F any](fs []F, u int) F {
	if fs == nil {
		var none F
		return none
	}
	return fs[u]
}

// parallel runs stage (a method expression such as
// (*engine).deliverShard) for round over every shard: inline when
// serial, fanned across goroutines otherwise. Taking the round and a
// method expression rather than a closure keeps the serial round loop
// free of per-round allocations. stage must only touch shard-local
// buffers and per-node state owned by the shard's range.
func (e *engine) parallel(round int, stage func(e *engine, s *shard, round int)) {
	if len(e.shards) == 1 {
		stage(e, &e.shards[0], round)
		return
	}
	var wg sync.WaitGroup
	for i := range e.shards {
		wg.Add(1)
		go func(s *shard) {
			defer wg.Done()
			stage(e, s, round)
		}(&e.shards[i])
	}
	wg.Wait()
}

// ownerOf is the index of the partition part holding node u.
func (e *engine) ownerOf(u int32) int { return int(u) / e.per }

// shardOf returns the execution shard that owns node u, or nil when u
// belongs to another worker of a distributed run. Only a worker-sharded
// engine, which owns every node, pays the division; a single shard is a
// range test.
func (e *engine) shardOf(u int32) *shard {
	if len(e.shards) > 1 {
		return &e.shards[e.ownerOf(u)]
	}
	if s := &e.shards[0]; int(u) >= s.lo && int(u) < s.hi {
		return s
	}
	return nil
}

// owned is the node range this engine's shards cover.
func (e *engine) owned() (lo, hi int) {
	return e.shards[0].lo, e.shards[len(e.shards)-1].hi
}

// slot returns the zeroed entry an exchange completing at deliver,
// scheduled at round, will occupy: the next one of its calendar bucket
// when the delivery is near, the engine's far scratch otherwise. The
// caller builds the exchange in place and then commits it; nothing may be
// scheduled in between.
func (e *engine) slot(deliver, round int) *exch {
	if deliver-round >= len(e.ring) {
		e.far = exch{}
		return &e.far
	}
	i := deliver & e.ringMask
	b := e.ring[i]
	if len(b) == cap(b) {
		b = e.grow(b)
	}
	b = b[:len(b)+1]
	e.ring[i] = b
	e.ringCount++
	e.peak = max(e.peak, len(b))
	ex := &b[len(b)-1]
	*ex = exch{}
	return ex
}

// commit finishes scheduling ex, the entry slot returned: a far exchange
// joins the overflow heap; a near one is in its bucket already.
func (e *engine) commit(ex *exch) {
	if ex == &e.far {
		heap.Push(&e.overflow, e.far)
	}
}

// grow returns full bucket b with room to spare: the handed-forward spare
// array when b is a first touch and the spare holds the round's fill,
// otherwise a fresh array of max(2·max(cap(b), peak), fill). On a
// one-slot calendar one allocation holds the whole round; elsewhere a
// bucket takes at once the doubling that the longest bucket of the phase
// would need, so the first len(ring) rounds do not grow every bucket
// through the same chain.
func (e *engine) grow(b []exch) []exch {
	if cap(b) == 0 && cap(e.spare) > 0 && cap(e.spare) >= e.fill {
		b, e.spare = e.spare, nil
		return b
	}
	nb := make([]exch, len(b), max(2*max(cap(b), e.peak), e.fill, 16))
	copy(nb, b)
	return nb
}

func (e *engine) pendingLen() int { return e.ringCount + len(e.overflow) }

// nextDeliver returns the earliest round > round with a pending
// delivery, or -1 when nothing is in flight.
func (e *engine) nextDeliver(round int) int {
	nd := -1
	if e.ringCount > 0 {
		for d := round + 1; d <= round+len(e.ring); d++ {
			if len(e.ring[d&e.ringMask]) > 0 {
				nd = d
				break
			}
		}
	}
	if len(e.overflow) > 0 && (nd < 0 || int(e.overflow[0].deliver) < nd) {
		nd = int(e.overflow[0].deliver)
	}
	return nd
}

// collectDue gathers the exchanges completing at round into e.due in
// (deliver, seq) order, merging overflow-heap items with the calendar
// bucket when slow-edge deliveries fall due.
func (e *engine) collectDue(round int) {
	bucket := e.ring[round&e.ringMask]
	e.ringCount -= len(bucket)
	if len(e.overflow) > 0 && int(e.overflow[0].deliver) <= round {
		// Merge overflow items (popped in seq order) with the bucket
		// (already in seq order) into the scratch buffer.
		e.dueBuf = e.dueBuf[:0]
		var hot []exch
		for len(e.overflow) > 0 && int(e.overflow[0].deliver) <= round {
			hot = append(hot, heap.Pop(&e.overflow).(exch))
		}
		i, j := 0, 0
		for i < len(hot) && j < len(bucket) {
			if hot[i].seq < bucket[j].seq {
				e.dueBuf = append(e.dueBuf, hot[i])
				i++
			} else {
				e.dueBuf = append(e.dueBuf, bucket[j])
				j++
			}
		}
		e.dueBuf = append(e.dueBuf, hot[i:]...)
		e.dueBuf = append(e.dueBuf, bucket[j:]...)
		e.due = e.dueBuf
	} else {
		e.due = bucket
	}
}

// drainDue collects the exchanges completing at round into e.due in
// (deliver, seq) order, applies schedule drops and payload accounting,
// and routes per-endpoint delivery records to the owning shards. On a
// distributed shard worker only owned endpoints get records, and the
// counters go to the initiating node's owner, so the workers' partial
// sums reproduce the serial totals.
func (e *engine) drainDue(round int) {
	e.collectDue(round)
	w := 2 * len(e.due)
	// The scratch grows by doubling: a run's rounds ramp up through many
	// sizes, and sizing it to each would allocate it once per new size.
	if cap(e.news) < w {
		e.news = make([][]int32, max(w, 2*cap(e.news)))
	}
	e.news = e.news[:w]
	if s := &e.shards[0]; len(e.shards) == 1 && cap(s.recs) < w {
		s.recs = make([]uint32, 0, max(w, 2*cap(s.recs)))
	}
	for i := range e.due {
		ex := &e.due[i]
		su := e.shardOf(ex.u)
		// Adversity losses (ex.lost) were decided at initiation and are
		// executed here: no payload, no delivery records.
		if ex.lost {
			if su != nil {
				e.res.Dropped++
			}
			continue
		}
		// An empty window stays a nil News, and its sender's view unread.
		if ex.vStart < ex.vEnd {
			e.news[i<<1] = e.views[ex.v].journal[ex.vStart:ex.vEnd]
		}
		if ex.uStart < ex.uEnd {
			e.news[i<<1|1] = e.views[ex.u].journal[ex.uStart:ex.uEnd]
		}
		if su != nil {
			e.res.Delivered++
			// The journal prefix length at initiation is the full snapshot
			// size: payload accounting is identical to the cloning engine.
			e.res.RumorPayload += int64(ex.uEnd) + int64(ex.vEnd)
			su.recs = append(su.recs, uint32(i)<<1)
		}
		if sv := e.shardOf(ex.v); sv != nil {
			sv.recs = append(sv.recs, uint32(i)<<1|1)
		}
	}
}

// deliverShard applies this shard's due deliveries: rumor gains, latency
// discovery, informed bookkeeping and, for a node with a Receiver, the
// OnDeliver callback — all against node state this shard owns. The news
// windows were captured into e.news at the serial drain, so cross-shard
// journal reads see immutable data. A distributed shard worker also appends every gain to its
// outgoing frame, in application order: that is the owner's journal
// order, which every replica must reproduce.
func (e *engine) deliverShard(s *shard, round int) {
	watched := int32(e.watched)
	var gains []DistGain
	if e.dist != nil {
		gains = e.dist.frame.Gains
	}
	for _, enc := range s.recs {
		ex := &e.due[enc>>1]
		news := e.news[enc]
		var self, peer, selfIdx, meta int32
		initiator := enc&1 == 0
		if initiator {
			self, peer, selfIdx, meta = ex.u, ex.v, ex.uIdx, ex.vMeta
		} else {
			self, peer, selfIdx, meta = ex.v, ex.u, ex.vIdx, ex.uMeta
		}
		gained := 0
		// An empty window, or a receiver holding every rumor already,
		// moves nothing: the receiver's view goes unread.
		if len(news) > 0 && int(e.jlen[self]) < e.n {
			nv := e.views[self]
			if nv.rum.Dense() && len(news) >= e.wordMin {
				if s.mark == nil {
					s.mark = make([]int32, bitset.Words(e.n))
				}
				before := len(nv.journal)
				nv.gainWindow(news, s.mark)
				gained = len(nv.journal) - before
				if e.dist != nil {
					for _, r := range nv.journal[before:] {
						gains = append(gains, DistGain{Node: self, Rumor: r})
					}
				}
			} else {
				for _, r := range news {
					if nv.gain(int(r)) {
						gained++
						if e.dist != nil {
							gains = append(gains, DistGain{Node: self, Rumor: r})
						}
					}
				}
			}
			e.jlen[self] = int32(len(nv.journal))
			if gained > 0 && e.informedAt[self] < 0 && nv.rum.Contains(int(watched)) {
				e.informedAt[self] = int(ex.deliver)
				s.newlyInformed = append(s.newlyInformed, self)
			}
		}
		if e.learn {
			e.known[e.csr.Offset(int(self))+selfIdx] = ex.latency
		}
		if e.wake[self] > round {
			e.wake[self] = round
		}
		if r := facet(e.recv, int(self)); r != nil {
			r.OnDeliver(Delivery{
				Round:         int(ex.deliver),
				InitRound:     int(ex.initRound),
				Peer:          int(peer),
				NeighborIndex: int(selfIdx),
				Latency:       int(ex.latency),
				Initiator:     initiator,
				News:          news,
				NewRumors:     gained,
				PeerMeta:      e.metas[meta],
			})
		}
	}
	s.recs = s.recs[:0]
	if e.dist != nil {
		e.dist.frame.Gains = gains
	}
}

// finishDeliveries folds shard-local informed events into the global
// tally and releases this round's delivery storage.
func (e *engine) finishDeliveries(round int) {
	for i := range e.shards {
		s := &e.shards[i]
		for _, u := range s.newlyInformed {
			e.world.informed.Add(int(u))
		}
		s.newlyInformed = s.newlyInformed[:0]
	}
	clear(e.news)
	e.news = e.news[:0]
	if len(e.metas) > 1 {
		for i := range e.due {
			e.release(e.due[i].uMeta)
			e.release(e.due[i].vMeta)
		}
	}
	slot := round & e.ringMask
	if b := e.ring[slot][:0]; cap(b) > cap(e.spare) {
		e.ring[slot], e.spare = nil, b
	} else {
		e.ring[slot] = b
	}
	e.due = nil
}

// activateShard runs the activation scan for this shard's node range:
// wake filtering, Activate calls (each node draws only from its own RNG
// stream), NextWake scheduling, and intent buffering in node order.
func (e *engine) activateShard(s *shard, round int) {
	s.minWake, s.sleeperWake = never, never
	s.idle, s.called = true, false
	for u := s.lo; u < s.hi; u++ {
		if e.down(u, round) {
			continue
		}
		if e.wake[u] > round {
			if e.wake[u] < s.minWake {
				s.minWake = e.wake[u]
			}
			if facet(e.sleeper, u) != nil && e.wake[u] < s.sleeperWake {
				s.sleeperWake = e.wake[u]
			}
			continue
		}
		s.called = true
		idx, ok := e.protos[u].Activate(round)
		if ok {
			if idx < 0 || idx >= len(e.views[u].nbrs) {
				if s.err == nil {
					s.err = fmt.Errorf("sim: node %d activated invalid neighbor index %d", u, idx)
				}
			} else {
				s.idle = false
				s.intents = append(s.intents, actIntent{u: int32(u), idx: int32(idx)})
			}
		}
		next := round + 1
		sl := facet(e.sleeper, u)
		if sl != nil {
			if w := sl.NextWake(round); w > next {
				next = w
			}
		}
		e.wake[u] = next
		if next < s.minWake {
			s.minWake = next
		}
		if sl != nil && next < s.sleeperWake {
			s.sleeperWake = next
		}
	}
}

// fate decides, at initiation, whether the exchange u initiates with v
// at round is lost in transit. It is fixed serially in node order:
// schedule drops (a churned-out endpoint or flapped link anywhere in the
// transit window) are static, and loss draws come from the initiator's
// dedicated PCG stream — only for exchanges the schedule did not already
// kill. A node initiates at most one exchange per round, so a shard
// worker pre-drawing its own nodes' fates advances every stream exactly
// as the serial merge does.
func (e *engine) fate(u, v, round, deliver int) bool {
	if e.adv.DownDuring(u, round, deliver) || e.adv.DownDuring(v, round, deliver) ||
		e.adv.LinkDownDuring(u, v, round, deliver) {
		return true
	}
	if e.advRNG != nil {
		if p := e.adv.LossProb(u, v); p > 0 && e.advRNG[u].Float64() < p {
			return true
		}
	}
	return false
}

// mergeIntents turns this round's activations into scheduled exchanges,
// in node order across shards — the same order for every worker and
// shard count, so in-degree caps, jitter draws, sequence numbers and meta
// sampling are identical in every execution mode. An ordinary engine
// (frames == nil) resolves its local shards' intents here; a distributed
// shard worker merges the barrier bundle, whose intents their owners
// already resolved (peer, latency, loss fate): every intent advances the
// global sequence number, but only exchanges touching the owned range are
// scheduled, and the counters go to the initiator's owner. It returns the
// earliest delivery round among the bundle's new exchanges, touching or
// not (never for an ordinary engine, whose calendar holds them all).
//
// The body is deliberately one loop, and each exchange is built where it
// will live: the calendar entry slot hands out, filled in place and then
// committed, so the 64-byte exch is never copied on the serial hot path.
func (e *engine) mergeIntents(round int, frames []*DistFrame) int {
	d := e.dist
	minNew := never
	lists := len(e.shards)
	if frames != nil {
		lists = len(frames)
	} else if e.oneSlot {
		// Every exchange of the round lands in one bucket: let slot size
		// it for all of them at once. (A shard worker schedules only the
		// exchanges touching its range, so it grows by doubling.)
		for i := range e.shards {
			e.fill += len(e.shards[i].intents)
		}
	}
	for li := 0; li < lists; li++ {
		var local []actIntent
		var wire []DistIntent
		if frames == nil {
			local = e.shards[li].intents
			e.shards[li].intents = local[:0]
		} else {
			wire = frames[li].Intents
		}
		for i, cnt := 0, len(local)+len(wire); i < cnt; i++ {
			var u, idx, v, vIdx, lat int
			lost, mine := false, true
			if frames == nil {
				u, idx = int(local[i].u), int(local[i].idx)
				v = int(e.csr.NeighborIDs(u)[idx])
				if e.inCount != nil {
					if e.inCount[v] >= e.cfg.MaxInPerRound {
						// Bounded in-degree: the connection is refused; the
						// attempt still costs a message.
						e.res.Messages++
						e.res.Dropped++
						continue
					}
					e.inCount[v]++
				}
				lat = e.actualLatency(int(e.csr.Latencies(u)[idx]))
				vIdx = e.csr.PeerIndex(u, idx)
				if e.adv != nil {
					lost = e.fate(u, v, round, round+lat)
				}
			} else {
				in := &wire[i]
				u, idx, v, vIdx, lat, lost = int(in.U), int(in.Idx), int(in.V), int(in.VIdx), int(in.Lat), in.Lost
				minNew = min(minNew, round+lat)
				mine = e.shardOf(in.U) != nil
				vOwned := e.shardOf(in.V) != nil
				if !mine && !vOwned {
					e.seq++
					continue
				}
				if mine != vOwned && d.stats != nil {
					d.stats.CrossIntents++
				}
			}
			ex := e.slot(round+lat, round)
			ex.deliver, ex.initRound, ex.seq = int32(round+lat), int32(round), e.seq
			ex.u, ex.v, ex.uIdx, ex.vIdx = int32(u), int32(v), int32(idx), int32(vIdx)
			ex.latency, ex.uEnd, ex.vEnd, ex.lost = int32(lat), e.jlen[u], e.jlen[v], lost
			e.seq++
			if e.sent != nil && !lost {
				// High-water marks advance only on exchanges that will
				// deliver, so delta windows chain exactly over the
				// delivered sequence of each edge: an adversity drop in
				// the middle of an edge's history cannot eat rumors.
				hu := e.csr.HalfIndex(u, idx)
				hv := e.csr.HalfIndex(v, vIdx)
				ex.uStart = e.sent[hu]
				ex.vStart = e.sent[hv]
				e.sent[hu] = ex.uEnd
				e.sent[hv] = ex.vEnd
			}
			// A remote endpoint's metadata is what its owner shipped over
			// the meta sub-barrier (none when it has no MetaProducer).
			if mp := facet(e.meta, u); mp != nil {
				ex.uMeta = e.intern(u, mp.Meta())
			} else if d != nil {
				if m, ok := d.remoteMeta[int32(u)]; ok {
					ex.uMeta = e.intern(u, m)
				}
			}
			if mp := facet(e.meta, v); mp != nil {
				ex.vMeta = e.intern(v, mp.Meta())
			} else if d != nil {
				if m, ok := d.remoteMeta[int32(v)]; ok {
					ex.vMeta = e.intern(v, m)
				}
			}
			e.commit(ex)
			if mine {
				e.res.Exchanges++
				e.res.Messages += 2
			}
		}
	}
	e.fill = 0
	return minNew
}

// intern returns a handle of m, node u's metadata at an initiation, held
// once more: the handle u's last sample got when its slot still holds
// that same slice, otherwise a free or new slot of the phase's table (nil
// is handle 0 and is not counted).
func (e *engine) intern(u int, m []int32) int32 {
	if m == nil {
		return 0
	}
	if e.metaOf == nil {
		e.metaOf = make([]int32, e.n)
	}
	h := e.metaOf[u]
	if last := e.metas[h]; last == nil || len(last) != len(m) || (len(m) > 0 && &last[0] != &m[0]) {
		if k := len(e.metaFree); k > 0 {
			h, e.metaFree = e.metaFree[k-1], e.metaFree[:k-1]
		} else {
			h = int32(len(e.metas))
			e.metas, e.metaRefs = extend(e.metas), extend(e.metaRefs)
		}
		e.metas[h] = m
		e.metaOf[u] = h
	}
	e.metaRefs[h]++
	return h
}

// extend returns s one zero element longer, doubling its array when it
// is full: append grows a long slice by a quarter at a time, and that
// chain of copies outweighs the slice itself.
func extend[T any](s []T) []T {
	if len(s) == cap(s) {
		s = append(make([]T, 0, 2*cap(s)), s...)
	}
	s = s[:len(s)+1]
	var zero T
	s[len(s)-1] = zero
	return s
}

// release drops one hold on handle h, emptying its slot onto the free
// list when nothing holds it any more.
func (e *engine) release(h int32) {
	if h == 0 {
		return
	}
	e.metaRefs[h]--
	if e.metaRefs[h] == 0 {
		e.metas[h] = nil
		e.metaFree = append(e.metaFree, h)
	}
}

// seedFrom seeds node nv from a previous phase's rumor set; the journal
// lists it in ascending id order.
func (e *engine) seedFrom(nv *NodeView, src *bitset.Set) {
	nv.rum.Load(src)
	e.reseed(nv)
}

// reseed rewrites nv's journal as its set in ascending id order — the
// journal seedFrom gives a fresh node seeded with that set. A pipeline
// phase run on the previous phase's engine enters through it. A full set
// lists as 0…n−1, so a full node takes the engine's one listing instead
// of writing n ids, and its own journal storage is let go.
func (e *engine) reseed(nv *NodeView) {
	if nv.rum.Len() == e.n {
		if e.all == nil {
			e.all = make([]int32, e.n)
			for i := range e.all {
				e.all[i] = int32(i)
			}
		}
		nv.journal = e.all[:e.n:e.n]
		return
	}
	nv.journal = nv.rum.AppendTo(e.emptyJournal(nv))
}

// emptyJournal returns nv's journal emptied, to be written again: its own
// storage truncated, or none when it is the engine's listing, which what
// a truncated journal appends would overwrite. Every path that rewrites a
// journal from empty takes it from here.
func (e *engine) emptyJournal(nv *NodeView) []int32 {
	if j := nv.journal; cap(j) > 0 && len(e.all) > 0 && &j[:1][0] == &e.all[0] {
		return nil
	}
	return nv.journal[:0]
}

// amnesia resets node u to its initial rumor assignment: the journal and
// membership set are cleared (safe: any exchange whose windows reference
// the old journal was in flight across the down interval and is lost),
// the node's delta high-water marks are rewound so peers receive its
// rebuilt state from scratch, the informed tally is corrected, and the
// protocol is told to restart (AmnesiaReseter). In a multi-phase
// pipeline "initial assignment" means the state the node entered the
// current phase with (Config.InitialRumors, or what a Pipeline phase was
// loaded with: engine.entry) — the restart cannot reach behind the phase
// boundary. Runs serially inside the event loop.
func (e *engine) amnesia(u int, round int) {
	nv := e.views[u]
	nv.rum = nv.rum[:0]
	nv.journal = e.emptyJournal(nv)
	if e.sent != nil {
		off := int(e.csr.Offset(u))
		for i := 0; i < e.csr.Degree(u); i++ {
			// u's own marks track its truncated journal; the peers'
			// marks toward u promise "u already has this prefix", which
			// amnesia just broke — both directions rewind to zero.
			e.sent[off+i] = 0
			v := int(nv.nbrs[i])
			e.sent[e.csr.HalfIndex(v, e.csr.PeerIndex(u, i))] = 0
		}
	}
	switch {
	case e.entry != nil:
		e.seedFrom(nv, e.entry[u])
	case e.cfg.Mode == OneToAll && len(e.cfg.Sources) > 0:
		for _, s := range e.cfg.Sources {
			if s == u {
				nv.gain(u)
				break
			}
		}
	case e.cfg.Mode == OneToAll:
		if u == e.cfg.Source {
			nv.gain(u)
		}
	default: // AllToAll re-generates the node's own rumor
		nv.gain(u)
	}
	e.jlen[u] = int32(len(nv.journal))
	if nv.rum.Contains(e.watched) {
		if e.informedAt[u] < 0 {
			e.informedAt[u] = round
		}
		e.world.informed.Add(u)
	} else {
		e.informedAt[u] = -1
		e.world.informed.Remove(u)
	}
	if a := facet(e.amnesiac, u); a != nil {
		a.OnAmnesia()
	}
}

// applyFaultEvents applies every rejoin scheduled at or before round, in
// calendar order: the amnesia reset and the wake. A crash or leave needs
// no engine state (World.Alive asks the schedule); its calendar entry
// only makes its round one the stop condition sees. The calendar is
// config-derived, so on distributed shard workers every replica applies
// it identically — including the amnesia data reset of remote nodes
// (protocol-facet restarts happen owner-side only; remote facets are
// nil).
func (e *engine) applyFaultEvents(round int) {
	for e.nextAdvEvent < len(e.advEvents) && e.advEvents[e.nextAdvEvent].Round <= round {
		ev := &e.advEvents[e.nextAdvEvent]
		for _, rj := range ev.Rejoin {
			if rj.Amnesia {
				e.amnesia(rj.Node, round)
			}
			// A rejoin is a wake event: the node may act this round.
			if e.wake[rj.Node] > round {
				e.wake[rj.Node] = round
			}
		}
		e.nextAdvEvent++
	}
}

// nextRound jumps to the next round where anything can change: soonest
// (the earliest eligible activation, plus — on a shard worker — the
// earliest delivery other shards hold), a pending local delivery, a
// scheduled fault event — or the immediately following round when
// protocols acted this round, since a stop condition over protocol
// state may flip then.
func (e *engine) nextRound(round, soonest int, called bool) int {
	next := soonest
	if nd := e.nextDeliver(round); nd >= 0 && nd < next {
		next = nd
	}
	if e.nextAdvEvent < len(e.advEvents) && e.advEvents[e.nextAdvEvent].Round < next {
		next = e.advEvents[e.nextAdvEvent].Round
	}
	if called && round+1 < next {
		next = round + 1
	}
	if next <= round {
		next = round + 1
	}
	return next
}

// ownedWaiting reports a live Waiter on the owned node range.
func (e *engine) ownedWaiting(round int) bool {
	if e.waiter == nil {
		return false
	}
	lo, hi := e.owned()
	for u := lo; u < hi; u++ {
		if w := e.waiter[u]; w != nil && !e.down(u, round) && w.Waiting() {
			return true
		}
	}
	return false
}

// finish stamps the final round and completion flag on the result.
func (e *engine) finish(round int, completed bool) (Result, error) {
	e.res.Rounds = round
	e.res.Completed = completed
	return e.res, nil
}

// run is the round loop of every execution mode: serial and
// worker-sharded engines run it as is, a distributed shard worker
// (e.dist != nil) runs the same stages on its owned range and meets the
// other workers at one barrier per round (distRun, dist.go).
func (e *engine) run(stop StopFunc) (Result, error) {
	d := e.dist
	for round := e.startRound; round <= e.cfg.MaxRounds; {
		// Capture barrier: the top of an iteration is the one point where
		// no intermediate state exists — due is nil, shard buffers are
		// empty, this round's fault events are unprocessed — so
		// freezing here and re-entering at the same round replays the
		// iteration exactly. Round jumps may overshoot snapAt; the round
		// actually captured is recorded, and it is by construction a round
		// the cold run would also have processed.
		if e.snapAt >= 0 && round >= e.snapAt {
			e.snapped = true
			e.snapRound = round
			return e.res, nil
		}
		e.world.Round = round
		e.applyFaultEvents(round)
		if d != nil {
			d.begin(round)
		}
		e.drainDue(round)
		e.parallel(round, (*engine).deliverShard)
		e.finishDeliveries(round)
		// The one ordering difference between the modes: an ordinary
		// engine evaluates stop here, before activating. A shard worker
		// needs the barrier to evaluate it, so it only captures what stop
		// reads of protocol state, activates first — paying one barrier
		// per round, not two — and evaluates stop inside the barrier
		// against this pre-activation capture.
		if d != nil {
			d.frame.DonePre, d.frame.LeadPre = d.capture()
		} else if stop(e.world) {
			return e.finish(round, true)
		}
		if e.inCount != nil {
			for i := range e.inCount {
				e.inCount[i] = 0
			}
		}
		e.parallel(round, (*engine).activateShard)

		t := tally{quiet: true, soonest: never}
		sleeperWake := never
		for i := range e.shards {
			s := &e.shards[i]
			t.quiet = t.quiet && s.idle
			t.called = t.called || s.called
			t.soonest = min(t.soonest, s.minWake)
			// sleeperWake tracks the earliest round an alive Sleeper has
			// explicitly scheduled (timers and the like): unlike the
			// default wake-next-round of plain protocols, a declared
			// future wake is pending activity and must suppress the
			// idle-termination check.
			sleeperWake = min(sleeperWake, s.sleeperWake)
		}
		// Quiet: nothing in flight, nobody initiated this round, and no
		// leave/rejoin transition is still to come (a rejoin re-wakes its
		// node; a leave can flip an alive-quantified stop). Unless a
		// protocol is waiting on an internal timer (Waiter), nobody will
		// ever act again. No intents means the merge below schedules
		// nothing, so the calendar can be judged before it.
		t.quiet = t.quiet && e.pendingLen() == 0 && sleeperWake == never && e.nextAdvEvent >= len(e.advEvents)
		t.waiting = t.quiet && e.ownedWaiting(round)

		var frames []*DistFrame
		if d == nil {
			for i := range e.shards {
				if err := e.shards[i].err; err != nil {
					return e.res, err
				}
			}
		} else {
			var stopped bool
			var err error
			if frames, stopped, err = d.barrier(round, stop, &t); err != nil {
				return e.res, err
			} else if stopped {
				return e.finish(round, true)
			}
		}
		t.soonest = min(t.soonest, e.mergeIntents(round, frames))
		if t.quiet && !t.waiting {
			// The run is over; stop is asked once more whether it ended
			// complete (on a shard worker against the post-activation
			// capture, the state an ordinary engine reads directly).
			if d != nil {
				d.loadCapture(frames, true)
			}
			return e.finish(round, stop(e.world))
		}
		round = e.nextRound(round, t.soonest, t.called)
	}
	return e.finish(e.cfg.MaxRounds, false)
}
