package sim

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// Distributed execution: one simulation sharded across cooperating
// worker processes (or goroutines), bit-identical to a serial run.
//
// There is no distributed round loop. A shard worker runs engine.run —
// the same drain, deliver, activate and merge stages as a serial engine,
// restricted by ownership to its part of the contiguous node partition —
// and this file is the barrier seam that loop calls when e.dist != nil.
//
// Every worker builds the full deterministic node-state arenas from the
// same Config — views, journals, RNG streams, rumor seeding are all
// derivable from the config alone — but instantiates protocols only for
// its owned node range. The seam adds, per processed round:
//
//   - begin: a fresh outgoing DistFrame, which deliverShard fills with
//     every rumor gain of an owned node;
//   - capture: the owned DoneReporter/LeaderReporter summaries before and
//     after the activations (remote protocol facets are not materialized,
//     so stop conditions read these instead);
//   - barrier: the owned intents resolved to peer, latency and loss fate,
//     one all-to-all frame exchange (the coordinator is a dumb lockstep
//     relay), the other workers' gains applied in their owners' order
//     (remote node state is never mutated except through these shipped
//     appends), the stop condition evaluated against the pre-activation
//     capture — exactly the state a serial engine evaluates it on — a
//     meta sub-barrier when a cross-shard exchange needs a remote
//     MetaProducer's snapshot, and the other workers' activation flags
//     and calendars folded into the round's tally.
//
// mergeIntents then walks the whole bundle in shard-then-node order,
// which is the serial merge order. Because every decision after the
// barrier is a pure function of the bundle plus replicated
// config-derived state, all workers process the same round sequence,
// take the same exit, and return Results whose shared fields (Rounds,
// Completed, InformedAt) are byte-identical to a serial run; the counter
// fields are partial sums attributed to the initiating node's owner, so
// summing them across workers reproduces the serial totals.

// DistIntent is one exported activation: node U contacts its Idx-th
// neighbor V over an edge of latency Lat. The initiator's owner resolves
// V and Lat (sequential CSR reads on its own range) and pre-draws the
// adversity loss fate so no other worker re-reads the initiator's CSR
// rows or loss stream.
type DistIntent struct {
	U, Idx, V int32
	// VIdx is u's position in v's adjacency row, resolved by the
	// initiating shard (which pays the CSR lookup once) so receiving
	// workers never binary-search the peer row during the merge.
	VIdx int32
	Lat  int32
	Lost bool
}

// DistGain is one rumor gain of an owned node, shipped so every worker's
// replica of the node's journal grows in the owner's exact gain order.
type DistGain struct{ Node, Rumor int32 }

// DistFrame is one shard's contribution to a round barrier.
type DistFrame struct {
	Round int
	Shard int
	// Intents are the shard's activations in node order.
	Intents []DistIntent
	// Gains are the shard's delivery-phase rumor gains in application
	// order.
	Gains []DistGain
	// MinWake/SleeperWake/Idle/Called mirror the serial per-shard
	// activation aggregates; Pending and NextDeliver describe the
	// shard's delivery calendar after this round's drain but before the
	// merge (new exchanges are derivable from the broadcast intents).
	MinWake     int
	SleeperWake int
	NextDeliver int // earliest pending delivery round, -1 = none
	Pending     bool
	Idle        bool
	Called      bool
	// Waiting reports a live Waiter on this shard; only meaningful when
	// the shard was locally quiescent (the only case the global
	// idle-termination check can trigger).
	Waiting bool
	// DonePre/DonePost capture "every owned DoneReporter is done" before
	// and after this round's activations: the post-delivery stop check
	// needs pre-activation state (the serial engine evaluates it before
	// activating), the idle-termination stop call needs post-activation
	// state.
	DonePre  bool
	DonePost bool
	// LeadPre/LeadPost are the shard's leader summaries at the same two
	// capture points (see ownedLeader): the unanimously decided leader of
	// the shard's owned survivors, or a LeaderAgnostic/LeaderUnsettled
	// sentinel.
	LeadPre  int32
	LeadPost int32
	// MetaCapable marks a shard owning MetaProducer protocols; a meta
	// sub-barrier runs whenever any capable shard sees a cross-shard
	// intent.
	MetaCapable bool
	// Err carries a shard-local activation error (empty = none); all
	// workers abort identically after the barrier.
	Err string
}

func (f *DistFrame) reset(round, shard int) {
	f.Round, f.Shard = round, shard
	f.Intents = f.Intents[:0]
	f.Gains = f.Gains[:0]
	f.MinWake, f.SleeperWake = never, never
	f.NextDeliver = -1
	f.Pending, f.Idle, f.Called, f.Waiting = false, false, false, false
	f.DonePre, f.DonePost, f.MetaCapable = false, false, false
	f.LeadPre, f.LeadPost = LeaderAgnostic, LeaderAgnostic
	f.Err = ""
}

// DistNodeMeta is one node's exchange metadata snapshot, as its
// MetaProducer returned it: it crosses the wire unchanged.
type DistNodeMeta struct {
	Node int32
	Meta []int32
}

// DistMetaFrame is one shard's contribution to a meta sub-barrier: the
// post-activation metadata of every owned endpoint of a cross-shard
// intent, in first-appearance order over the round's merged intent scan.
type DistMetaFrame struct {
	Round int
	Shard int
	Metas []DistNodeMeta
}

// Exchanger is the barrier transport of a distributed run. Both calls
// block until every shard has contributed its frame for the current
// barrier and return all frames indexed by shard (the caller's own frame
// included).
//
// Aliasing contract: returned frames stay valid until the caller's next
// ExchangeFrames call, so a frame passed in must not be mutated by the
// caller until the following round barrier completes. The engine honours
// this by double-buffering its outgoing round frames (a meta frame is
// rebuilt only after that barrier), which is what lets an in-memory
// Exchanger hand frames between workers without copying.
type Exchanger interface {
	ExchangeFrames(f *DistFrame) ([]*DistFrame, error)
	ExchangeMetas(f *DistMetaFrame) ([]*DistMetaFrame, error)
}

// DistStats reports out-of-band execution statistics of one worker (not
// part of Result, so Results stay byte-comparable). ComputeNS is the
// worker's busy time — the per-worker critical path that bounds
// distributed wall-clock when each worker has a core of its own. On
// Linux it is the worker thread's actual CPU time (the worker goroutine
// is locked to its OS thread); elsewhere it falls back to wall time
// minus barrier wait, which over-counts on hosts with fewer cores than
// workers (runnable-but-descheduled time looks like compute).
type DistStats struct {
	Rounds       int64
	Barriers     int64
	MetaBarriers int64
	Intents      int64
	CrossIntents int64
	Gains        int64
	ComputeNS    int64
	WaitNS       int64
}

// DistConfig parameterizes one worker of a distributed run.
type DistConfig struct {
	// Shard is this worker's index in [0, Shards); Shards >= 2.
	Shard, Shards int
	// Exchanger connects the worker to its peers.
	Exchanger Exchanger
	// Stats, when non-nil, receives execution statistics.
	Stats *DistStats
}

// distRun is the barrier seam of one shard worker's engine.
type distRun struct {
	e             *engine
	shard, shards int
	ex            Exchanger
	stats         *DistStats
	// frames are the double-buffered outgoing round frames (see the
	// Exchanger aliasing contract); frame is the one the round in progress
	// fills. The outgoing meta frame needs no twin: it is rebuilt only
	// after the next round barrier, which every reader has passed by then.
	frames    [2]DistFrame
	frame     *DistFrame
	barriers  int
	metaFrame DistMetaFrame
	// metaStamp deduplicates meta-frame entries per round (stamped with
	// round+1; processed rounds strictly increase).
	metaStamp []int
	// remoteMeta indexes the current round's shipped metadata by node.
	remoteMeta map[int32][]int32
}

// RunDist executes one shard of a distributed simulation. Every worker
// must be started with the identical cfg, factory semantics and stop
// condition, and Shard/Shards must partition the same node count.
//
// Not every configuration distributes: in-degree caps draw their loss
// fates in an order only the serial merge knows, and latency jitter
// draws from a single global stream — both are rejected here (callers
// gate them with clearer errors at the API layer).
func RunDist(cfg Config, dc DistConfig, factory Factory, stop StopFunc) (Result, error) {
	e, err := newDistEngine(cfg, dc, factory)
	if err != nil {
		return Result{}, err
	}
	d := e.dist
	if d.stats != nil {
		// Pin the goroutine so ComputeNS can read this OS thread's CPU
		// clock (see DistStats); barrier blocking releases the CPU, so
		// thread time is pure compute even when workers share cores.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	start := time.Now()
	cpu0 := threadCPUNS()
	res, err := e.run(stop)
	if d.stats != nil {
		if cpu1 := threadCPUNS(); cpu0 >= 0 && cpu1 >= 0 {
			d.stats.ComputeNS = cpu1 - cpu0
		} else {
			d.stats.ComputeNS = time.Since(start).Nanoseconds() - d.stats.WaitNS
		}
	}
	return res, err
}

// newDistEngine validates dc and builds shard dc.Shard's engine with its
// barrier seam attached, ready to run.
func newDistEngine(cfg Config, dc DistConfig, factory Factory) (*engine, error) {
	if dc.Shards < 2 {
		return nil, fmt.Errorf("sim: distributed run needs at least 2 shards (got %d)", dc.Shards)
	}
	if dc.Shard < 0 || dc.Shard >= dc.Shards {
		return nil, fmt.Errorf("sim: shard %d out of range [0,%d)", dc.Shard, dc.Shards)
	}
	if dc.Exchanger == nil {
		return nil, fmt.Errorf("sim: distributed run needs an exchanger")
	}
	if cfg.MaxInPerRound > 0 {
		return nil, fmt.Errorf("sim: bounded in-degree is not supported in distributed runs")
	}
	if cfg.LatencyJitter != 0 {
		return nil, fmt.Errorf("sim: latency jitter is not supported in distributed runs")
	}
	cfg.Workers = 1
	e, err := newEngineShard(cfg, factory, dc.Shard, dc.Shards)
	if err != nil {
		return nil, err
	}
	e.dist = &distRun{e: e, shard: dc.Shard, shards: dc.Shards, ex: dc.Exchanger, stats: dc.Stats}
	e.world.distDone = make([]bool, dc.Shards)
	e.world.distLeader = make([]int32, dc.Shards)
	return e, nil
}

func (d *distRun) exchangeFrames(f *DistFrame) ([]*DistFrame, error) {
	if d.stats == nil {
		return d.ex.ExchangeFrames(f)
	}
	t := time.Now()
	out, err := d.ex.ExchangeFrames(f)
	d.stats.WaitNS += time.Since(t).Nanoseconds()
	d.stats.Barriers++
	return out, err
}

func (d *distRun) exchangeMetas(mf *DistMetaFrame) ([]*DistMetaFrame, error) {
	if d.stats == nil {
		return d.ex.ExchangeMetas(mf)
	}
	t := time.Now()
	out, err := d.ex.ExchangeMetas(mf)
	d.stats.WaitNS += time.Since(t).Nanoseconds()
	d.stats.MetaBarriers++
	return out, err
}

// begin opens round's outgoing frame; the delivery stage appends the
// owned gains to it.
func (d *distRun) begin(round int) {
	d.frame = &d.frames[d.barriers&1]
	d.frame.reset(round, d.shard)
}

// capture records the per-shard conjuncts of StopAllDone and
// StopLeaderStable over the owned range. It runs before and after the
// activations: the post-delivery stop check needs pre-activation state
// (an ordinary engine evaluates it before activating), the
// idle-termination stop call post-activation state.
//
// The leader summary scans the owned survivors (survivorship is
// config-derived, so every shard computes it identically) for their
// unanimously decided leader: LeaderUnsettled when some owned survivor is
// down, undecided, facet-less or disagreeing, LeaderAgnostic when the
// shard owns no survivors. On non-coordination protocols (no
// LeaderReporter facets) the first owned survivor short-circuits to
// LeaderUnsettled, keeping the per-round cost O(1) off the election path.
func (d *distRun) capture() (done bool, leader int32) {
	e, w := d.e, d.e.world
	lo, hi := e.owned()
	done = true
	for u := lo; u < hi && done && w.dones != nil; u++ {
		dr := w.dones[u]
		done = dr == nil || !w.Alive(u) || dr.Done()
	}
	leader = LeaderAgnostic
	for u := lo; u < hi; u++ {
		if e.cfg.Adversity.NeverReturns(u) {
			continue
		}
		lr := facet(w.leaders, u)
		if lr == nil || !w.Alive(u) {
			return done, LeaderUnsettled
		}
		l, decided := lr.Leader()
		if !decided || (leader != LeaderAgnostic && leader != int32(l)) {
			return done, LeaderUnsettled
		}
		leader = int32(l)
	}
	return done, leader
}

// loadCapture publishes the bundle's per-shard done flags and leader
// summaries (the pre- or the post-activation capture) for the next stop
// evaluation.
func (d *distRun) loadCapture(frames []*DistFrame, post bool) {
	w := d.e.world
	for i, f := range frames {
		if post {
			w.distDone[i], w.distLeader[i] = f.DonePost, f.LeadPost
		} else {
			w.distDone[i], w.distLeader[i] = f.DonePre, f.LeadPre
		}
	}
}

// barrier is the one synchronization point of a processed round, called
// after the owned range has activated. It completes the outgoing frame
// (post-activation capture, resolved intents, the shard's activation
// aggregates and calendar state), exchanges it, replays the other
// workers' gains, evaluates stop on the pre-activation capture, runs the
// meta sub-barrier when needed, and folds the other workers' aggregates
// into t. It returns the bundle for mergeIntents, or stopped.
func (d *distRun) barrier(round int, stop StopFunc, t *tally) (frames []*DistFrame, stopped bool, err error) {
	e, f, s := d.e, d.frame, &d.e.shards[0]
	f.DonePost, f.LeadPost = d.capture()
	for _, it := range s.intents {
		u, idx := int(it.u), int(it.idx)
		nv := e.views[u]
		v, lat := int(nv.nbrs[idx]), int(nv.lats[idx])
		// The initiator's owner resolves the peer row position and the
		// loss fate once, so no other worker reads u's CSR rows or loss
		// stream.
		di := DistIntent{U: it.u, Idx: it.idx, V: int32(v), VIdx: int32(e.csr.PeerIndex(u, idx)), Lat: int32(lat)}
		if e.adv != nil {
			di.Lost = e.fate(u, v, round, round+lat)
		}
		f.Intents = append(f.Intents, di)
	}
	s.intents = s.intents[:0]
	f.Idle, f.Called = s.idle, s.called
	f.MinWake, f.SleeperWake = s.minWake, s.sleeperWake
	f.Pending = e.pendingLen() > 0
	f.NextDeliver = e.nextDeliver(round)
	// Facet tables cover the owned range only: a table means some owned
	// protocol has the facet.
	f.MetaCapable = e.meta != nil
	f.Waiting = t.waiting
	if s.err != nil {
		f.Err = s.err.Error()
		s.err = nil
	}
	if d.stats != nil {
		d.stats.Rounds++
		d.stats.Intents += int64(len(f.Intents))
		d.stats.Gains += int64(len(f.Gains))
	}

	frames, err = d.exchangeFrames(f)
	if err != nil {
		return nil, false, fmt.Errorf("sim: shard %d round %d barrier: %w", d.shard, round, err)
	}
	if len(frames) != d.shards {
		return nil, false, fmt.Errorf("sim: round %d barrier returned %d frames for %d shards", round, len(frames), d.shards)
	}
	for i, rf := range frames {
		if rf == nil || rf.Shard != i || rf.Round != round {
			return nil, false, fmt.Errorf("sim: round %d barrier frame %d is misaligned", round, i)
		}
	}
	d.barriers++

	// Grow the replicas of remote nodes exactly as their owners did this
	// round. gain() is idempotent and journal-ordered, so replicated
	// journals stay positionally identical to the owner's — the invariant
	// exchange windows depend on.
	watched := int32(e.watched)
	for _, rf := range frames {
		if rf.Shard == d.shard {
			continue
		}
		for _, g := range rf.Gains {
			nv := e.views[g.Node]
			nv.gain(int(g.Rumor))
			e.jlen[g.Node] = int32(len(nv.journal))
			if e.informedAt[g.Node] < 0 && nv.rum.Contains(int(watched)) {
				e.informedAt[g.Node] = round
				e.world.informed.Add(int(g.Node))
			}
		}
	}

	// The post-delivery stop check of an ordinary engine. Activation
	// already ran locally, but Activate mutates no state a Result field
	// or stop condition reads except DoneReporter/LeaderReporter facets —
	// and those are evaluated from the pre-activation capture — so a
	// stop-exit here returns the byte-identical serial Result.
	d.loadCapture(frames, false)
	if stop(e.world) {
		return nil, true, nil
	}
	for _, rf := range frames {
		if rf.Err != "" {
			return nil, false, fmt.Errorf("sim: %s", rf.Err)
		}
	}
	if err := d.exchangeRemoteMeta(frames, round); err != nil {
		return nil, false, err
	}

	// Global quiescence is every shard's own: the other calendars are
	// judged before the merge like the local one (no intents anywhere
	// means none of them grows), and the deliveries they hold bound the
	// next-round jump like local ones.
	for _, rf := range frames {
		if rf.Shard == d.shard {
			continue
		}
		t.quiet = t.quiet && rf.Idle && !rf.Pending && rf.SleeperWake == never
		t.waiting = t.waiting || rf.Waiting
		t.called = t.called || rf.Called
		t.soonest = min(t.soonest, rf.MinWake)
		if rf.NextDeliver >= 0 {
			t.soonest = min(t.soonest, rf.NextDeliver)
		}
	}
	return frames, false, nil
}

// exchangeRemoteMeta runs the meta sub-barrier, needed only when a
// meta-capable shard exists and some intent crosses shards this round
// (every worker computes the same decision from the bundle): each worker
// ships the post-activation metadata of every owned MetaProducer endpoint
// of a cross-shard intent, deduplicated, in the deterministic
// shard-then-node intent order, and indexes what the others shipped in
// remoteMeta for the merge.
func (d *distRun) exchangeRemoteMeta(frames []*DistFrame, round int) error {
	e := d.e
	clear(d.remoteMeta)
	metaCap, cross := false, false
	for _, rf := range frames {
		metaCap = metaCap || rf.MetaCapable
		for i := 0; i < len(rf.Intents) && !cross; i++ {
			cross = e.ownerOf(rf.Intents[i].U) != e.ownerOf(rf.Intents[i].V)
		}
	}
	if !metaCap || !cross {
		return nil
	}
	mf := &d.metaFrame
	mf.Round, mf.Shard = round, d.shard
	mf.Metas = mf.Metas[:0]
	if d.metaStamp == nil {
		d.metaStamp = make([]int, e.n)
	}
	stamp := round + 1
	for _, rf := range frames {
		for i := range rf.Intents {
			in := &rf.Intents[i]
			if e.ownerOf(in.U) == e.ownerOf(in.V) {
				continue
			}
			for _, node := range [2]int32{in.U, in.V} {
				mp := facet(e.meta, int(node))
				if e.shardOf(node) == nil || mp == nil || d.metaStamp[node] == stamp {
					continue
				}
				d.metaStamp[node] = stamp
				mf.Metas = append(mf.Metas, DistNodeMeta{Node: node, Meta: mp.Meta()})
			}
		}
	}
	mfs, err := d.exchangeMetas(mf)
	if err != nil {
		return fmt.Errorf("sim: shard %d round %d meta barrier: %w", d.shard, round, err)
	}
	if len(mfs) != d.shards {
		return fmt.Errorf("sim: round %d meta barrier returned %d frames for %d shards", round, len(mfs), d.shards)
	}
	if d.remoteMeta == nil {
		d.remoteMeta = make(map[int32][]int32)
	}
	for _, rmf := range mfs {
		if rmf == nil || rmf.Shard == d.shard {
			continue
		}
		for _, nm := range rmf.Metas {
			d.remoteMeta[nm.Node] = nm.Meta
		}
	}
	return nil
}

// localHub is the in-memory Exchanger: a reusable all-to-all barrier for
// shard workers running as goroutines in one process. Frames cross by
// reference — safe under the Exchanger aliasing contract the engine's
// double buffering provides.
type localHub struct {
	shards int
	mu     sync.Mutex
	cond   *sync.Cond
	gen    int
	kind   byte
	count  int
	frames []*DistFrame
	metas  []*DistMetaFrame
	outF   []*DistFrame
	outM   []*DistMetaFrame
	err    error
}

// NewLocalExchange returns an Exchanger connecting `shards` in-process
// workers; every worker uses the same value. This is both the reference
// implementation of the barrier contract and the zero-serialization fast
// path for single-process sharded dispatch.
func NewLocalExchange(shards int) Exchanger {
	h := &localHub{
		shards: shards,
		frames: make([]*DistFrame, shards),
		metas:  make([]*DistMetaFrame, shards),
	}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *localHub) barrier(kind byte, slot int, set func()) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.err != nil {
		return h.err
	}
	if slot < 0 || slot >= h.shards {
		h.fail(fmt.Errorf("sim: barrier frame from shard %d of %d", slot, h.shards))
		return h.err
	}
	if h.count == 0 {
		h.kind = kind
	} else if h.kind != kind {
		h.fail(fmt.Errorf("sim: mixed barrier kinds %q and %q — workers diverged", h.kind, kind))
		return h.err
	}
	set()
	h.count++
	if h.count == h.shards {
		// Publish fresh bundle slices: previous-generation readers may
		// still be iterating theirs.
		if kind == 'f' {
			h.outF = append([]*DistFrame(nil), h.frames...)
		} else {
			h.outM = append([]*DistMetaFrame(nil), h.metas...)
		}
		h.count = 0
		h.gen++
		h.cond.Broadcast()
		return nil
	}
	gen := h.gen
	for gen == h.gen && h.err == nil {
		h.cond.Wait()
	}
	return h.err
}

// fail poisons the hub (a worker returned early or sent a misaligned
// frame) so no peer blocks forever; requires h.mu held.
func (h *localHub) fail(err error) {
	if h.err == nil {
		h.err = err
	}
	h.cond.Broadcast()
}

func (h *localHub) ExchangeFrames(f *DistFrame) ([]*DistFrame, error) {
	if err := h.barrier('f', f.Shard, func() { h.frames[f.Shard] = f }); err != nil {
		return nil, err
	}
	h.mu.Lock()
	out := h.outF
	h.mu.Unlock()
	return out, nil
}

func (h *localHub) ExchangeMetas(f *DistMetaFrame) ([]*DistMetaFrame, error) {
	if err := h.barrier('m', f.Shard, func() { h.metas[f.Shard] = f }); err != nil {
		return nil, err
	}
	h.mu.Lock()
	out := h.outM
	h.mu.Unlock()
	return out, nil
}

// Abort poisons the hub with err, releasing every blocked worker. A
// worker that exits its run loop early (engine error before a barrier)
// must call this or its peers deadlock.
func (h *localHub) Abort(err error) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.fail(err)
}

// distAborter is the optional Exchanger extension RunDistLocal uses to
// unblock peers when one worker fails before reaching a barrier.
type distAborter interface{ Abort(error) }

// RunDistLocal runs cfg sharded across `shards` in-process workers
// connected by an in-memory barrier, verifies the workers agree, and
// returns the assembled result (counters summed, shared fields checked
// equal) plus per-worker execution stats. The result is byte-identical
// to Run(cfg, factory, stop) for every supported configuration.
func RunDistLocal(cfg Config, shards int, factory Factory, stop StopFunc) (Result, []DistStats, error) {
	if shards < 2 {
		return Result{}, nil, fmt.Errorf("sim: distributed run needs at least 2 shards (got %d)", shards)
	}
	ex := NewLocalExchange(shards)
	results := make([]Result, shards)
	stats := make([]DistStats, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = RunDist(cfg, DistConfig{
				Shard: i, Shards: shards, Exchanger: ex, Stats: &stats[i],
			}, factory, stop)
			if errs[i] != nil {
				ex.(distAborter).Abort(errs[i])
			}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return Result{}, stats, err
		}
	}
	res, err := MergeDistResults(results)
	return res, stats, err
}

// MergeDistResults assembles per-worker partial results into the serial
// result: shared fields must agree bit-for-bit (any divergence is a
// determinism bug, reported as an error, never papered over) and the
// owner-attributed counters sum to the serial totals.
func MergeDistResults(results []Result) (Result, error) {
	if len(results) == 0 {
		return Result{}, fmt.Errorf("sim: no shard results to merge")
	}
	out := results[0]
	for i := 1; i < len(results); i++ {
		r := &results[i]
		if r.Rounds != out.Rounds || r.Completed != out.Completed {
			return Result{}, fmt.Errorf("sim: shard %d disagrees on completion: rounds %d/%v vs %d/%v",
				i, r.Rounds, r.Completed, out.Rounds, out.Completed)
		}
		if len(r.InformedAt) != len(out.InformedAt) {
			return Result{}, fmt.Errorf("sim: shard %d reports %d informed entries, shard 0 reports %d",
				i, len(r.InformedAt), len(out.InformedAt))
		}
		for u := range r.InformedAt {
			if r.InformedAt[u] != out.InformedAt[u] {
				return Result{}, fmt.Errorf("sim: shard %d disagrees on informedAt[%d]: %d vs %d",
					i, u, r.InformedAt[u], out.InformedAt[u])
			}
		}
		out.Exchanges += r.Exchanges
		out.Messages += r.Messages
		out.Dropped += r.Dropped
		out.Delivered += r.Delivered
		out.RumorPayload += r.RumorPayload
	}
	return out, nil
}
