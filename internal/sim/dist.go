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
// Every worker builds the full deterministic node-state arenas from the
// same Config — views, journals, RNG streams, rumor seeding are all
// derivable from the config alone — but instantiates protocols only for
// its contiguous owned node range (the same contiguous partition the
// in-process sharded engine uses). Per processed round a worker:
//
//  1. applies the replicated fault-event calendar,
//  2. drains its own delivery calendar and delivers to owned endpoints
//     only, collecting every rumor gain of an owned node,
//  3. activates its owned range and resolves each intent's peer, edge
//     latency and (when an adversity schedule is attached) loss fate —
//     the loss draw order per initiator stream matches the serial merge
//     exactly because a node initiates at most one exchange per round,
//  4. exchanges one DistFrame with every other shard at the round
//     barrier (all-to-all; the coordinator is a dumb lockstep relay),
//  5. applies remote gains in the owner's true order (journal order is
//     positional — remote node state is never mutated except through
//     these shipped appends), evaluates the stop condition exactly where
//     the serial engine would, and
//  6. merges ALL shards' intents in shard-then-node order, assigning the
//     identical global sequence numbers, scheduling only the exchanges
//     that touch its range, and computing the identical next processed
//     round from the broadcast flags.
//
// Because every decision after the barrier is a pure function of the
// frame bundle plus replicated config-derived state, all workers process
// the same round sequence, take the same exit, and return Results whose
// shared fields (Rounds, Completed, InformedAt) are byte-identical to a
// serial run; the counter fields are partial sums attributed to the
// initiating node's owner, so summing them across workers reproduces the
// serial totals.

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

// DistNodeMeta is one node's exchange metadata snapshot. Distributed
// runs require metadata to be []int32 (the only meta type the registered
// protocols produce) so it can cross the wire unchanged.
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
// Exchange call; a frame passed in must not be mutated by the caller
// until its second following barrier of the same kind completes. The
// engine honours this by double-buffering its outgoing frames, which is
// what lets an in-memory Exchanger hand frames between workers without
// copying.
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

// distRun is the per-engine distributed state.
type distRun struct {
	shard, shards int
	lo, hi        int
	per           int
	ex            Exchanger
	stats         *DistStats
	hasDones      bool
	metaAny       bool
	// frames/metaFrames are the double-buffered outgoing frames (see the
	// Exchanger aliasing contract).
	frames       [2]DistFrame
	metaFrames   [2]DistMetaFrame
	barriers     int
	metaBarriers int
	// metaStamp deduplicates meta-frame entries per round (stamped with
	// round+1; processed rounds strictly increase).
	metaStamp []int
	// remoteMeta indexes the current round's shipped metadata by node.
	remoteMeta map[int32][]int32
}

func (d *distRun) owns(u int32) bool { return int(u) >= d.lo && int(u) < d.hi }

func (d *distRun) ownerOf(u int32) int {
	i := int(u) / d.per
	if i >= d.shards {
		i = d.shards - 1
	}
	return i
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
	if dc.Shards < 2 {
		return Result{}, fmt.Errorf("sim: distributed run needs at least 2 shards (got %d)", dc.Shards)
	}
	if dc.Shard < 0 || dc.Shard >= dc.Shards {
		return Result{}, fmt.Errorf("sim: shard %d out of range [0,%d)", dc.Shard, dc.Shards)
	}
	if dc.Exchanger == nil {
		return Result{}, fmt.Errorf("sim: distributed run needs an exchanger")
	}
	if cfg.MaxInPerRound > 0 {
		return Result{}, fmt.Errorf("sim: bounded in-degree is not supported in distributed runs")
	}
	if cfg.LatencyJitter != 0 {
		return Result{}, fmt.Errorf("sim: latency jitter is not supported in distributed runs")
	}
	cfg.Workers = 1
	e, err := newEngineShard(cfg, factory, dc.Shard, dc.Shards)
	if err != nil {
		return Result{}, err
	}
	d := &distRun{
		shard: dc.Shard, shards: dc.Shards,
		lo: e.shards[0].lo, hi: e.shards[0].hi,
		per:   (e.n + dc.Shards - 1) / dc.Shards,
		ex:    dc.Exchanger,
		stats: dc.Stats,
	}
	for u := d.lo; u < d.hi; u++ {
		if e.world.dones[u] != nil {
			d.hasDones = true
		}
		if e.meta[u] != nil {
			d.metaAny = true
		}
	}
	e.dist = d
	e.world.distDone = make([]bool, dc.Shards)
	e.world.distLeader = make([]int32, dc.Shards)
	if d.stats != nil {
		// Pin the goroutine so ComputeNS can read this OS thread's CPU
		// clock (see DistStats); barrier blocking releases the CPU, so
		// thread time is pure compute even when workers share cores.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
	}
	start := time.Now()
	cpu0 := threadCPUNS()
	res, err := e.runDist(stop)
	if d.stats != nil {
		if cpu1 := threadCPUNS(); cpu0 >= 0 && cpu1 >= 0 {
			d.stats.ComputeNS = cpu1 - cpu0
		} else {
			d.stats.ComputeNS = time.Since(start).Nanoseconds() - d.stats.WaitNS
		}
	}
	return res, err
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

// distDrainDue is drainDue for a shard worker: deliveries route only to
// owned endpoints, and the drop/delivery/payload counters are attributed
// to the initiating node's owner so per-worker partial sums reproduce
// the serial totals.
func (e *engine) distDrainDue(round int) {
	e.collectDue(round)
	d := e.dist
	s := &e.shards[0]
	for i := range e.due {
		ex := &e.due[i]
		mine := d.owns(ex.u)
		if ex.lost {
			if mine {
				e.res.Dropped++
			}
			ex.uNews, ex.vNews = nil, nil
			continue
		}
		if mine {
			e.res.Delivered++
			e.res.RumorPayload += int64(ex.uEnd) + int64(ex.vEnd)
		}
		ex.uNews = e.views[ex.v].journal[ex.vStart:ex.vEnd]
		ex.vNews = e.views[ex.u].journal[ex.uStart:ex.uEnd]
		if mine {
			s.recs = append(s.recs, uint32(i)<<1)
		}
		if d.owns(ex.v) {
			s.recs = append(s.recs, uint32(i)<<1|1)
		}
	}
}

// deliverShardDist is deliverShard with gain capture: every rumor an
// owned node gains is appended to the outgoing frame in application
// order, which is the owner's journal order — the order every replica
// must reproduce.
func (e *engine) deliverShardDist(s *shard, round int, f *DistFrame) {
	watched := int32(e.watched)
	for _, enc := range s.recs {
		ex := &e.due[enc>>1]
		var self, peer, selfIdx int32
		var news []int32
		var meta any
		initiator := enc&1 == 0
		if initiator {
			self, peer, selfIdx = ex.u, ex.v, ex.uIdx
			news, meta = ex.uNews, ex.vMeta
		} else {
			self, peer, selfIdx = ex.v, ex.u, ex.vIdx
			news, meta = ex.vNews, ex.uMeta
		}
		nv := e.views[self]
		gained := 0
		for _, r := range news {
			if nv.gain(int(r)) {
				gained++
				f.Gains = append(f.Gains, DistGain{Node: self, Rumor: r})
			}
		}
		nv.known[selfIdx] = ex.latency
		if e.informedAt[self] < 0 && nv.rum.contains(watched) {
			e.informedAt[self] = ex.deliver
			s.newlyInformed = append(s.newlyInformed, self)
		}
		if e.wake[self] > round {
			e.wake[self] = round
		}
		e.protos[self].OnDeliver(Delivery{
			Round:         ex.deliver,
			InitRound:     ex.initRound,
			Peer:          int(peer),
			NeighborIndex: int(selfIdx),
			Latency:       int(ex.latency),
			Initiator:     initiator,
			News:          news,
			NewRumors:     gained,
			PeerMeta:      meta,
		})
	}
	s.recs = s.recs[:0]
}

// applyRemoteGains grows the replicas of remote nodes exactly as their
// owners did this round. gain() is idempotent and journal-ordered, so
// replicated journals stay positionally identical to the owner's — the
// invariant exchange windows depend on.
func (e *engine) applyRemoteGains(frames []*DistFrame, round int) {
	watched := int32(e.watched)
	for _, f := range frames {
		if f.Shard == e.dist.shard {
			continue
		}
		for _, g := range f.Gains {
			nv := e.views[g.Node]
			nv.gain(int(g.Rumor))
			if e.informedAt[g.Node] < 0 && nv.rum.contains(watched) {
				e.informedAt[g.Node] = round
				e.world.informed.Add(int(g.Node))
			}
		}
	}
}

// exportIntents resolves this shard's buffered activations into wire
// intents: peer id, edge latency, and — when an adversity schedule is
// attached — the loss fate, pre-drawn here in node order. A node
// initiates at most one exchange per round, so per-initiator loss
// streams advance in exactly the order the serial merge draws them.
func (e *engine) exportIntents(s *shard, round int, f *DistFrame) {
	for _, it := range s.intents {
		u, idx := int(it.u), int(it.idx)
		nv := e.views[u]
		v := int(nv.nbrs[idx])
		lat := int(nv.lats[idx])
		di := DistIntent{
			U: it.u, Idx: it.idx, V: int32(v),
			VIdx: int32(e.csr.PeerIndex(u, idx)),
			Lat:  int32(lat),
		}
		if e.adv != nil {
			di.Lost = e.adv.DownDuring(u, round, round+lat) ||
				e.adv.DownDuring(v, round, round+lat) ||
				e.adv.LinkDownDuring(u, v, round, round+lat)
			if !di.Lost && e.advRNG != nil {
				if p := e.adv.LossProb(u, v); p > 0 && e.advRNG[u].Float64() < p {
					di.Lost = true
				}
			}
		}
		f.Intents = append(f.Intents, di)
	}
	s.intents = s.intents[:0]
}

// ownedAllDone captures "every owned live DoneReporter is done" (the
// per-shard conjunct of StopAllDone).
func (e *engine) ownedAllDone() bool {
	w := e.world
	for u := e.dist.lo; u < e.dist.hi; u++ {
		if dr := w.dones[u]; dr != nil && w.Alive(u) && !dr.Done() {
			return false
		}
	}
	return true
}

// ownedLeader captures the per-shard conjunct of StopLeaderStable:
// scanning the owned survivors (survivorship is config-derived, so every
// shard computes it identically), it returns their unanimously decided
// leader, LeaderUnsettled when some owned survivor is down, undecided,
// facet-less or disagreeing, or LeaderAgnostic when the shard owns no
// survivors. On non-coordination protocols (no LeaderReporter facets)
// the first owned survivor short-circuits to LeaderUnsettled, keeping
// the per-round cost O(1) off the election path.
func (e *engine) ownedLeader() int32 {
	w := e.world
	leader := LeaderAgnostic
	for u := e.dist.lo; u < e.dist.hi; u++ {
		if e.cfg.Adversity.NeverReturns(u) {
			continue
		}
		lr := w.leaders[u]
		if lr == nil || !w.Alive(u) {
			return LeaderUnsettled
		}
		l, decided := lr.Leader()
		if !decided {
			return LeaderUnsettled
		}
		if leader == LeaderAgnostic {
			leader = int32(l)
		} else if leader != int32(l) {
			return LeaderUnsettled
		}
	}
	return leader
}

// ownedWaiting reports a live Waiter on the owned range.
func (e *engine) ownedWaiting(round int) bool {
	for u := e.dist.lo; u < e.dist.hi; u++ {
		if w := e.waiter[u]; w != nil && !e.down(u, round) && w.Waiting() {
			return true
		}
	}
	return false
}

// loadDone publishes the bundle's captured per-shard done flags and
// leader summaries for the next stop evaluation (pre- or post-activation
// capture).
func (d *distRun) loadDone(w *World, frames []*DistFrame, post bool) {
	for i, f := range frames {
		if post {
			w.distDone[i] = f.DonePost
			w.distLeader[i] = f.LeadPost
		} else {
			w.distDone[i] = f.DonePre
			w.distLeader[i] = f.LeadPre
		}
	}
}

func (d *distRun) checkBundle(frames []*DistFrame, round int) error {
	if len(frames) != d.shards {
		return fmt.Errorf("sim: round %d barrier returned %d frames for %d shards", round, len(frames), d.shards)
	}
	for i, f := range frames {
		if f == nil || f.Shard != i || f.Round != round {
			return fmt.Errorf("sim: round %d barrier frame %d is misaligned", round, i)
		}
	}
	return nil
}

// buildMetaFrame collects the post-activation metadata of every owned
// MetaProducer endpoint of a cross-shard intent, deduplicated, in the
// deterministic shard-then-node intent order.
func (e *engine) buildMetaFrame(mf *DistMetaFrame, frames []*DistFrame, round int) error {
	d := e.dist
	mf.Round, mf.Shard = round, d.shard
	mf.Metas = mf.Metas[:0]
	if d.metaStamp == nil {
		d.metaStamp = make([]int, e.n)
	}
	stamp := round + 1
	for _, f := range frames {
		for i := range f.Intents {
			in := &f.Intents[i]
			if d.ownerOf(in.U) == d.ownerOf(in.V) {
				continue
			}
			for _, node := range [2]int32{in.U, in.V} {
				if !d.owns(node) || e.meta[node] == nil || d.metaStamp[node] == stamp {
					continue
				}
				d.metaStamp[node] = stamp
				m := e.meta[node].Meta()
				var ms []int32
				if m != nil {
					var ok bool
					if ms, ok = m.([]int32); !ok {
						return fmt.Errorf("sim: distributed runs require []int32 exchange metadata (node %d produced %T)", node, m)
					}
				}
				mf.Metas = append(mf.Metas, DistNodeMeta{Node: node, Meta: ms})
			}
		}
	}
	return nil
}

// distMerge is mergeIntents over the broadcast bundle: every intent in
// shard-then-node order advances the identical global sequence number,
// but only exchanges touching this worker's range are scheduled, with
// the shipped loss fate and peer resolution. It returns the earliest
// delivery round among ALL new exchanges (touching or not), which every
// worker needs for the identical next-round computation.
func (e *engine) distMerge(round int, frames []*DistFrame) int {
	d := e.dist
	minNew := -1
	for _, f := range frames {
		for i := range f.Intents {
			in := &f.Intents[i]
			deliver := round + int(in.Lat)
			if minNew < 0 || deliver < minNew {
				minNew = deliver
			}
			seq := e.seq
			e.seq++
			uOwned := d.owns(in.U)
			if uOwned {
				e.res.Exchanges++
				e.res.Messages += 2
			}
			vOwned := d.owns(in.V)
			if !uOwned && !vOwned {
				continue
			}
			if uOwned != vOwned && d.stats != nil {
				d.stats.CrossIntents++
			}
			u, v := int(in.U), int(in.V)
			vIdx := int(in.VIdx)
			ex := exch{
				deliver:   deliver,
				initRound: round,
				seq:       seq,
				u:         in.U, v: in.V,
				uIdx: in.Idx, vIdx: int32(vIdx),
				latency: in.Lat,
				uEnd:    int32(len(e.views[u].journal)),
				vEnd:    int32(len(e.views[v].journal)),
				lost:    in.Lost,
			}
			if e.sent != nil && !ex.lost {
				hu := e.csr.HalfIndex(u, int(in.Idx))
				hv := e.csr.HalfIndex(v, vIdx)
				ex.uStart = e.sent[hu]
				ex.vStart = e.sent[hv]
				e.sent[hu] = ex.uEnd
				e.sent[hv] = ex.vEnd
			}
			if mp := e.meta[u]; mp != nil {
				ex.uMeta = mp.Meta()
			} else if m, ok := d.remoteMeta[in.U]; ok {
				ex.uMeta = m
			}
			if mp := e.meta[v]; mp != nil {
				ex.vMeta = mp.Meta()
			} else if m, ok := d.remoteMeta[in.V]; ok {
				ex.vMeta = m
			}
			e.push(ex, round)
		}
	}
	return minNew
}

// runDist is the distributed event loop. It mirrors run() decision for
// decision; divergences are confined to how cross-shard state travels
// (frames instead of shared memory) and are individually justified
// against the serial semantics in the comments below.
func (e *engine) runDist(stop StopFunc) (Result, error) {
	d := e.dist
	w := e.world
	for round := 0; round <= e.cfg.MaxRounds; {
		w.Round = round
		e.applyFaultEvents(round)

		f := &d.frames[d.barriers&1]
		f.reset(round, d.shard)

		s := &e.shards[0]
		e.distDrainDue(round)
		e.deliverShardDist(s, round, f)
		e.finishDeliveries(round)

		// The serial engine evaluates stop before activating and (on the
		// idle-termination path) again after; capture the owned done
		// conjunct at both points so either evaluation sees the state the
		// serial engine would.
		f.DonePre = !d.hasDones || e.ownedAllDone()
		f.LeadPre = e.ownedLeader()
		e.activateShard(s, round)
		f.DonePost = !d.hasDones || e.ownedAllDone()
		f.LeadPost = e.ownedLeader()
		e.exportIntents(s, round, f)
		f.Idle, f.Called = s.idle, s.called
		f.MinWake, f.SleeperWake = s.minWake, s.sleeperWake
		f.Pending = e.pendingLen() > 0
		f.NextDeliver = e.nextDeliver(round)
		f.MetaCapable = d.metaAny
		if s.err != nil {
			f.Err = s.err.Error()
			s.err = nil
		}
		if s.idle && !f.Pending && s.sleeperWake == never {
			// Only computed when this shard is locally quiescent — the
			// only case the global idle check can trigger, and the serial
			// engine's own lazy-scan condition.
			f.Waiting = e.ownedWaiting(round)
		}
		if d.stats != nil {
			d.stats.Rounds++
			d.stats.Intents += int64(len(f.Intents))
			d.stats.Gains += int64(len(f.Gains))
		}

		frames, err := d.exchangeFrames(f)
		if err != nil {
			return e.res, fmt.Errorf("sim: shard %d round %d barrier: %w", d.shard, round, err)
		}
		if err := d.checkBundle(frames, round); err != nil {
			return e.res, err
		}
		d.barriers++

		e.applyRemoteGains(frames, round)

		// Post-delivery stop check, exactly where run() evaluates it.
		// Activation already ran locally, but Activate mutates no state a
		// Result field or stop condition reads except DoneReporter flags
		// — and those are evaluated from the pre-activation capture — so
		// a stop-exit here returns the byte-identical serial Result.
		d.loadDone(w, frames, false)
		if stop(w) {
			e.res.Rounds = round
			e.res.Completed = true
			return e.res, nil
		}
		for _, rf := range frames {
			if rf.Err != "" {
				return e.res, fmt.Errorf("sim: %s", rf.Err)
			}
		}

		// Meta sub-barrier: needed only when a meta-capable shard exists
		// and some intent crosses shards this round. Every worker
		// computes the same decision from the bundle.
		metaCap, cross := false, false
		for _, rf := range frames {
			metaCap = metaCap || rf.MetaCapable
			if !cross {
				for i := range rf.Intents {
					in := &rf.Intents[i]
					if d.ownerOf(in.U) != d.ownerOf(in.V) {
						cross = true
						break
					}
				}
			}
		}
		clear(d.remoteMeta)
		if metaCap && cross {
			mf := &d.metaFrames[d.metaBarriers&1]
			if err := e.buildMetaFrame(mf, frames, round); err != nil {
				return e.res, err
			}
			mfs, err := d.exchangeMetas(mf)
			if err != nil {
				return e.res, fmt.Errorf("sim: shard %d round %d meta barrier: %w", d.shard, round, err)
			}
			if len(mfs) != d.shards {
				return e.res, fmt.Errorf("sim: round %d meta barrier returned %d frames for %d shards", round, len(mfs), d.shards)
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
		}

		minNew := e.distMerge(round, frames)

		idle, called := true, false
		minWake, sleeperWake := never, never
		pendingRemote, waiting := false, false
		ndRemote := -1
		for _, rf := range frames {
			idle = idle && rf.Idle
			called = called || rf.Called
			if rf.MinWake < minWake {
				minWake = rf.MinWake
			}
			if rf.SleeperWake < sleeperWake {
				sleeperWake = rf.SleeperWake
			}
			waiting = waiting || rf.Waiting
			if rf.Shard != d.shard {
				if rf.Pending {
					pendingRemote = true
				}
				if rf.NextDeliver >= 0 && (ndRemote < 0 || rf.NextDeliver < ndRemote) {
					ndRemote = rf.NextDeliver
				}
			}
		}
		// Global quiescence: local calendar empty post-merge, every
		// remote calendar empty pre-merge, and nobody activated (idle
		// implies zero intents, so no remote calendar grew).
		if idle && e.pendingLen() == 0 && !pendingRemote && sleeperWake == never && e.nextAdvEvent >= len(e.advEvents) {
			if !waiting {
				d.loadDone(w, frames, true)
				e.res.Rounds = round
				e.res.Completed = stop(w)
				return e.res, nil
			}
		}
		// Deliveries held by other shards — pending before the merge, or
		// scheduled by it — bound the jump like local ones.
		soonest := minWake
		if ndRemote >= 0 && ndRemote < soonest {
			soonest = ndRemote
		}
		if minNew >= 0 && minNew < soonest {
			soonest = minNew
		}
		round = e.nextRound(round, soonest, called)
	}
	e.res.Rounds = e.cfg.MaxRounds
	e.res.Completed = false
	return e.res, nil
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
