package gossip

import (
	"slices"

	"gossip/internal/sim"
)

// DTG is the ℓ-DTG local broadcast protocol (Appendix A.1, Algorithm 6):
// Haeupler's Deterministic Tree Gossip run on the subgraph G_ℓ of edges
// with latency <= ℓ, with every send followed by a wait for the edge's
// round trip.
//
// Per node: while some G_ℓ-neighbor's rumor is missing, link to one such
// new neighbor u_i and run the pipelined sequence
// PUSH(u_i..u_1) · PULL(u_1..u_i) · PULL(u_1..u_i) · PUSH(u_i..u_1),
// blocking on each exchange. Iteration counts are O(log n) because i-trees
// grow exponentially, giving O(ℓ log² n) total time.
//
// The protocol keeps a phase-local heard set L (reset by each live phase) so
// repeated DTG phases of Spanner/Pattern Broadcast each pay their full
// schedule, exactly as the real algorithm re-disseminates fresh
// neighborhood data every repetition. L rides on exchange metadata as a
// sorted id slice while it is small — O(neighborhood) per node, not n
// bits, which is what lets DTG run at n=10⁶ — and as an n-bit bitmap
// once the list would outweigh it (see heardSet).
//
// A pipeline draws every DTG phase's instances from one slab (see
// pipeline.prepareDTG), and init restarts an instance over the storage
// its previous phase left: the state machine starts over, the heard log
// and the linked-neighbor list are truncated, and the eligible list is
// kept while node and ℓ are unchanged.
//
// A node's whole decision trace is its linked-neighbor list: the send
// schedule is a function of u_1..u_i, and the node is done when no new
// neighbor is left to link. DTG draws no randomness, so a phase with no
// fault schedule at the same ℓ as a completed previous one makes exactly
// that phase's sends, whatever rumors they carry. Such a phase replays:
// each iteration links the next entry of the kept list instead of
// scanning the heard set, and the heard set is neither reset, merged nor
// sent as metadata. The pipeline decides it for the whole phase (every
// node replays or none does); any fault schedule, a previous phase cut
// short by MaxRounds, a change of ℓ, and a fresh or zeroed instance run
// live, as do the standalone dtg driver and warm-start clones.
type DTG struct {
	nv  *sim.NodeView
	ell int
	// eligible holds the adjacency indices of G_ℓ neighbors.
	eligible []int32
	// scan is where the search for an unheard eligible neighbor resumes:
	// the heard set only grows (until amnesia restarts it), so every
	// eligible entry before scan stays heard.
	scan int
	// heard is the phase-local knowledge set L.
	heard heardSet
	// contacted are the linked neighbors u_1..u_i (adjacency indices):
	// the list a live phase builds and the next phase may replay.
	contacted []int32
	// linked is i, the neighbors the current iteration links: the first
	// linked entries of contacted (all of them while live).
	linked int
	// replay reports that this phase relinks contacted in order instead
	// of deriving it from the heard set, which it leaves untouched.
	replay bool
	// sent counts the current iteration's sends, out of 4·linked (see
	// send).
	sent int
	// pending is the adjacency index of the in-flight exchange, or -1.
	pending int
	done    bool
}

var (
	_ sim.Protocol       = (*DTG)(nil)
	_ sim.MetaProducer   = (*DTG)(nil)
	_ sim.DoneReporter   = (*DTG)(nil)
	_ sim.Sleeper        = (*DTG)(nil)
	_ sim.AmnesiaReseter = (*DTG)(nil)
	_ sim.StateCloner    = (*DTG)(nil)
)

// CloneStateFrom deep-copies the state machine (heard set, linked
// neighbors, progress through the send schedule, in-flight marker) from a
// frozen snapshot instance; eligible was rebuilt identically by the
// factory.
func (d *DTG) CloneStateFrom(src sim.Protocol) {
	s := src.(*DTG)
	d.heard.cloneFrom(&s.heard)
	d.contacted = append(d.contacted[:0], s.contacted...)
	d.linked, d.replay = s.linked, s.replay
	d.sent = s.sent
	d.scan = s.scan
	d.pending = s.pending
	d.done = s.done
}

// NewDTG returns the ℓ-DTG protocol for one node. ell <= 0 means no
// latency filter. Latencies must be known (Section 4 model) or already
// discovered; edges of unknown latency are treated as outside G_ℓ.
func NewDTG(nv *sim.NodeView, ell int) *DTG {
	d := new(DTG)
	d.init(nv, ell, false)
	return d
}

// init makes d node nv's ℓ-DTG instance for a new phase, over the
// storage a previous phase left in d, if any. The state machine restarts;
// a live phase truncates the heard log and the linked-neighbor list, and
// a replayed one (replay, and d was node nv's instance at ℓ) keeps both.
// The eligible list is rebuilt only when the node or ℓ changed: every DTG
// phase knows its latencies, so G_ℓ depends on nothing else. Its
// neighbors are counted first, so the list is allocated at most once, at
// its size.
func (d *DTG) init(nv *sim.NodeView, ell int, replay bool) {
	same := d.nv == nv && d.ell == ell
	if !same {
		d.nv, d.ell = nv, ell
		eligible := func(i int) bool {
			lat, known := nv.Latency(i)
			return known && (ell <= 0 || lat <= ell)
		}
		k := 0
		for i := 0; i < nv.Degree(); i++ {
			if eligible(i) {
				k++
			}
		}
		d.eligible = slices.Grow(d.eligible[:0], k)
		for i := 0; i < nv.Degree(); i++ {
			if eligible(i) {
				d.eligible = append(d.eligible, int32(i))
			}
		}
	}
	d.replay = replay && same
	d.scan, d.linked, d.sent, d.pending, d.done = 0, 0, 0, -1, false
	if !d.replay {
		d.contacted = d.contacted[:0]
		d.heard.reset(nv.ID(), nv.N())
	}
}

// prepareDTG expands one ℓ-DTG phase run to quiescence into its sim.Run
// invocation: the "dtg" driver's Prepare hook. Its instances share one
// fresh slab: one allocation per phase instead of n.
func prepareDTG(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	return dtgPhase(opts, make([]DTG, opts.CSR.N()), false)
}

// dtgPhase is prepareDTG on a given slab of n instances; a pipeline
// passes the one it keeps across its phases, and whether the phase
// replays the links the last one left there (see DTG). Each factory call
// writes only its own node's entry, so shard workers may build
// concurrently.
func dtgPhase(opts DriverOptions, slab []DTG, replay bool) (sim.Config, sim.Factory, sim.StopFunc, error) {
	return sim.Config{
			CSR:            opts.CSR,
			Workers:        opts.Workers,
			Seed:           opts.Seed,
			KnownLatencies: true,
			MaxRounds:      opts.MaxRounds,
			Mode:           sim.AllToAll,
			Adversity:      opts.Adversity,
		}, func(nv *sim.NodeView) sim.Protocol {
			d := &slab[nv.ID()]
			d.init(nv, opts.Ell, replay)
			return d
		}, sim.StopAllDone(), nil
}

// Meta snapshots the node's phase-local heard set for the peer: a cached
// immutable []int32, a sorted id list or a tagged bitmap (shared until
// the set next changes). A replayed phase keeps no heard set and sends
// none.
func (d *DTG) Meta() []int32 {
	if d.replay {
		return nil
	}
	return d.heard.Snapshot()
}

// Done reports local termination: every G_ℓ neighbor has been heard.
func (d *DTG) Done() bool { return d.done }

// Activate drives the blocking send schedule.
func (d *DTG) Activate(int) (int, bool) {
	if d.done || d.pending >= 0 {
		return 0, false
	}
	if d.sent == 4*d.linked && !d.startIteration() {
		return 0, false
	}
	idx := d.send(d.sent)
	d.sent++
	d.pending = idx
	return idx, true
}

// startIteration links one new neighbor and restarts the send schedule;
// it reports false when the node is done. A replayed phase links the
// next neighbor of the kept list, and is done where that list ends.
func (d *DTG) startIteration() bool {
	if d.replay {
		if d.linked == len(d.contacted) {
			d.done = true
			return false
		}
		d.linked++
		d.sent = 0
		return true
	}
	for d.scan < len(d.eligible) && d.heard.Contains(d.nv.NeighborID(int(d.eligible[d.scan]))) {
		d.scan++
	}
	if d.scan == len(d.eligible) {
		d.done = true
		return false
	}
	d.contacted = append(d.contacted, d.eligible[d.scan])
	d.linked = len(d.contacted)
	d.sent = 0
	return true
}

// send returns the adjacency index of send k of an iteration with i
// linked neighbors, whose schedule is
// PUSH(u_i..u_1) · PULL(u_1..u_i) · PULL(u_1..u_i) · PUSH(u_i..u_1).
func (d *DTG) send(k int) int {
	i := d.linked
	part, j := k/i, k%i
	if part == 0 || part == 3 { // PUSH: u_i .. u_1
		j = i - 1 - j
	}
	return int(d.contacted[j])
}

// NextWake parks a finished node forever and a blocked node until its
// in-flight exchange returns; this is where DTG's wait-Θ(ℓ)-per-send
// schedule stops costing engine time on slow links.
func (d *DTG) NextWake(round int) int {
	if d.done || d.pending >= 0 {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// OnAmnesia restarts the protocol from its initial state: the heard
// set, linked-neighbor list and send schedule reflect knowledge the
// engine's rumor reset just discarded, so they restart with it (the
// eligible list is kept — link latencies are measured, not gossiped).
// The heard set starts a new log rather than reset the old one: its
// snapshots may still be in flight mid-phase.
func (d *DTG) OnAmnesia() {
	d.heard = heardSet{}
	d.heard.reset(d.nv.ID(), d.nv.N())
	d.scan = 0
	d.contacted = d.contacted[:0]
	d.linked = 0
	d.sent = 0
	d.pending = -1
	d.done = false
}

// OnDeliver merges the peer's heard set (a live phase only) and
// unblocks the state machine.
func (d *DTG) OnDeliver(dv sim.Delivery) {
	if !d.replay {
		d.heard.Union(dv.PeerMeta, d.nv.N())
		d.heard.Add(dv.Peer, d.nv.N())
	}
	if dv.Initiator && dv.NeighborIndex == d.pending {
		d.pending = -1
	}
}
