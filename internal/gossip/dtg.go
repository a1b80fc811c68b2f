package gossip

import "gossip/internal/sim"

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
// The protocol keeps a phase-local heard set L (reset each invocation) so
// repeated DTG phases of Spanner/Pattern Broadcast each pay their full
// schedule, exactly as the real algorithm re-disseminates fresh
// neighborhood data every repetition. L rides on exchange metadata as a
// sorted sparse id slice (see heardSet) — O(neighborhood) per node, not
// n bits, which is what lets DTG run at n=10⁶.
type DTG struct {
	nv  *sim.NodeView
	ell int
	// eligible holds the adjacency indices of G_ℓ neighbors.
	eligible []int
	// scan is where the search for an unheard eligible neighbor resumes:
	// the heard set only grows (until amnesia restarts it), so every
	// eligible entry before scan stays heard.
	scan int
	// heard is the phase-local knowledge set L.
	heard heardSet
	// contacted are the linked neighbors u_1..u_i (adjacency indices).
	contacted []int
	// seq is the remaining send sequence of the current iteration.
	seq []int
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
// neighbors, remaining send schedule, in-flight marker) from a frozen
// snapshot instance; eligible was rebuilt identically by the factory.
func (d *DTG) CloneStateFrom(src sim.Protocol) {
	s := src.(*DTG)
	d.heard.cloneFrom(&s.heard)
	d.contacted = append(d.contacted[:0], s.contacted...)
	d.seq = append([]int(nil), s.seq...)
	d.scan = s.scan
	d.pending = s.pending
	d.done = s.done
}

// NewDTG returns the ℓ-DTG protocol for one node. ell <= 0 means no
// latency filter. Latencies must be known (Section 4 model) or already
// discovered; edges of unknown latency are treated as outside G_ℓ.
func NewDTG(nv *sim.NodeView, ell int) *DTG {
	d := new(DTG)
	d.init(nv, ell)
	return d
}

// init makes d node nv's ℓ-DTG instance. The eligible neighbors are
// counted first, so their list is allocated once, at its size.
func (d *DTG) init(nv *sim.NodeView, ell int) {
	*d = DTG{nv: nv, ell: ell, pending: -1}
	d.heard.Add(nv.ID())
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
	d.eligible = make([]int, 0, k)
	for i := 0; i < nv.Degree(); i++ {
		if eligible(i) {
			d.eligible = append(d.eligible, i)
		}
	}
}

// prepareDTG expands one ℓ-DTG phase run to quiescence into its sim.Run
// invocation: the "dtg" driver's Prepare hook, and a pipeline's
// neighborhood-gathering phase. The per-node instances share one slab:
// one allocation per phase instead of n (each factory call writes only
// its own node's slot, so shard workers may build concurrently).
func prepareDTG(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	slab := make([]DTG, opts.CSR.N())
	return sim.Config{
			CSR:            opts.CSR,
			Workers:        opts.Workers,
			Seed:           opts.Seed,
			KnownLatencies: true,
			MaxRounds:      opts.MaxRounds,
			Mode:           sim.AllToAll,
			InitialRumors:  opts.InitialRumors,
			Adversity:      opts.Adversity,
		}, func(nv *sim.NodeView) sim.Protocol {
			d := &slab[nv.ID()]
			d.init(nv, opts.Ell)
			return d
		}, sim.StopAllDone(), nil
}

// Meta snapshots the node's phase-local heard set for the peer: a cached
// immutable sorted id slice (shared until the set next changes).
func (d *DTG) Meta() any { return d.heard.Snapshot() }

// Done reports local termination: every G_ℓ neighbor has been heard.
func (d *DTG) Done() bool { return d.done }

// Activate drives the blocking send schedule.
func (d *DTG) Activate(int) (int, bool) {
	if d.done || d.pending >= 0 {
		return 0, false
	}
	if len(d.seq) == 0 && !d.startIteration() {
		return 0, false
	}
	idx := d.seq[0]
	d.seq = d.seq[1:]
	d.pending = idx
	return idx, true
}

// startIteration links one new neighbor and lays out the iteration's
// PUSH/PULL/PULL/PUSH schedule; it reports false when the node is done.
func (d *DTG) startIteration() bool {
	for d.scan < len(d.eligible) && d.heard.Contains(d.nv.NeighborID(d.eligible[d.scan])) {
		d.scan++
	}
	if d.scan == len(d.eligible) {
		d.done = true
		return false
	}
	newIdx := d.eligible[d.scan]
	d.contacted = append(d.contacted, newIdx)
	i := len(d.contacted)
	seq := make([]int, 0, 4*i)
	for j := i - 1; j >= 0; j-- { // PUSH: u_i .. u_1
		seq = append(seq, d.contacted[j])
	}
	for j := 0; j < i; j++ { // PULL: u_1 .. u_i
		seq = append(seq, d.contacted[j])
	}
	for j := 0; j < i; j++ { // second PULL
		seq = append(seq, d.contacted[j])
	}
	for j := i - 1; j >= 0; j-- { // second PUSH
		seq = append(seq, d.contacted[j])
	}
	d.seq = seq
	return true
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
func (d *DTG) OnAmnesia() {
	d.heard = heardSet{}
	d.heard.Add(d.nv.ID())
	d.scan = 0
	d.contacted = nil
	d.seq = nil
	d.pending = -1
	d.done = false
}

// OnDeliver merges the peer's heard set and unblocks the state machine.
func (d *DTG) OnDeliver(dv sim.Delivery) {
	if peer, ok := dv.PeerMeta.([]int32); ok {
		d.heard.Union(peer)
	}
	d.heard.Add(dv.Peer)
	if dv.Initiator && dv.NeighborIndex == d.pending {
		d.pending = -1
	}
}
