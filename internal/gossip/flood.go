package gossip

import (
	"gossip/internal/graph"
	"gossip/internal/sim"
)

// Flood is the push-only baseline of footnote 3: an informed node offers
// the rumor to its neighbors one by one; uninformed nodes never initiate,
// so there is no pull. In Blocking mode a node waits for each exchange to
// complete before starting the next (classical store-and-forward
// flooding); this is the regime where a star with slow edges costs Ω(nD).
type Flood struct {
	nv       *sim.NodeView
	source   graph.NodeID
	blocking bool
	next     int // next adjacency index to contact
	inflight bool
}

var (
	_ sim.Protocol       = (*Flood)(nil)
	_ sim.Sleeper        = (*Flood)(nil)
	_ sim.AmnesiaReseter = (*Flood)(nil)
	_ sim.StateCloner    = (*Flood)(nil)
)

// CloneStateFrom copies the round-robin cursor and blocking window from
// a frozen snapshot instance.
func (f *Flood) CloneStateFrom(src sim.Protocol) {
	s := src.(*Flood)
	f.next = s.next
	f.inflight = s.inflight
}

// NewFlood returns the flooding protocol. Nodes activate only once they
// hold source's rumor.
func NewFlood(nv *sim.NodeView, source graph.NodeID, blocking bool) *Flood {
	return &Flood{nv: nv, source: source, blocking: blocking}
}

// Activate contacts the next neighbor in round-robin order while informed.
func (f *Flood) Activate(int) (int, bool) {
	if !f.nv.Knows(f.source) || f.nv.Degree() == 0 {
		return 0, false
	}
	if f.blocking && f.inflight {
		return 0, false
	}
	idx := f.next % f.nv.Degree()
	f.next++
	f.inflight = true
	return idx, true
}

// OnDeliver clears the blocking window when our own exchange returns.
func (f *Flood) OnDeliver(d sim.Delivery) {
	if d.Initiator {
		f.inflight = false
	}
}

// OnAmnesia restarts the node's round-robin cursor and blocking window
// alongside the engine's rumor-state reset.
func (f *Flood) OnAmnesia() {
	f.next = 0
	f.inflight = false
}

// NextWake parks the node until a delivery can change anything: an
// uninformed node only acts after the rumor arrives, and a blocking node
// only after its in-flight exchange returns.
func (f *Flood) NextWake(round int) int {
	if !f.nv.Knows(f.source) || f.nv.Degree() == 0 || (f.blocking && f.inflight) {
		return sim.WakeOnDelivery
	}
	return round + 1
}
