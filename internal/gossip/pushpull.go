package gossip

import (
	"fmt"
	"math"

	"gossip/internal/sim"
)

// PushPull is the classical random phone-call protocol: in every round the
// node initiates an exchange with a uniformly random neighbor. In the
// paper's combined model a single exchange both pushes and pulls.
//
// The model is non-blocking (footnote: "each node can initiate a new
// exchange in every round, even if previous messages have not yet been
// delivered"), so nothing a delivery brings changes the node's next
// choice: PushPull is no sim.Receiver, and a delivery never touches it.
// The blocking variant (blockingPushPull) waits for each exchange to
// complete before the next initiation, an ablation of exactly that
// footnote.
type PushPull struct {
	nv *sim.NodeView
}

var (
	_ sim.Protocol    = (*PushPull)(nil)
	_ sim.Sleeper     = (*PushPull)(nil)
	_ sim.StateCloner = (*PushPull)(nil)

	_ sim.Receiver       = (*blockingPushPull)(nil)
	_ sim.Sleeper        = (*blockingPushPull)(nil)
	_ sim.AmnesiaReseter = (*blockingPushPull)(nil)
	_ sim.StateCloner    = (*blockingPushPull)(nil)
)

// NewPushPull returns the non-blocking push-pull protocol for one node.
func NewPushPull(nv *sim.NodeView) *PushPull { return &PushPull{nv: nv} }

// CloneStateFrom copies nothing: the protocol's only state is its node's
// RNG stream, which the engine restores, and nv comes from construction.
func (p *PushPull) CloneStateFrom(sim.Protocol) {}

// Activate picks a uniformly random neighbor.
func (p *PushPull) Activate(int) (int, bool) {
	d := p.nv.Degree()
	if d == 0 {
		return 0, false
	}
	return p.nv.RNG().IntN(d), true
}

// NextWake keeps the classical every-round schedule; a node without
// neighbors never acts, so it parks.
func (p *PushPull) NextWake(round int) int {
	if p.nv.Degree() == 0 {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// blockingPushPull is the blocking variant: a node with an exchange in
// flight does not initiate another until that exchange returns.
type blockingPushPull struct {
	PushPull
	inflight bool
}

// CloneStateFrom copies the mutable protocol state (the blocking window)
// from a frozen snapshot instance; nv comes from construction.
func (p *blockingPushPull) CloneStateFrom(src sim.Protocol) {
	p.inflight = src.(*blockingPushPull).inflight
}

// Activate picks a uniformly random neighbor unless an exchange is in
// flight.
func (p *blockingPushPull) Activate(round int) (int, bool) {
	if p.inflight {
		return 0, false
	}
	idx, ok := p.PushPull.Activate(round)
	p.inflight = ok
	return idx, ok
}

// OnDeliver clears the blocking window when our own exchange returns.
func (p *blockingPushPull) OnDeliver(d sim.Delivery) {
	if d.Initiator {
		p.inflight = false
	}
}

// OnAmnesia restarts the node: an exchange that was in flight across
// the down interval is lost, so the blocking window reopens.
func (p *blockingPushPull) OnAmnesia() { p.inflight = false }

// NextWake parks the node while its exchange is in flight (no RNG is
// drawn then, so skipping those rounds leaves the random choice sequence
// unchanged) and otherwise keeps the classical schedule.
func (p *blockingPushPull) NextWake(round int) int {
	if p.inflight {
		return sim.WakeOnDelivery
	}
	return p.PushPull.NextWake(round)
}

// PushPullBound returns the Theorem 29 upper bound (ℓ*/φ*)·ln n given the
// graph's critical conductance quantities.
func PushPullBound(phiStar float64, ellStar, n int) (float64, error) {
	if phiStar <= 0 {
		return 0, fmt.Errorf("gossip: non-positive φ* %v", phiStar)
	}
	return float64(ellStar) / phiStar * math.Log(float64(n)), nil
}
