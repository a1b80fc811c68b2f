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
// delivered"); the Blocking variant waits for each exchange to complete
// before the next initiation, an ablation of exactly that footnote.
type PushPull struct {
	nv       *sim.NodeView
	blocking bool
	inflight bool
}

var (
	_ sim.Protocol       = (*PushPull)(nil)
	_ sim.Sleeper        = (*PushPull)(nil)
	_ sim.AmnesiaReseter = (*PushPull)(nil)
	_ sim.StateCloner    = (*PushPull)(nil)
)

// CloneStateFrom copies the mutable protocol state (the blocking window)
// from a frozen snapshot instance; nv and the variant flag come from
// construction.
func (p *PushPull) CloneStateFrom(src sim.Protocol) {
	p.inflight = src.(*PushPull).inflight
}

// NewPushPull returns the non-blocking push-pull protocol for one node.
func NewPushPull(nv *sim.NodeView) *PushPull { return &PushPull{nv: nv} }

// Activate picks a uniformly random neighbor.
func (p *PushPull) Activate(int) (int, bool) {
	d := p.nv.Degree()
	if d == 0 || (p.blocking && p.inflight) {
		return 0, false
	}
	p.inflight = true
	return p.nv.RNG().IntN(d), true
}

// OnDeliver clears the blocking window when our own exchange returns.
func (p *PushPull) OnDeliver(d sim.Delivery) {
	if d.Initiator {
		p.inflight = false
	}
}

// OnAmnesia restarts the node: an exchange that was in flight across
// the down interval is lost, so the blocking window reopens.
func (p *PushPull) OnAmnesia() { p.inflight = false }

// NextWake keeps the classical every-round schedule except while the
// blocking variant has an exchange in flight (no RNG is drawn then, so
// skipping those rounds leaves the random choice sequence unchanged).
func (p *PushPull) NextWake(round int) int {
	if p.nv.Degree() == 0 || (p.blocking && p.inflight) {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// PushPullBound returns the Theorem 29 upper bound (ℓ*/φ*)·ln n given the
// graph's critical conductance quantities.
func PushPullBound(phiStar float64, ellStar, n int) (float64, error) {
	if phiStar <= 0 {
		return 0, fmt.Errorf("gossip: non-positive φ* %v", phiStar)
	}
	return float64(ellStar) / phiStar * math.Log(float64(n)), nil
}
