package gossip

import "gossip/internal/sim"

// Discover is the latency-discovery protocol of Section 5.2: each node
// contacts its neighbors one per round (Δ activations) and then waits for
// responses. Responses arriving within the phase budget reveal the edge's
// latency; edges that stay silent are slower than the budget and are
// exactly the edges the subsequent phases ignore.
type Discover struct {
	nv   *sim.NodeView
	next int
}

var (
	_ sim.Protocol       = (*Discover)(nil)
	_ sim.DoneReporter   = (*Discover)(nil)
	_ sim.Sleeper        = (*Discover)(nil)
	_ sim.AmnesiaReseter = (*Discover)(nil)
)

// newDiscover returns the discovery protocol for one node.
func newDiscover(nv *sim.NodeView) *Discover { return &Discover{nv: nv} }

// Activate probes the next neighbor.
func (d *Discover) Activate(int) (int, bool) {
	if d.next >= d.nv.Degree() {
		return 0, false
	}
	idx := d.next
	d.next++
	return idx, true
}

// OnAmnesia restarts the probe cursor (discovered latencies themselves
// are engine state and survive — they are measured, not gossiped).
func (d *Discover) OnAmnesia() { d.next = 0 }

// Done reports that all probes have been sent (responses may still be in
// flight; the phase budget bounds how long we wait for them).
func (d *Discover) Done() bool { return d.next >= d.nv.Degree() }

// NextWake parks the node once every neighbor has been probed.
func (d *Discover) NextWake(round int) int {
	if d.Done() {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// discover runs a discovery phase whose round budget is opts.MaxRounds
// (typically Δ + current diameter guess) as the pipeline's next phase,
// reading Seed, Adversity and Workers besides. The returned result's
// Rounds is always the budget: discovery cost is paid in full.
func (p *pipeline) discover(opts DriverOptions) (DriverResult, error) {
	res, err := p.phase(sim.Config{
		CSR:       opts.CSR,
		Workers:   opts.Workers,
		Seed:      opts.Seed,
		MaxRounds: opts.MaxRounds,
		Mode:      sim.AllToAll,
		Adversity: opts.Adversity,
	}, func(nv *sim.NodeView) sim.Protocol { return newDiscover(nv) }, sim.StopNever(), nil)
	if err != nil {
		return res, err
	}
	res.Rounds = opts.MaxRounds
	res.Completed = true
	return res, nil
}
