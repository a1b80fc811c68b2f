package gossip

import (
	"gossip/internal/graph"
	"gossip/internal/sim"
)

// Echo is the echo/convergecast wave on the gossip transport: the root
// floods a wave token outward, and acknowledgements converge back until
// the root has heard the entire survivor set. Runs use AllToAll seeding
// so every node's own rumor doubles as its ack — a node joins the wave
// only once it holds the root's token, and from then on every piece of
// new information (a deeper node's ack included) re-arms a full
// round-robin sweep over its neighbors, pushing the union of what it
// knows both down and up the wave. Completion (sim.StopRootAcked) is
// exactly "the root's rumor set contains every survivor's rumor".
//
// Echo keeps no per-exchange bookkeeping beyond the sweep cursor, so a
// lost exchange is repaired only if some later delivery re-arms the
// sweep; under heavy loss a wave can quiesce incomplete, which is the
// trade-off experiment E31 measures.
type Echo struct {
	nv   *sim.NodeView
	root graph.NodeID
	// next is the round-robin neighbor cursor; sweepLeft counts the
	// contacts remaining in the current sweep.
	next      int
	sweepLeft int
	// lastCount is the rumor-set size at the last re-arm; any change —
	// including the drop after amnesia — restarts a full sweep.
	lastCount int
}

var (
	_ sim.Protocol       = (*Echo)(nil)
	_ sim.Sleeper        = (*Echo)(nil)
	_ sim.AmnesiaReseter = (*Echo)(nil)
	_ sim.StateCloner    = (*Echo)(nil)
)

// CloneStateFrom copies the sweep state from a frozen snapshot instance.
func (e *Echo) CloneStateFrom(src sim.Protocol) {
	s := src.(*Echo)
	e.next = s.next
	e.sweepLeft = s.sweepLeft
	e.lastCount = s.lastCount
}

// Activate joins the wave once the root's token has arrived and works
// through the current sweep one neighbor per round, re-arming a full
// sweep whenever the node's rumor set changed since the last one.
func (e *Echo) Activate(round int) (int, bool) {
	if e.nv.Degree() == 0 || !e.nv.Knows(e.root) {
		return 0, false
	}
	if c := e.nv.RumorCount(); c != e.lastCount {
		e.lastCount = c
		e.sweepLeft = e.nv.Degree()
	}
	if e.sweepLeft == 0 {
		return 0, false
	}
	idx := e.next % e.nv.Degree()
	e.next++
	e.sweepLeft--
	return idx, true
}

// NextWake parks the node until the next delivery when it has nothing
// to do — before the token arrives, or between sweeps. The Sleeper
// contract holds because only a delivery can change the rumor set, and
// a delivery re-wakes the node.
func (e *Echo) NextWake(round int) int {
	if e.nv.Degree() == 0 || !e.nv.Knows(e.root) {
		return sim.WakeOnDelivery
	}
	if e.sweepLeft == 0 && e.nv.RumorCount() == e.lastCount {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// OnAmnesia resets the sweep; the engine re-seeds the node's own rumor,
// so the next Activate sees a count change and re-arms once the token
// is heard again.
func (e *Echo) OnAmnesia() {
	e.next = 0
	e.sweepLeft = 0
	e.lastCount = 0
}

func init() {
	Register(&Driver{
		Name:        "echo",
		Aliases:     []string{"convergecast"},
		Description: "echo/convergecast wave: the root floods a token and acks converge back until the root heard every survivor",
		Options: []OptionDoc{
			{"Source", "wave root collecting the acks", []string{"source"}},
			{"Adversity", "fault schedule: loss, churn, flaps, crash batches", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Distributable: true,
		Prepare: func(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
			n := opts.CSR.N()
			slab := make([]Echo, n)
			factory := func(nv *sim.NodeView) sim.Protocol {
				p := &slab[nv.ID()]
				*p = Echo{nv: nv, root: opts.Source}
				return p
			}
			return sim.Config{
				CSR:       opts.CSR,
				Workers:   opts.Workers,
				Seed:      opts.Seed,
				MaxRounds: opts.MaxRounds,
				Mode:      sim.AllToAll,
				Source:    opts.Source,
				Adversity: opts.Adversity,
			}, factory, sim.StopRootAcked(opts.Source, opts.Adversity), nil
		},
	})
}
