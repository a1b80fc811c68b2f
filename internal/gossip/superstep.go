package gossip

import "gossip/internal/sim"

// Superstep is the randomized local broadcast primitive in the style of
// Censor-Hillel et al. [5] (the alternative to DTG that the paper's
// Section 4.1.1 mentions): in every step each node with unheard G_ℓ
// neighbors initiates an exchange with one of them chosen uniformly at
// random, blocking until it completes. Like DTG it maintains a
// phase-local heard set carried on exchange metadata, so repeated phases
// re-pay their schedule.
//
// The Timeout field is this repository's fault-tolerance extension (the
// paper's Section 7 future work): when positive, a node abandons an
// exchange that has not completed within Timeout rounds and moves on,
// treating the peer as unreachable. This bounds the damage of fail-stop
// crashes that stall the plain (timeout-free) primitive forever.
type Superstep struct {
	nv       *sim.NodeView
	ell      int
	timeout  int
	eligible []int
	heard    heardSet
	// abandoned marks, by adjacency index, the neighbors given up on after
	// a timeout; nil without one.
	abandoned []bool
	// fresh is Activate's scratch list of unheard eligible neighbors.
	fresh     []int
	pending   int
	pendingAt int
	done      bool
}

var (
	_ sim.Protocol       = (*Superstep)(nil)
	_ sim.MetaProducer   = (*Superstep)(nil)
	_ sim.DoneReporter   = (*Superstep)(nil)
	_ sim.Waiter         = (*Superstep)(nil)
	_ sim.Sleeper        = (*Superstep)(nil)
	_ sim.AmnesiaReseter = (*Superstep)(nil)
	_ sim.StateCloner    = (*Superstep)(nil)
)

// CloneStateFrom deep-copies the state machine (heard set, abandonment
// marks, in-flight marker and its start round) from a frozen snapshot
// instance; eligible and the abandonment table were rebuilt identically
// by the factory.
func (s *Superstep) CloneStateFrom(src sim.Protocol) {
	o := src.(*Superstep)
	s.heard.cloneFrom(&o.heard)
	copy(s.abandoned, o.abandoned)
	s.pending = o.pending
	s.pendingAt = o.pendingAt
	s.done = o.done
}

// NextWake parks a finished node; a node blocked on an exchange sleeps
// until either the delivery or — with the fault-tolerance extension — the
// round its abandonment timer fires, so crashes cost O(1) events instead
// of O(timeout) no-op scans.
func (s *Superstep) NextWake(round int) int {
	if s.done {
		return sim.WakeOnDelivery
	}
	if s.pending >= 0 {
		if s.timeout > 0 {
			return s.pendingAt + s.timeout
		}
		return sim.WakeOnDelivery
	}
	return round + 1
}

// Waiting keeps the simulator alive while a timeout is pending so the
// abandonment timer can fire even when every other node is silent.
func (s *Superstep) Waiting() bool {
	return !s.done && s.timeout > 0 && s.pending >= 0
}

// newSuperstep returns the randomized local broadcast protocol for one
// node. ell <= 0 disables the latency filter; timeout <= 0 disables
// abandonment.
func newSuperstep(nv *sim.NodeView, ell, timeout int) *Superstep {
	s := &Superstep{nv: nv, ell: ell, timeout: timeout, pending: -1}
	if timeout > 0 {
		s.abandoned = make([]bool, nv.Degree())
	}
	s.heard.reset(nv.ID(), nv.N())
	for i := 0; i < nv.Degree(); i++ {
		lat, known := nv.Latency(i)
		if !known {
			continue
		}
		if ell <= 0 || lat <= ell {
			s.eligible = append(s.eligible, i)
		}
	}
	return s
}

// prepareSuperstep expands one Superstep phase run to quiescence into its
// sim.Run invocation: the "superstep" driver's Prepare hook, and the
// fault-tolerant pipeline's neighborhood-gathering phase.
func prepareSuperstep(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	return sim.Config{
			CSR:            opts.CSR,
			Workers:        opts.Workers,
			Seed:           opts.Seed,
			KnownLatencies: true,
			MaxRounds:      opts.MaxRounds,
			Mode:           sim.AllToAll,
			Adversity:      opts.Adversity,
		}, func(nv *sim.NodeView) sim.Protocol {
			return newSuperstep(nv, opts.Ell, opts.LBTimeout)
		}, sim.StopAllDone(), nil
}

// Meta snapshots the phase-local heard set (a cached immutable []int32,
// sorted ids or a tagged bitmap, shared until the set next changes).
func (s *Superstep) Meta() []int32 { return s.heard.Snapshot() }

// Done reports local termination (all eligible neighbors heard or
// abandoned).
func (s *Superstep) Done() bool { return s.done }

// Activate initiates an exchange with a random unheard neighbor.
func (s *Superstep) Activate(round int) (int, bool) {
	if s.done {
		return 0, false
	}
	if s.pending >= 0 {
		if s.timeout > 0 && round-s.pendingAt >= s.timeout {
			// Fault-tolerance extension: give up on the stalled peer.
			s.abandoned[s.pending] = true
			s.pending = -1
		} else {
			return 0, false
		}
	}
	fresh := s.fresh[:0]
	for _, i := range s.eligible {
		if (s.abandoned == nil || !s.abandoned[i]) && !s.heard.Contains(s.nv.NeighborID(i)) {
			fresh = append(fresh, i)
		}
	}
	s.fresh = fresh
	if len(fresh) == 0 {
		s.done = true
		return 0, false
	}
	idx := fresh[s.nv.RNG().IntN(len(fresh))]
	s.pending = idx
	s.pendingAt = round
	return idx, true
}

// OnAmnesia restarts the protocol from its initial state alongside the
// engine's rumor reset: heard and abandoned sets clear, any in-flight
// marker drops (the exchange was lost with the down interval).
func (s *Superstep) OnAmnesia() {
	s.heard = heardSet{}
	s.heard.reset(s.nv.ID(), s.nv.N())
	clear(s.abandoned)
	s.pending = -1
	s.done = false
}

// OnDeliver merges the peer's heard set and unblocks the node.
func (s *Superstep) OnDeliver(dv sim.Delivery) {
	s.heard.Union(dv.PeerMeta, s.nv.N())
	s.heard.Add(dv.Peer, s.nv.N())
	if dv.Initiator && dv.NeighborIndex == s.pending {
		s.pending = -1
	}
}
