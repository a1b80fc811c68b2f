package gossip

import (
	"gossip/internal/sim"
)

// Election is highest-surviving-ID leader election by candidacy gossip:
// every node continuously advertises the best (leader, evidence-round)
// pair it knows on exchange metadata while contacting neighbors
// round-robin. A node adopts any advertised leader with a higher ID than
// its current choice, refreshes evidence when peers confirm the leader
// is alive, and falls back to self-candidacy when the evidence goes
// stale for SuspectAfter rounds — which is how the protocol re-elects
// after the leader crashes or churns out: stale copies of the dead
// leader's candidacy time out everywhere, and the highest surviving ID
// wins the next wave. A choice that survives unchanged for StableRounds
// counts as decided (the LeaderReporter facet), and the run completes
// when every survivor has decided on the same surviving leader
// (sim.StopLeaderStable).
//
// All state changes happen in OnDeliver and Activate on owner-side
// state, and the advertisement is sampled at round barriers as exchange
// metadata, so runs are bit-identical across worker counts and shards.
type Election struct {
	nv           *sim.NodeView
	suspectAfter int
	stableRounds int
	// leader/evid are the best candidacy this node knows: the candidate
	// and the latest round at which someone had evidence of it alive.
	leader int32
	evid   int32
	// lastChange is the round leader last changed (-1 = re-anchor at the
	// next Activate, the post-amnesia state); settled is the decision
	// flag derived from it, refreshed every Activate.
	lastChange int
	settled    bool
	// next is the round-robin neighbor cursor.
	next int
	// meta is the immutable advertised pair (nil until first use);
	// receivers of a Meta() slice may hold it across barriers, so it is
	// reallocated — never mutated — when the values change.
	meta []int32
}

var (
	_ sim.Protocol       = (*Election)(nil)
	_ sim.MetaProducer   = (*Election)(nil)
	_ sim.LeaderReporter = (*Election)(nil)
	_ sim.Waiter         = (*Election)(nil)
	_ sim.AmnesiaReseter = (*Election)(nil)
	_ sim.StateCloner    = (*Election)(nil)
)

// newElection returns the election protocol for one node: initially its
// own candidate, with fresh evidence.
func newElection(nv *sim.NodeView, suspectAfter, stableRounds int) *Election {
	return &Election{
		nv:           nv,
		suspectAfter: suspectAfter,
		stableRounds: stableRounds,
		leader:       int32(nv.ID()),
	}
}

// CloneStateFrom copies the candidacy state from a frozen snapshot
// instance; the metadata cache restarts empty (it is rebuilt with
// identical values on first use).
func (el *Election) CloneStateFrom(src sim.Protocol) {
	s := src.(*Election)
	el.leader = s.leader
	el.evid = s.evid
	el.lastChange = s.lastChange
	el.settled = s.settled
	el.next = s.next
	el.meta = nil
}

// Leader reports the node's current choice and whether it has been
// stable for StableRounds (the decision criterion StopLeaderStable and
// the invariant harness read).
func (el *Election) Leader() (int, bool) { return int(el.leader), el.settled }

// Waiting keeps the engine from declaring quiescence before the node has
// decided: a node with no (live) neighbors still needs Activate calls to
// run its staleness timer and settle on itself.
func (el *Election) Waiting() bool { return !el.settled }

// Meta advertises the node's best candidacy to exchange peers as an
// immutable {leader, evidence-round} pair.
func (el *Election) Meta() []int32 {
	if m := el.meta; m == nil || m[0] != el.leader || m[1] != el.evid {
		el.meta = []int32{el.leader, el.evid}
	}
	return el.meta
}

// consider applies one candidacy observation: a candidate c with
// evidence of life at round ev, observed at round now. Already-stale
// evidence never installs a new leader (it would be suspected at the
// next Activate anyway — skipping it keeps dead leaders' copies from
// ping-ponging during re-election).
func (el *Election) consider(c, ev int32, now int) {
	switch {
	case c == el.leader:
		if ev > el.evid {
			el.evid = ev
		}
	case c > el.leader:
		if now-int(ev) > el.suspectAfter {
			return
		}
		el.leader = c
		el.evid = ev
		el.lastChange = now
		el.settled = false
	}
}

// OnDeliver folds in the peer's advertised candidacy — and the peer
// itself: a delivered exchange proves the peer was alive through the
// transit window, so it is a candidate with evidence at this round.
func (el *Election) OnDeliver(dv sim.Delivery) {
	if pm := dv.PeerMeta; len(pm) == 2 {
		el.consider(pm[0], pm[1], dv.Round)
	}
	el.consider(int32(dv.Peer), int32(dv.Round), dv.Round)
}

// Activate runs the staleness timer and contacts the next neighbor in
// round-robin order. A node that is its own leader refreshes its
// evidence every round — that refresh, gossiped outward, is the leader's
// heartbeat.
func (el *Election) Activate(round int) (int, bool) {
	if el.lastChange < 0 {
		el.lastChange = round
	}
	self := int32(el.nv.ID())
	if el.leader == self {
		el.evid = int32(round)
	} else if round-int(el.evid) > el.suspectAfter {
		el.leader = self
		el.evid = int32(round)
		el.lastChange = round
		el.settled = false
	}
	if !el.settled && round-el.lastChange >= el.stableRounds {
		el.settled = true
	}
	if el.nv.Degree() == 0 {
		return 0, false
	}
	idx := el.next % el.nv.Degree()
	el.next++
	return idx, true
}

// OnAmnesia restarts the node as a fresh self-candidate; lastChange
// re-anchors at the rejoin round's Activate (the engine wakes a
// rejoining node immediately).
func (el *Election) OnAmnesia() {
	el.leader = int32(el.nv.ID())
	el.evid = 0
	el.lastChange = -1
	el.settled = false
	el.next = 0
	el.meta = nil
}

// electionDefaults derives generous graph-aware timers: evidence must
// travel leader→node through round-robin sweeps (≤ degree rounds per
// hop) plus edge latencies, so the suspicion window scales with the
// network size and the slowest edge, and the stability window with the
// refresh lag alone. Values are deliberately loose — liveness timers
// trade re-election speed for stability, and the defaults favor never
// suspecting a live leader.
func electionDefaults(n, maxLat int) (suspectAfter, stableRounds int) {
	return 64 + 4*n + 8*maxLat, 32 + 2*maxLat
}

func init() {
	Register(&Driver{
		Name:        "election",
		Aliases:     []string{"leader"},
		Description: "highest-surviving-ID leader election via candidacy gossip; re-elects after crashes and churn",
		Options: []OptionDoc{
			{"SuspectAfter", "rounds without evidence of the leader before a node suspects it and reverts to self-candidacy (0 = graph-derived default)", []string{"suspect_after"}},
			{"StableRounds", "rounds a node's choice must survive unchanged to count as decided (0 = graph-derived default)", []string{"stable_rounds"}},
			{"Adversity", "fault schedule: loss, churn, flaps, crash batches", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Distributable: true,
		Prepare: func(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
			n := opts.CSR.N()
			suspectAfter, stableRounds := electionDefaults(n, opts.CSR.MaxLatency())
			if opts.SuspectAfter > 0 {
				suspectAfter = opts.SuspectAfter
			}
			if opts.StableRounds > 0 {
				stableRounds = opts.StableRounds
			}
			slab := make([]Election, n)
			factory := func(nv *sim.NodeView) sim.Protocol {
				p := &slab[nv.ID()]
				*p = *newElection(nv, suspectAfter, stableRounds)
				return p
			}
			return sim.Config{
				CSR:       opts.CSR,
				Workers:   opts.Workers,
				Seed:      opts.Seed,
				MaxRounds: opts.MaxRounds,
				Mode:      sim.OneToAll,
				Source:    0,
				Adversity: opts.Adversity,
			}, factory, sim.StopLeaderStable(opts.Adversity), nil
		},
	})
}
