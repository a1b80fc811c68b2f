package sim

import (
	"math/rand/v2"

	"gossip/internal/graph"
)

// This file is the real-transport escape hatch: a NodeView that lives
// outside the calendar engine. The engine normally owns every NodeView
// and drives protocols through the event loop; a real-network runner
// (internal/gossip RunNet over an internal/transport mesh) instead hosts
// one protocol instance per node on real goroutines and real clocks, but
// wants the *same protocol code* — the same structs, Activate and the
// optional Receiver alike, the same per-node RNG derivation, the same
// rumor bookkeeping — so that simulated and real executions differ only
// in transport.

// NewNetView builds a standalone NodeView for node id of an n-node CSR
// topology, mirroring the engine's construction exactly: the same
// seed-derived per-node PCG stream (so a protocol's random choices come
// from the same distribution family as a simulated run with the same
// seed), the same known-latency initialization, the same list-or-bitmap
// rumor set. The view is not registered with any engine; the caller owns
// rumor mutation through Gain.
func NewNetView(csr *graph.CSR, id graph.NodeID, seed uint64, knownLatencies bool) *NodeView {
	lats := csr.Latencies(id)
	known := make([]int32, len(lats))
	for i := range known {
		if knownLatencies {
			known[i] = lats[i]
		} else {
			known[i] = -1
		}
	}
	nv := &NodeView{
		id:    id,
		n:     csr.N(),
		nbrs:  csr.NeighborIDs(id),
		lats:  lats,
		known: known,
		rng:   rand.New(rand.NewPCG(seed, uint64(id)*0x9e3779b97f4a7c15+1)),
	}
	return nv
}

// Gain adds rumor r to the node's set and journal, reporting whether it
// was new — the exported mutation path for real-transport runners (the
// engine uses the unexported equivalent so the journal invariant has a
// single owner either way).
func (nv *NodeView) Gain(r int) bool { return nv.gain(r) }

// Journal returns the node's rumors in gain order. It is a read-only
// view into node-owned storage: real-transport runners snapshot it into
// outgoing messages; callers must not mutate or retain it across Gain
// calls.
func (nv *NodeView) Journal() []int32 { return nv.journal }
