package gossip

import (
	"fmt"

	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// RR is the round-robin broadcast of Algorithm 1: each node cycles through
// its directed-spanner out-edges of latency <= k, initiating one exchange
// per round, for budget rounds in total. Lemma 21 shows k·Δout + k rounds
// suffice to exchange rumors between any two nodes within distance k.
type RR struct {
	out    []int // adjacency indices of usable out-edges
	budget int
	steps  int
}

var (
	_ sim.Protocol       = (*RR)(nil)
	_ sim.DoneReporter   = (*RR)(nil)
	_ sim.Sleeper        = (*RR)(nil)
	_ sim.AmnesiaReseter = (*RR)(nil)
	_ sim.StateCloner    = (*RR)(nil)
)

// CloneStateFrom copies the schedule position from a frozen snapshot
// instance; out-edges and budget come from construction.
func (r *RR) CloneStateFrom(src sim.Protocol) {
	r.steps = src.(*RR).steps
}

// newRR returns the RR protocol for one node. outIdx are the node's
// spanner out-edge adjacency indices (already filtered to latency <= k).
func newRR(outIdx []int, budget int) *RR {
	return &RR{out: outIdx, budget: budget}
}

// Activate cycles through out-edges until the budget is exhausted.
func (r *RR) Activate(int) (int, bool) {
	if r.steps >= r.budget || len(r.out) == 0 {
		return 0, false
	}
	idx := r.out[r.steps%len(r.out)]
	r.steps++
	return idx, true
}

// Done reports budget exhaustion.
func (r *RR) Done() bool { return r.steps >= r.budget || len(r.out) == 0 }

// OnAmnesia restarts the round-robin schedule: a node that lost its
// state re-pays its full budget so its (rebuilt) rumors still traverse
// every out-edge.
func (r *RR) OnAmnesia() { r.steps = 0 }

// NextWake parks the node once its budget is exhausted; until then it
// acts every round.
func (r *RR) NextWake(round int) int {
	if r.Done() {
		return sim.WakeOnDelivery
	}
	return round + 1
}

// prepareRR expands one RR Broadcast phase into its sim.Run invocation
// without executing it: the "rr" driver's Prepare hook, and thus what
// warm-start forking goes through. opts.Spanner supplies the out-edge
// orientation (nil builds a default Baswana-Sen spanner from Seed); only
// out-edges with latency <= K are used (K <= 0 means all) and the budget
// is K·Δout + K (Δout measured over usable edges) unless Budget overrides
// it; Stop ends the phase early (the default is budget exhaustion). The
// orientation is rebuilt deterministically from the spanner, so
// re-preparing a variant against a frozen snapshot reproduces the
// schedule bit-identically.
func prepareRR(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	csr := opts.CSR
	n := csr.N()
	sp := opts.Spanner
	if sp == nil {
		var err error
		sp, err = spanner.BuildCSR(csr, spanner.Options{Seed: opts.Seed ^ 0x5bd1e995})
		if err != nil {
			return sim.Config{}, nil, nil, err
		}
	}
	if len(sp.Out) != n {
		return sim.Config{}, nil, nil, fmt.Errorf("gossip: rr spanner has %d nodes, topology has %d", len(sp.Out), n)
	}
	k := opts.K
	if k <= 0 {
		k = csr.MaxLatency()
	}
	// slot[v] is v's adjacency index at the node being scanned; only the
	// current node's neighbors are read back, so it is never reset.
	slot := make([]int, n)
	outIdx := make([][]int, n)
	maxOut := 0
	for u := 0; u < n; u++ {
		nbrs := csr.NeighborIDs(u)
		for i, v := range nbrs {
			slot[v] = i
		}
		idx := make([]int, 0, len(sp.Out[u]))
		for _, e := range sp.Out[u] {
			if e.Latency > k {
				continue
			}
			i := slot[e.ID]
			if i >= len(nbrs) || int(nbrs[i]) != e.ID {
				return sim.Config{}, nil, nil, fmt.Errorf("gossip: rr spanner edge (%d,%d) is not in the topology", u, e.ID)
			}
			idx = append(idx, i)
		}
		outIdx[u] = idx
		maxOut = max(maxOut, len(idx))
	}
	budget := opts.Budget
	if budget <= 0 {
		budget = k*maxOut + k
	}
	stop := sim.StopAllDone()
	if opts.Stop != nil {
		stop = sim.StopOr(opts.Stop, stop)
	}
	return sim.Config{
		CSR:            csr,
		Workers:        opts.Workers,
		Seed:           opts.Seed,
		KnownLatencies: true,
		MaxRounds:      opts.MaxRounds,
		Mode:           sim.AllToAll,
		Adversity:      opts.Adversity,
	}, func(nv *sim.NodeView) sim.Protocol { return newRR(outIdx[nv.ID()], budget) }, stop, nil
}
