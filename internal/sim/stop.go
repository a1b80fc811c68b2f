package sim

import (
	"sync"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
	"gossip/internal/graph"
)

// StopAllInformed stops when every node holds rumor r (one-to-all
// dissemination of source r's rumor). When r is the run's watched rumor
// the check rides the engine-maintained informed tally — a word-level
// NextClear scan, O(n/64) — instead of probing every node's set.
func StopAllInformed(r graph.NodeID) StopFunc {
	return func(w *World) bool {
		if w.informed != nil && r == w.watched {
			return w.informed.NextClear(0) >= len(w.Views)
		}
		for _, nv := range w.Views {
			if !nv.rum.Contains(r) {
				return false
			}
		}
		return true
	}
}

// StopAllHaveAll stops when every node holds every rumor (all-to-all
// dissemination; use with Config.Mode == AllToAll). The per-node check
// is the journal length — O(1), no popcount.
func StopAllHaveAll() StopFunc {
	return func(w *World) bool {
		n := len(w.Views)
		for _, nv := range w.Views {
			if len(nv.journal) != n {
				return false
			}
		}
		return true
	}
}

// StopLocalBroadcast stops when every node holds the rumor of each of its
// graph neighbors (the paper's local broadcast; use with AllToAll mode).
func StopLocalBroadcast() StopFunc {
	return func(w *World) bool {
		for _, nv := range w.Views {
			for _, nb := range nv.nbrs {
				if !nv.rum.Contains(int(nb)) {
					return false
				}
			}
		}
		return true
	}
}

// StopAllSurvivorsInformed stops when every node the failure model
// never permanently removes holds rumor r — the completion criterion
// under failures. A temporarily-down node rejoins and must still be
// informed, so the run cannot end while it is away; only nodes a crash
// batch or a never-rejoining churn interval removes for good are
// exempt. This matches the never-returns semantics the multi-phase
// pipelines judge completion with. When r is the watched rumor the check
// is a word-level subset test of the survivor mask against the
// engine-maintained informed tally.
func StopAllSurvivorsInformed(r graph.NodeID, spec *adversity.Spec) StopFunc {
	lazy := lazySurvivors(spec)
	return func(w *World) bool {
		survivors := lazy(len(w.Views))
		if w.informed != nil && r == w.watched {
			return survivors.SubsetOf(w.informed)
		}
		for u, nv := range w.Views {
			if survivors.Contains(u) && !nv.rum.Contains(r) {
				return false
			}
		}
		return true
	}
}

// lazySurvivors returns the mask of nodes spec never permanently removes,
// built at the first call (a StopFunc learns n only from its World) and
// exactly once: the shard workers of RunDistLocal share one StopFunc.
func lazySurvivors(spec *adversity.Spec) func(n int) *bitset.Set {
	var once sync.Once
	var survivors *bitset.Set
	return func(n int) *bitset.Set {
		once.Do(func() {
			survivors = bitset.New(n)
			for u := 0; u < n; u++ {
				if !spec.NeverReturns(u) {
					survivors.Add(u)
				}
			}
		})
		return survivors
	}
}

// Per-shard leader summaries of a distributed run (World.distLeader):
// a non-negative value is the node every owned survivor of the shard has
// unanimously decided on; the sentinels mark shards with nothing to say
// or with an owned survivor still down, undecided or disagreeing.
const (
	// LeaderAgnostic marks a shard owning no survivors: it cannot veto.
	LeaderAgnostic int32 = -2
	// LeaderUnsettled marks a shard where some owned survivor is down,
	// undecided, or disagrees with the others.
	LeaderUnsettled int32 = -1
)

// StopLeaderStable stops when every survivor — every node the failure
// model never permanently removes — is currently up, reports a decided
// leader through the LeaderReporter facet, all survivors name the same
// leader, and that leader is itself a survivor. A temporarily-down node
// rejoins and must still converge, so the run cannot end while it is
// away (the StopAllSurvivorsInformed semantics). Nodes without the
// facet count as undecided. On a distributed shard worker the check
// combines the per-shard leader summaries every owner captured at the
// same point of the round the serial engine would read its facets.
func StopLeaderStable(spec *adversity.Spec) StopFunc {
	lazy := lazySurvivors(spec)
	return func(w *World) bool {
		survivors := lazy(len(w.Views))
		leader := LeaderAgnostic
		if w.distLeader != nil {
			for _, l := range w.distLeader {
				switch {
				case l == LeaderAgnostic:
				case l == LeaderUnsettled:
					return false
				case leader == LeaderAgnostic:
					leader = l
				case leader != l:
					return false
				}
			}
		} else {
			for u := range w.Views {
				if !survivors.Contains(u) {
					continue
				}
				lr := facet(w.leaders, u)
				if lr == nil || !w.Alive(u) {
					return false
				}
				l, decided := lr.Leader()
				if !decided {
					return false
				}
				switch {
				case leader == LeaderAgnostic:
					leader = int32(l)
				case leader != int32(l):
					return false
				}
			}
		}
		// No survivors at all: vacuously stable. Otherwise the elected
		// node must itself be a survivor.
		return leader == LeaderAgnostic || survivors.Contains(int(leader))
	}
}

// StopRootAcked stops when root's rumor set contains the rumor of every
// survivor — the echo/convergecast completion criterion: each node's own
// rumor doubles as its ack, so the wave is complete exactly when the
// root has heard the full survivor set. The check reads only rumor
// state, which distributed workers replicate for all nodes, so it is
// shard-safe with no extra barrier traffic.
func StopRootAcked(root graph.NodeID, spec *adversity.Spec) StopFunc {
	lazy := lazySurvivors(spec)
	return func(w *World) bool {
		survivors := lazy(len(w.Views))
		rv := w.Views[root]
		if len(rv.journal) < survivors.Count() {
			return false
		}
		acked := true
		survivors.ForEach(func(u int) {
			if acked && !rv.rum.Contains(u) {
				acked = false
			}
		})
		return acked
	}
}

// StopAllDone stops when every live node's protocol implementing
// DoneReporter reports done (protocols without DoneReporter count as
// done; crashed nodes are excluded — their state can never change). The
// DoneReporter facets are resolved once at setup, not per check.
func StopAllDone() StopFunc {
	return func(w *World) bool {
		if w.distDone != nil {
			// Distributed shard worker: remote facets are not
			// materialized, so the check rides the per-shard all-done
			// flags every owner captured at the same point of the round
			// the serial engine would evaluate its facets.
			for _, done := range w.distDone {
				if !done {
					return false
				}
			}
			return true
		}
		for u, dr := range w.dones {
			if dr != nil && w.Alive(u) && !dr.Done() {
				return false
			}
		}
		return true
	}
}

// StopAnd stops when all constituent conditions hold.
func StopAnd(fns ...StopFunc) StopFunc {
	return func(w *World) bool {
		for _, fn := range fns {
			if !fn(w) {
				return false
			}
		}
		return true
	}
}

// StopOr stops when any constituent condition holds.
func StopOr(fns ...StopFunc) StopFunc {
	return func(w *World) bool {
		for _, fn := range fns {
			if fn(w) {
				return true
			}
		}
		return false
	}
}

// StopNever runs to the horizon (useful for fixed-budget executions).
func StopNever() StopFunc { return func(*World) bool { return false } }
