package sim

import (
	"slices"

	"gossip/internal/bitset"
)

const (
	// denseDirectLimit: runs on at most this many nodes get a dense
	// per-node bitset from the start — the pre-CSR behavior, cheap at
	// small n and fastest for the all-to-all experiment regimes.
	denseDirectLimit = 1 << 13
	// densePromoteLen: on larger networks a node's set starts as a sorted
	// sparse slice and promotes to a dense bitset once it holds this many
	// rumors. One-to-all and local-broadcast workloads never promote, so
	// per-node memory is O(rumors held), not O(n) — the difference
	// between 125 GB and a few hundred MB at n=10⁶.
	densePromoteLen = 1 << 12
)

// rumorSet is a node's rumor membership structure: a hybrid sparse/dense
// set keyed by rumor id. The gain journal (held by NodeView) stays the
// authoritative ordered record; this structure only answers membership.
// The representation also picks the delivery path: a dense set takes a
// long window by the word (NodeView.gainWindow, bitset.AbsorbNew), a
// sparse one rumor by rumor through add.
type rumorSet struct {
	n      int
	sorted []int32     // sorted members while sparse; nil once dense
	dense  *bitset.Set // non-nil once promoted (or from the start, small n)
}

func (s *rumorSet) init(n int) {
	s.n = n
	if n <= denseDirectLimit {
		s.dense = bitset.New(n)
	}
}

func (s *rumorSet) contains(r int32) bool {
	if s.dense != nil {
		return s.dense.Contains(int(r))
	}
	_, found := slices.BinarySearch(s.sorted, r)
	return found
}

// add inserts r and reports whether it was absent.
func (s *rumorSet) add(r int32) bool {
	if s.dense != nil {
		if s.dense.Contains(int(r)) {
			return false
		}
		s.dense.Add(int(r))
		return true
	}
	i, found := slices.BinarySearch(s.sorted, r)
	if found {
		return false
	}
	s.sorted = slices.Insert(s.sorted, i, r)
	if len(s.sorted) >= densePromoteLen {
		s.promote()
	}
	return true
}

func (s *rumorSet) promote() {
	s.dense = bitset.New(s.n)
	for _, r := range s.sorted {
		s.dense.Add(int(r))
	}
	s.sorted = nil
}

// cloneFrom replaces s with a deep copy of src (same representation:
// sparse stays sparse, dense stays dense), reusing s's backing storage
// where possible. Used by snapshot restore; src is never mutated.
func (s *rumorSet) cloneFrom(src *rumorSet) {
	s.n = src.n
	s.sorted = append(s.sorted[:0], src.sorted...)
	switch {
	case src.dense == nil:
		s.dense = nil
	case s.dense != nil && s.dense.Len() == src.dense.Len():
		s.dense.Clear()
		s.dense.UnionWith(src.dense)
	default:
		s.dense = src.dense.Clone()
	}
}

func (s *rumorSet) count() int {
	if s.dense != nil {
		return s.dense.Count()
	}
	return len(s.sorted)
}
