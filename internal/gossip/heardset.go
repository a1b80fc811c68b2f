package gossip

import "slices"

// heardSet is the phase-local "heard" bookkeeping of the local-broadcast
// primitives (DTG, Superstep): a sorted sparse set of node ids. On
// sparse graphs it holds O(degree²) entries — the node's neighborhood
// plus what peers relayed — instead of the n-bit dense set the pre-CSR
// implementation kept per node, which alone was an O(n²)-bit wall at
// n=10⁶. Snapshots are cached immutable slices, boxed as exchange
// metadata once, so the metadata of every exchange between two state
// changes shares one allocation and one box, and a merge that would
// add nothing is detected read-only and skipped (Union), so a converged
// set neither writes nor invalidates its snapshot.
type heardSet struct {
	ids  []int32 // sorted ascending
	snap any     // cached immutable snapshot, a boxed []int32; nil when stale
	buf  []int32 // merge scratch, swapped with ids on a merge that adds
}

// Contains reports membership.
func (h *heardSet) Contains(v int) bool {
	_, found := slices.BinarySearch(h.ids, int32(v))
	return found
}

// Add inserts v if absent.
func (h *heardSet) Add(v int) {
	i, found := slices.BinarySearch(h.ids, int32(v))
	if found {
		return
	}
	h.ids = slices.Insert(h.ids, i, int32(v))
	h.snap = nil
}

// Union merges a sorted peer snapshot into the set. Late in a phase most
// peers relay nothing new, so a read-only subset scan comes first and
// such a merge writes nothing; otherwise the merge buffer is sized for
// the worst case once and the two sorted runs are merged into it.
func (h *heardSet) Union(peer []int32) {
	if subsetSorted(peer, h.ids) {
		return
	}
	out := h.buf[:0]
	if cap(out) < len(h.ids)+len(peer) {
		out = make([]int32, 0, len(h.ids)+len(peer))
	}
	i, j := 0, 0
	for i < len(h.ids) && j < len(peer) {
		switch {
		case h.ids[i] < peer[j]:
			out = append(out, h.ids[i])
			i++
		case h.ids[i] > peer[j]:
			out = append(out, peer[j])
			j++
		default:
			out = append(out, h.ids[i])
			i++
			j++
		}
	}
	out = append(out, h.ids[i:]...)
	out = append(out, peer[j:]...)
	h.buf = h.ids[:0]
	h.ids = out
	h.snap = nil
}

// subsetSorted reports whether every element of a is in b; both are
// sorted ascending without duplicates, so when they are the same size a
// is a subset exactly when it is equal (the converged case, one memory
// compare).
func subsetSorted(a, b []int32) bool {
	switch {
	case len(a) > len(b):
		return false
	case len(a) == len(b):
		return slices.Equal(a, b)
	}
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j == len(b) || b[j] != x {
			return false
		}
		j++
	}
	return true
}

// cloneFrom replaces h with a deep copy of src's membership. The
// snapshot cache restarts empty rather than being shared: src belongs to
// a frozen engine read concurrently by parallel restores, and Snapshot()
// mutates the cache. The rebuilt snapshot is element-identical.
func (h *heardSet) cloneFrom(src *heardSet) {
	h.ids = append(h.ids[:0], src.ids...)
	h.snap = nil
	h.buf = nil
}

// Snapshot returns the current membership as an immutable sorted
// []int32, boxed as exchange metadata. The same value is handed out until
// the set next changes; receivers must treat it as read-only (the
// exchange-metadata contract).
func (h *heardSet) Snapshot() any {
	if h.snap == nil {
		h.snap = slices.Clone(h.ids)
	}
	return h.snap
}
