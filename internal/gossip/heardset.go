package gossip

import "slices"

// heardSet is the phase-local "heard" bookkeeping of the local-broadcast
// primitives (DTG, Superstep): a sorted sparse set of node ids. On
// sparse graphs it holds O(degree²) entries — the node's neighborhood
// plus what peers relayed — instead of the n-bit dense set the pre-CSR
// implementation kept per node, which alone was an O(n²)-bit wall at
// n=10⁶.
//
// The versions of the set live in an append-only log. A change writes
// the new version at the log's tail, and Snapshot boxes the current
// version where it lies, without a copy, once per version: the metadata
// of every exchange between two changes shares that one box. A version
// that has been handed out is never written again, so a snapshot in
// flight stays valid, also while a peer on another worker reads it and
// the owner appends behind it. A version nobody has snapshotted is
// private and is updated in place. When the tail lacks room, a new chunk
// four times the size of the version being written starts the log; an
// old chunk lives on only as long as some snapshot into it does, so a
// long phase keeps no history a doubling log would. A merge that would
// add nothing is detected read-only and skipped (Union), so a converged
// set neither writes nor invalidates its snapshot. reset restarts the log
// for a new phase.
type heardSet struct {
	log  []int32 // the current chunk; ids is its last len(ids) entries
	ids  []int32 // the current version, sorted ascending
	snap any     // ids boxed, once handed out; nil while ids is private
}

// minChunk is the smallest chunk of a heard log, in ids: a set starts
// with one id and grows by a few per merge early in a phase.
const minChunk = 16

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
	if h.snap == nil && len(h.ids) < cap(h.ids) {
		// Private, with free log behind it: insert in place.
		h.ids = slices.Insert(h.ids, i, int32(v))
		h.log = h.log[:len(h.log)+1]
		return
	}
	out := h.room(len(h.ids) + 1)
	out = append(out, h.ids[:i]...)
	out = append(out, int32(v))
	h.commit(append(out, h.ids[i:]...))
}

// Union merges a sorted peer snapshot into the set. Late in a phase most
// peers relay nothing new, so a read-only subset scan comes first and
// such a merge writes nothing; otherwise the two sorted runs are merged
// into the log's tail.
func (h *heardSet) Union(peer []int32) {
	if subsetSorted(peer, h.ids) {
		return
	}
	out := h.room(len(h.ids) + len(peer))
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
	h.commit(append(out, peer[j:]...))
}

// room returns an empty slice at the log's free tail with space for n
// ids, starting a new chunk when the current one lacks it.
func (h *heardSet) room(n int) []int32 {
	if cap(h.log)-len(h.log) < n {
		h.log = make([]int32, 0, max(4*n, minChunk))
	}
	return h.log[len(h.log):]
}

// commit makes v, written at the log's tail by room, the current version.
// A private previous version that v follows in the same chunk is
// reclaimed: v moves down over it. (When room started a new chunk the
// log is empty and a non-empty previous version lies in the old one.)
func (h *heardSet) commit(v []int32) {
	at := len(h.log)
	if h.snap == nil && at >= len(h.ids) {
		at -= len(h.ids)
		v = h.log[at : at+copy(h.log[at:cap(h.log)], v)]
	}
	h.log = h.log[:at+len(v)]
	h.ids = v
	h.snap = nil
}

// reset empties the set to {self} for a new phase and reuses the log
// from its start. No snapshot of the old versions may still be read: a
// pipeline phase starts on an empty calendar, so none is in flight.
func (h *heardSet) reset(self int) {
	h.log, h.snap = h.log[:0], nil
	h.ids = h.log
	h.Add(self)
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

// cloneFrom replaces h with a deep copy of src's membership, in a log of
// its own: src belongs to a frozen engine read concurrently by parallel
// restores, and its snapshots may still be in flight there. The rebuilt
// snapshot is element-identical.
func (h *heardSet) cloneFrom(src *heardSet) {
	*h = heardSet{}
	h.commit(append(h.room(len(src.ids)), src.ids...))
}

// Snapshot returns the current membership as an immutable sorted
// []int32, boxed as exchange metadata. The same value is handed out until
// the set next changes; receivers must treat it as read-only (the
// exchange-metadata contract). Its capacity ends at its length, so even
// an append by a reader cannot reach the log behind it.
func (h *heardSet) Snapshot() any {
	if h.snap == nil {
		h.snap = h.ids[:len(h.ids):len(h.ids)]
	}
	return h.snap
}
