package gossip

import "slices"

// heardSet is the phase-local "heard" bookkeeping of the local-broadcast
// primitives (DTG, Superstep): a set of node ids in [0, n), held in one of
// two forms.
//
//   - Sparse: the ids sorted ascending. On sparse graphs a set holds
//     O(degree²) entries — the node's neighborhood plus what peers
//     relayed — instead of n bits, which alone would be an O(n²)-bit wall
//     at n=10⁶.
//   - Dense: denseTag followed by the ⌈n/32⌉ words of a bitmap (bit v%32
//     of word v/32 is id v). A sorted id list never starts with a
//     negative id, so the tag tells the forms apart on the wire.
//
// A set turns dense once its id list holds as many ids as the bitmap has
// words, i.e. when the list would take at least as many bytes, and stays
// dense until reset (or a restart after amnesia): the rule is
// memory-neutral, so small cliques of a large graph stay lists while
// neighborhoods of dozens of ids on a small one become a few words, where
// Contains is one bit test and Union a word-wise subset check and OR.
// The set does not store n, which would grow every DTG instance of a
// 2²⁰-node run: the methods that may switch forms take it, and a dense
// set reads its bitmap's length.
//
// The versions of the set live in an append-only log. A change writes
// the new version at the log's tail, and Snapshot hands out the current
// version where it lies, without a copy: the metadata of every exchange
// between two changes is that one slice, which the engine interns once
// (same first element, same length, same version). A version
// that has been handed out is never written again, so a snapshot in
// flight stays valid, also while a peer on another worker reads it and
// the owner appends behind it; this holds for the switch to the bitmap
// too. A version nobody has snapshotted is private and is updated in
// place. When the tail lacks room, a new chunk four times the size of
// the version being written starts the log; an old chunk lives on only
// as long as some snapshot into it does, so a long phase keeps no history
// a doubling log would. A merge that would add nothing is detected
// read-only and skipped (Union), so a converged set neither writes nor
// invalidates its snapshot. reset restarts the log for a new phase.
type heardSet struct {
	log []int32 // the current chunk; ids is its last len(ids) entries
	// ids is the current version: sorted ids, or denseTag and the bitmap.
	ids  []int32
	snap []int32 // ids capped at its length, once handed out; nil while ids is private
}

// denseTag leads the dense form of a heard set.
const denseTag = -1

// minChunk is the smallest chunk of a heard log, in ids: a set starts
// with one id and grows by a few per merge early in a phase.
const minChunk = 16

// bitmapWords is the length of a bitmap of ids [0, n): the id count at
// which a set turns dense.
func bitmapWords(n int) int { return (n + 31) >> 5 }

// dense reports whether the set is in bitmap form.
func (h *heardSet) dense() bool { return len(h.ids) > 0 && h.ids[0] == denseTag }

// Contains reports membership.
func (h *heardSet) Contains(v int) bool {
	if h.dense() {
		w := v >> 5
		return uint(w) < uint(len(h.ids)-1) && uint32(h.ids[1+w])>>(v&31)&1 != 0
	}
	_, found := slices.BinarySearch(h.ids, int32(v))
	return found
}

// Add inserts v, an id in [0, n), if absent.
func (h *heardSet) Add(v, n int) {
	if h.dense() {
		if w := v >> 5; uint(w) < uint(len(h.ids)-1) && !h.Contains(v) {
			h.private()
			h.ids[1+w] |= 1 << (v & 31)
		}
		return
	}
	i, found := slices.BinarySearch(h.ids, int32(v))
	if found {
		return
	}
	if h.snap == nil && len(h.ids) < cap(h.ids) {
		// Private, with free log behind it: insert in place.
		h.ids = slices.Insert(h.ids, i, int32(v))
		h.log = h.log[:len(h.log)+1]
	} else {
		out := h.room(len(h.ids) + 1)
		out = append(out, h.ids[:i]...)
		out = append(out, int32(v))
		h.commit(append(out, h.ids[i:]...))
	}
	if len(h.ids) >= bitmapWords(n) {
		h.toDense(nil, n)
	}
}

// Union merges a peer snapshot, in either form, into the set. Late in a
// phase most peers relay nothing new, so a read-only subset check comes
// first and such a merge writes nothing. A peer that came off a socket
// may be anything: ids outside the bitmap are dropped when they would
// land in one, and neither a bitmap of the wrong length nor an unsorted
// list panics.
func (h *heardSet) Union(peer []int32, n int) {
	switch {
	case len(peer) > 0 && peer[0] == denseTag:
		h.unionWords(peer[1:], n)
	case h.dense():
		for _, v := range peer {
			h.Add(int(v), n)
		}
	default:
		h.unionSorted(peer, n)
	}
}

// unionWords merges a peer bitmap. A set that is still sparse turns
// dense: a well-formed peer bitmap holds at least as many ids as the
// bitmap has words, and so does the union. Peer words beyond the set's
// bitmap are ignored.
func (h *heardSet) unionWords(pw []int32, n int) {
	if !h.dense() {
		h.toDense(pw, n)
		return
	}
	own := h.ids[1:]
	pw = pw[:min(len(pw), len(own))]
	for i, x := range pw {
		if x&^own[i] != 0 {
			h.private()
			own = h.ids[1:]
			for j := i; j < len(pw); j++ {
				own[j] |= pw[j]
			}
			return
		}
	}
}

// unionSorted merges a sorted peer id list into a sparse set: a subset
// scan, then the two sorted runs merged into the log's tail.
func (h *heardSet) unionSorted(peer []int32, n int) {
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
	if len(h.ids) >= bitmapWords(n) {
		h.toDense(nil, n)
	}
}

// toDense makes the sparse set's ids, OR'd with the bitmap words pw (nil
// for none), the new version in dense form over ids [0, n).
func (h *heardSet) toDense(pw []int32, n int) {
	w := bitmapWords(n)
	out := h.room(1 + w)[:1+w]
	out[0] = denseTag
	clear(out[1+copy(out[1:], pw):])
	for _, v := range h.ids {
		if uint32(v) < uint32(n) {
			out[1+v>>5] |= 1 << (v & 31)
		}
	}
	h.commit(out)
}

// private makes the current version writable in place: a version that
// has been handed out is copied to the log's tail first.
func (h *heardSet) private() {
	if h.snap != nil {
		h.commit(append(h.room(len(h.ids)), h.ids...))
	}
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

// reset empties the set to {self} over ids [0, n) for a new phase and
// reuses the log from its start. No snapshot of the old versions may
// still be read: a pipeline phase starts on an empty calendar, so none is
// in flight. On a zero heardSet it starts a new log.
func (h *heardSet) reset(self, n int) {
	h.log, h.snap = h.log[:0], nil
	h.ids = h.log
	h.Add(self, n)
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

// Snapshot returns the current version as an immutable []int32 in
// either form, the exchange metadata. The same slice is handed out until
// the set next changes; receivers must treat it as read-only (the
// exchange-metadata contract). Its capacity ends at its length, so even
// an append by a reader cannot reach the log behind it.
func (h *heardSet) Snapshot() []int32 {
	if h.snap == nil {
		h.snap = h.ids[:len(h.ids):len(h.ids)]
	}
	return h.snap
}
