package gossip

import "gossip/internal/bitset"

// heardSet is the phase-local "heard" bookkeeping of the local-broadcast
// primitives (DTG, Superstep): a bitset.NodeSet of node ids in [0, n)
// whose current version rides on every exchange as metadata. On sparse
// graphs it holds O(degree²) ids (the node's neighborhood plus what peers
// relayed) instead of n bits, which alone would be an O(n²)-bit wall at
// n=10⁶.
//
// The versions of the set form an append-only log. Snapshot hands out the
// current version where it lies, without a copy: the metadata of every
// exchange between two changes is that one slice, which the engine interns
// once. A version that has been handed out is never written again, so a
// snapshot in flight stays valid, also while a peer on another worker
// reads it and the owner writes behind it, the switch to the bitmap
// included. The next change writes the new version behind the handed-out
// one, or in fresh storage four times its size that the versions after it
// fill; old storage lives on only while some snapshot into it does. A
// version nobody has snapshotted is private and is updated in place, and
// a merge that would add nothing is detected read-only, so a converged
// set neither writes nor invalidates its snapshot. reset restarts the log
// for a new phase.
type heardSet struct {
	ids  bitset.NodeSet // the current version
	log  []int32        // the storage ids lies in, from its start
	snap []int32        // ids capped at its length, once handed out; nil while ids is private
}

// Contains reports membership.
func (h *heardSet) Contains(v int) bool { return h.ids.Contains(v) }

// Add inserts v, an id in [0, n), if absent.
func (h *heardSet) Add(v, n int) {
	if h.ids.Add(v, n, h.snap != nil) {
		h.changed()
	}
}

// Union merges a peer snapshot, in either form, into the set; a peer that
// came off a socket may be anything (see bitset.NodeSet.Union).
func (h *heardSet) Union(peer []int32, n int) {
	if h.ids.Union(peer, n, h.snap != nil) {
		h.changed()
	}
}

// changed makes a new version private. A version that does not end
// where the log's storage does lies at the start of fresh storage, which
// the log continues in.
func (h *heardSet) changed() {
	h.snap = nil
	if cap(h.log) == 0 || &h.ids[:cap(h.ids)][cap(h.ids)-1] != &h.log[:cap(h.log)][cap(h.log)-1] {
		h.log = h.ids[:0]
	}
}

// reset empties the set to {self} over ids [0, n) for a new phase and
// reuses the log from its start. No snapshot of the old versions may
// still be read: a pipeline phase starts on an empty calendar, so none is
// in flight. On a zero heardSet it starts a new log.
func (h *heardSet) reset(self, n int) {
	if h.log == nil {
		h.log = make([]int32, 0, minChunk)
	}
	h.ids, h.snap = h.log[:0], nil
	h.Add(self, n)
}

// minChunk is the storage a heard log starts in, in ids: a set starts
// with one id and grows by a few per merge early in a phase, each merge a
// new version behind the last.
const minChunk = 16

// cloneFrom replaces h with a deep copy of src's membership, in a log of
// its own: src belongs to a frozen engine read concurrently by parallel
// restores, and its snapshots may still be in flight there. The rebuilt
// snapshot is element-identical.
func (h *heardSet) cloneFrom(src *heardSet) {
	*h = heardSet{ids: append(bitset.NodeSet(nil), src.ids...)}
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
