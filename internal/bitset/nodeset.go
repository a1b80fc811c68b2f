package bitset

import (
	"math/bits"
	"slices"
)

// DenseTag leads the bitmap form of a NodeSet. A list never starts with a
// negative id, so the tag tells the forms apart, also on the wire.
const DenseTag = -1

// Words is the length in int32 words of a bitmap of ids [0, n): the id
// count at which a NodeSet over [0, n) turns into one.
func Words(n int) int { return (n + 31) >> 5 }

// NodeSet is a set of node ids in [0, n) in one []int32: a list, the ids
// sorted ascending, or a bitmap, DenseTag and then Words(n) words with
// bit v%32 of word v/32 standing for id v. A set is a bitmap exactly when
// it holds at least Words(n) ids, when its list would take at least as
// many bytes: a memory-neutral rule with no tuning constant, so a few ids
// on a large network stay a list — at n = 10⁶, hundreds of MB for
// per-node sets instead of 125 GB — while dozens on a small one become a
// few words, where Contains is one bit test and a union a word-wise
// subset check and OR. The switch rewrites the list into the bitmap in
// the storage the list already has, and a set never turns back. The zero
// value is the empty list; n is not stored, and the methods that may
// switch forms take it. A set is written in place, except where a method
// is told its current version is shared: a version that has been handed
// out is never written again, and the changed set is written behind it.
type NodeSet []int32

// FirstRoom is the room the first Add gives an empty set over [0, n):
// sets that start in one arena, FirstRoom(n) ids each, are spared an
// allocation each.
func FirstRoom(n int) int { return min(4, 1+Words(n)) }

// Dense reports whether the set is in bitmap form.
func (s NodeSet) Dense() bool { return len(s) > 0 && s[0] == DenseTag }

// Len returns the number of ids in the set.
func (s NodeSet) Len() int {
	if s.Dense() {
		return ones(s[1:])
	}
	return len(s)
}

// Contains reports membership; ids outside [0, n) are never members.
func (s NodeSet) Contains(v int) bool {
	if s.Dense() {
		w := v >> 5
		return uint(w) < uint(len(s)-1) && uint32(s[1+w])>>(v&31)&1 != 0
	}
	_, found := slices.BinarySearch(s, int32(v))
	return found
}

// Add inserts v, an id in [0, n), and reports whether it was absent. When
// shared is set, the current version is left as it is and the set with v
// is written behind it, in the rest of its storage when that has room.
func (s *NodeSet) Add(v, n int, shared bool) bool {
	if s.Dense() {
		w, b := 1+v>>5, int32(1)<<(v&31)
		if (*s)[w]&b != 0 {
			return false
		}
		s.room(len(*s), n, shared)
		(*s)[w] |= b
		return true
	}
	i, found := slices.BinarySearch(*s, int32(v))
	if found {
		return false
	}
	s.room(len(*s)+1, n, shared)
	*s = slices.Insert(*s, i, int32(v))
	s.settle(n)
	return true
}

// Union adds the ids peer names in [0, n), reporting whether any was new.
// peer is a set in either form as it came off a socket, so it may be
// anything; what is not a set over [0, n) in its form — a bitmap of
// another length, of fewer ids than words or with ids past n, an
// unsorted list — is taken id by id. A merge that would add nothing is
// detected without writing, so late in a phase, when most peers relay
// nothing new, a shared version stays the current one. shared is as for
// Add.
func (s *NodeSet) Union(peer []int32, n int, shared bool) bool {
	w := Words(n)
	if NodeSet(peer).Dense() {
		if len(peer) == 1+w && uint64(uint32(peer[w]))>>((n-1)&31+1) == 0 {
			if s.Dense() {
				return s.unionWords(peer[1:], n, shared)
			}
			if ones(peer[1:]) >= w {
				s.fromWords(peer[1:], n, shared)
				return true
			}
		}
		peer = NodeSet(peer).AppendTo(nil)
	}
	if !s.Dense() && subsetSorted(peer, *s) {
		return false
	}
	if s.Dense() || !ascending(peer, n) {
		added := false
		for _, v := range peer {
			if uint32(v) < uint32(n) && s.Add(int(v), n, shared && !added) {
				added = true
			}
		}
		return added
	}
	s.merge(peer, n, shared)
	return true
}

// unionWords ORs the peer words pw into the bitmap, if they hold any id
// it lacks.
func (s *NodeSet) unionWords(pw []int32, n int, shared bool) bool {
	for i, x := range pw {
		if x&^(*s)[1+i] != 0 {
			s.room(len(*s), n, shared)
			for own := (*s)[1:]; i < len(pw); i++ {
				own[i] |= pw[i]
			}
			return true
		}
	}
	return false
}

// fromWords makes the list, OR'd with the peer words pw of at least
// Words(n) ids, the set's bitmap: written behind the list, then moved
// down over it.
func (s *NodeSet) fromWords(pw []int32, n int, shared bool) {
	l := len(*s)
	s.room(l+1+len(pw), n, shared)
	t := (*s)[:l+1+len(pw)]
	b := t[l:]
	b[0] = DenseTag
	copy(b[1:], pw)
	for _, v := range t[:l] {
		b[1+v>>5] |= 1 << (v & 31)
	}
	*s = t[:copy(t, b)]
}

// merge adds the ids of peer, a list ascending within [0, n), to the
// list: the two runs merge from their ends into the room behind the list,
// and the merged run closes the gap its duplicates left.
func (s *NodeSet) merge(peer []int32, n int, shared bool) {
	l := len(*s)
	s.room(l+len(peer), n, shared)
	t := (*s)[:l+len(peer)]
	i, j, k := l-1, len(peer)-1, len(t)
	for j >= 0 {
		k--
		switch {
		case i >= 0 && t[i] > peer[j]:
			t[k] = t[i]
			i--
		case i >= 0 && t[i] == peer[j]:
			t[k] = t[i]
			i--
			j--
		default:
			t[k] = peer[j]
			j--
		}
	}
	*s = t[:i+1+copy(t[i+1:], t[k:])]
	s.settle(n)
}

// room makes the set's storage hold k ids, and one more for DenseTag if
// a list of k ids would settle, with the set's current ids at its start.
// A shared set is copied behind itself when the rest of its storage has
// the room, and into fresh storage four times the room otherwise, so that
// the versions a run of shared changes leaves behind share storage too. A
// private set grows only when it lacks the room: a list an id short four
// times over, but not past the bitmap's size, where it settles in place;
// a merge or a switch that takes a peer's words, also four times, the
// versions after it filling the rest.
func (s *NodeSet) room(k, n int, shared bool) {
	w, t := Words(n), *s
	if k >= w && !t.Dense() {
		k++
	}
	switch {
	case !shared && cap(t) >= k:
		return
	case shared && cap(t)-len(t) >= k:
		*s = append(t[len(t):], t...)
	case shared:
		*s = append(make(NodeSet, 0, 4*k), t...)
	case k <= len(t)+2:
		*s = append(make(NodeSet, 0, min(4*k, 1+w)), t...)
	default:
		*s = append(make(NodeSet, 0, 4*k), t...)
	}
}

// settle turns a list of Words(n) ids or more into the bitmap, in place.
// The list moves up one slot to make room for the tag; then word m goes
// to the slot of the list's m-th id. Words go out in ascending runs: in
// each run, the last word's ids reach past its slot, no earlier word's
// ids reach its own slot, and the run's words are written last to first,
// so no slot is written before the ids in it have been read.
func (s *NodeSet) settle(n int) {
	l, w := len(*s), Words(n)
	if l < w {
		return
	}
	t := (*s)[:1+l]
	copy(t[1:], t[:l])
	ids := t[1:]
	for j, i := 0, 0; j < w; {
		b, e := j, wordEnd(ids, i, j)
		for e <= b {
			b++
			e = wordEnd(ids, e, b)
		}
		for m, hi := b, e; m >= j; m-- {
			var x int32
			lo := hi
			for lo > i && ids[lo-1]>>5 == int32(m) {
				lo--
				x |= 1 << (ids[lo] & 31)
			}
			ids[m] = x
			hi = lo
		}
		j, i = b+1, e
	}
	t[0] = DenseTag
	*s = t[:1+w]
}

// wordEnd returns the end of the run of ids, from index i of the sorted
// list ids, that lie in word j.
func wordEnd(ids []int32, i, j int) int {
	for i < len(ids) && ids[i]>>5 == int32(j) {
		i++
	}
	return i
}

// AbsorbNew adds the ids marked in marks — a bitmap's Words(n) words,
// laid out like the set's own — to the bitmap set, leaves in marks
// exactly the ids that were new, and reports whether there were any: a
// long delivery window marked into marks is absorbed in one pass of word
// operations, and only the new ids are read back.
func (s NodeSet) AbsorbNew(marks []int32) bool {
	own := s[1:]
	var fresh int32
	for i, m := range marks {
		if m == 0 {
			continue
		}
		m &^= own[i]
		own[i] |= m
		marks[i] = m
		fresh |= m
	}
	return fresh != 0
}

// AppendTo appends the set's ids to dst in ascending order; a full bitmap
// word appends its 32 ids without a bit scan.
func (s NodeSet) AppendTo(dst []int32) []int32 {
	if !s.Dense() {
		return append(dst, s...)
	}
	for i, x := range s[1:] {
		base := int32(i << 5)
		if x == -1 {
			for v := base; v < base+32; v++ {
				dst = append(dst, v)
			}
			continue
		}
		for u := uint32(x); u != 0; u &= u - 1 {
			dst = append(dst, base+int32(bits.TrailingZeros32(u)))
		}
	}
	return dst
}

// Load replaces the set's ids with t's members, in the set's storage when
// it has the room.
func (s *NodeSet) Load(t *Set) {
	*s = (*s)[:0]
	t.ForEach(func(v int) { s.Add(v, t.n, false) })
}

// Set returns the set's members as a Set of capacity n.
func (s NodeSet) Set(n int) *Set {
	t := New(n)
	if !s.Dense() {
		for _, v := range s {
			t.Add(int(v))
		}
		return t
	}
	for i, x := range s[1:] {
		t.words[i>>1] |= uint64(uint32(x)) << (i & 1 * 32)
	}
	return t
}

// ones counts the ids of bitmap words pw.
func ones(pw []int32) int {
	c := 0
	for _, x := range pw {
		c += bits.OnesCount32(uint32(x))
	}
	return c
}

// ascending reports whether ids is strictly ascending within [0, n): a
// list peer that can be merged as it is.
func ascending(ids []int32, n int) bool {
	prev := int32(-1)
	for _, v := range ids {
		if v <= prev || int(v) >= n {
			return false
		}
		prev = v
	}
	return true
}

// subsetSorted reports whether every element of a is in b, a list; when
// they are the same size a is a subset exactly when it is equal (the
// converged case, one memory compare). A true answer also means a is a
// list, strictly ascending within b's range.
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
