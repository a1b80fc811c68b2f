// Package bitset provides the simulator's node sets: Set, a dense,
// fixed-capacity bitset (node i is bit i) for rumor sets at the engine's
// boundary, informed tallies and survivor sets; and NodeSet, the list
// that turns into a bitmap once that is no larger, for the per-node rumor
// and heard sets a run keeps for every node.
//
// All mutating methods of Set have pointer receivers; the zero value is an
// empty set of capacity zero. Sets used together must share a capacity.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bitset.
type Set struct {
	n     int
	words []uint64
}

// New returns an empty set with capacity for bits [0, n).
func New(n int) *Set {
	if n < 0 {
		panic(fmt.Sprintf("bitset: negative capacity %d", n))
	}
	return &Set{n: n, words: make([]uint64, (n+wordBits-1)/wordBits)}
}

// Len returns the capacity of the set (number of addressable bits).
func (s *Set) Len() int { return s.n }

// check panics when i is out of range; bitset misuse in the simulator is a
// programming error, not a recoverable condition.
func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic(fmt.Sprintf("bitset: index %d out of range [0,%d)", i, s.n))
	}
}

// Add sets bit i.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Remove clears bit i.
func (s *Set) Remove(i int) {
	s.check(i)
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every bit in [0, Len) is set.
func (s *Set) Full() bool { return s.Count() == s.n }

// NextClear returns the smallest index >= from whose bit is clear, or
// Len() when every bit of [from, Len) is set. It scans whole words, so
// an all-set prefix costs 1/64th of a per-bit probe loop — the informed
// tally used by completion checks over large node sets.
func (s *Set) NextClear(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= s.n {
		return s.n
	}
	wi := from / wordBits
	w := ^s.words[wi] & (^uint64(0) << (uint(from) % wordBits))
	for {
		if w != 0 {
			i := wi*wordBits + bits.TrailingZeros64(w)
			if i >= s.n {
				return s.n
			}
			return i
		}
		wi++
		if wi >= len(s.words) {
			return s.n
		}
		w = ^s.words[wi]
	}
}

// SubsetOf reports whether every bit of s is also in t.
func (s *Set) SubsetOf(t *Set) bool {
	if s.n != t.n {
		panic(fmt.Sprintf("bitset: subset of mismatched capacities %d and %d", s.n, t.n))
	}
	for i, w := range s.words {
		if w&^t.words[i] != 0 {
			return false
		}
	}
	return true
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	c := &Set{n: s.n, words: make([]uint64, len(s.words))}
	copy(c.words, s.words)
	return c
}

// Clear removes all bits.
func (s *Set) Clear() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ForEach calls fn for every set bit in increasing order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as {1, 5, 9} for debugging.
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteString(", ")
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
