package bitset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

func TestNewEmpty(t *testing.T) {
	s := New(100)
	if s.Len() != 100 {
		t.Fatalf("Len() = %d, want 100", s.Len())
	}
	if s.Count() != 0 {
		t.Fatalf("Count() = %d, want 0", s.Count())
	}
}

func TestAddRemoveContains(t *testing.T) {
	s := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if s.Contains(i) {
			t.Fatalf("Contains(%d) before Add", i)
		}
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("!Contains(%d) after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count() = %d, want 8", s.Count())
	}
	s.Remove(64)
	if s.Contains(64) {
		t.Fatal("Contains(64) after Remove")
	}
	if s.Count() != 7 {
		t.Fatalf("Count() = %d, want 7", s.Count())
	}
}

func TestAddIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("Count() = %d, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(10)
	for _, fn := range []func(){
		func() { s.Add(10) },
		func() { s.Add(-1) },
		func() { s.Contains(10) },
		func() { s.Remove(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestMismatchedCapacityPanics(t *testing.T) {
	a, b := New(10), New(20)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched subset check")
		}
	}()
	a.SubsetOf(b)
}

func TestEqualSubset(t *testing.T) {
	a, b := New(70), New(70)
	a.Add(69)
	b.Add(69)
	if !a.SubsetOf(b) || !b.SubsetOf(a) {
		t.Fatal("equal sets not subsets of each other")
	}
	b.Add(1)
	if !a.SubsetOf(b) {
		t.Fatal("a not subset of superset")
	}
	if b.SubsetOf(a) {
		t.Fatal("superset reported as subset")
	}
}

func TestCloneIndependence(t *testing.T) {
	a := New(64)
	a.Add(5)
	c := a.Clone()
	c.Add(6)
	if a.Contains(6) {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestFillClearFull(t *testing.T) {
	s := New(67)
	for i := 0; i < 66; i++ {
		s.Add(i)
	}
	if s.Full() {
		t.Fatal("set missing bit 66 reported Full")
	}
	s.Add(66)
	if !s.Full() {
		t.Fatal("filled set not Full")
	}
	if s.Count() != 67 {
		t.Fatalf("Count() = %d, want 67", s.Count())
	}
	s.Clear()
	if s.Count() != 0 {
		t.Fatalf("cleared set has Count() = %d", s.Count())
	}
}

// TestAppendTo: a NodeSet loaded from a Set appends exactly what the
// Set's ForEach visits, in order, after what dst held — on an empty set,
// full words, a partial last word, capacities that are not a multiple of
// 64, and in both forms.
func TestAppendTo(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 11))
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130, 200} {
		for _, fill := range []string{"empty", "full", "random", "full-words"} {
			s := New(n)
			for i := 0; i < n; i++ {
				switch fill {
				case "full":
					s.Add(i)
				case "random":
					if r.IntN(3) == 0 {
						s.Add(i)
					}
				case "full-words":
					if i/64 != 1 || i == 100 {
						s.Add(i)
					}
				}
			}
			want := []int32{-1}
			s.ForEach(func(i int) { want = append(want, int32(i)) })
			var ns NodeSet
			ns.Load(s)
			got := ns.AppendTo([]int32{-1})
			if !slices.Equal(got, want) {
				t.Fatalf("n=%d %s: AppendTo = %v, want %v", n, fill, got, want)
			}
		}
	}
}

func TestForEachOrder(t *testing.T) {
	s := New(300)
	want := []int{2, 64, 65, 128, 299}
	for _, i := range want {
		s.Add(i)
	}
	var got []int
	s.ForEach(func(i int) { got = append(got, i) })
	if len(got) != len(want) {
		t.Fatalf("ForEach visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ForEach visited %v, want %v", got, want)
		}
	}
}

func TestString(t *testing.T) {
	s := New(10)
	s.Add(1)
	s.Add(5)
	if got := s.String(); got != "{1, 5}" {
		t.Fatalf("String() = %q, want {1, 5}", got)
	}
}

func TestNextClear(t *testing.T) {
	const n = 130 // spans three words with a ragged tail
	s := New(n)
	if got := s.NextClear(0); got != 0 {
		t.Fatalf("empty NextClear(0) = %d", got)
	}
	for i := 0; i < n; i++ {
		if i != 64 && i != 129 {
			s.Add(i)
		}
	}
	if got := s.NextClear(0); got != 64 {
		t.Fatalf("NextClear(0) = %d, want 64", got)
	}
	if got := s.NextClear(64); got != 64 {
		t.Fatalf("NextClear(64) = %d, want 64", got)
	}
	if got := s.NextClear(65); got != 129 {
		t.Fatalf("NextClear(65) = %d, want 129", got)
	}
	s.Add(64)
	s.Add(129)
	if got := s.NextClear(0); got != n {
		t.Fatalf("full NextClear(0) = %d, want Len %d", got, n)
	}
	if got := s.NextClear(-5); got != n {
		t.Fatalf("NextClear(-5) = %d, want %d", got, n)
	}
	if got := s.NextClear(n + 7); got != n {
		t.Fatalf("NextClear past end = %d, want %d", got, n)
	}
	// Word-aligned capacity: the tail guard must not report ghost bits.
	w := New(128)
	for i := 0; i < 128; i++ {
		w.Add(i)
	}
	if got := w.NextClear(0); got != 128 {
		t.Fatalf("aligned full NextClear = %d, want 128", got)
	}
}
