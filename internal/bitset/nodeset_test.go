package bitset

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// encode writes sorted ids in [0, n) the way a NodeSet holds them: a
// bitmap once there are Words(n) of them.
func encode(ids []int32, n int) []int32 {
	w := Words(n)
	if len(ids) < w {
		return ids
	}
	out := make([]int32, 1+w)
	out[0] = DenseTag
	for _, v := range ids {
		out[1+v/32] |= 1 << (v % 32)
	}
	return out
}

// hostile draws a peer as a socket might deliver it: a tagged bitmap of
// any length, ids outside [0, n) and negative, unsorted runs and
// duplicates, words with bit 31 set.
func hostile(rng *rand.Rand, n int) []int32 {
	out := make([]int32, rng.IntN(2*Words(n)+4))
	for i := range out {
		switch rng.IntN(4) {
		case 0:
			out[i] = int32(rng.Uint32())
		case 1:
			out[i] = int32(rng.IntN(n+40) - 3)
		default:
			out[i] = int32(rng.IntN(n))
		}
	}
	if len(out) > 0 && rng.IntN(2) == 0 {
		out[0] = DenseTag
	}
	return out
}

// named adds to model the ids a peer in either form names within [0, n):
// what Union must add.
func named(model map[int32]bool, peer []int32, n int) {
	if !NodeSet(peer).Dense() {
		for _, v := range peer {
			if v >= 0 && int(v) < n {
				model[v] = true
			}
		}
		return
	}
	for i, x := range peer[1:min(len(peer), 1+Words(n))] {
		for b := 0; b < 32; b++ {
			if v := i*32 + b; v < n && uint32(x)>>b&1 != 0 {
				model[int32(v)] = true
			}
		}
	}
}

// FuzzNodeSet runs a drawn sequence of Add, Union (peers in either form,
// well-formed or hostile), AbsorbNew and hand-outs against a map model,
// over ids [0, n) with n drawn in 1…200. After every step Contains and
// AppendTo must agree with the model; the set must be a bitmap exactly
// when it holds at least Words(n) ids, a strictly ascending list
// otherwise, with no bit set at or beyond n; Set and Load must round-trip
// it; and every version handed out (changes after it are made shared)
// must still hold what it held, the switch to the bitmap included.
func FuzzNodeSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 2, 2, 0}, uint64(1))
	f.Add([]byte{1, 1, 1, 1, 4, 1, 1, 0, 0, 4, 0, 1}, uint64(2))
	f.Add([]byte{3, 3, 3, 3, 2, 3, 3, 5, 5, 3, 2, 1, 5}, uint64(3))
	f.Add([]byte{0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4, 0, 4}, uint64(4))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, uint64(len(ops))))
		n := 1 + rng.IntN(200)
		w := Words(n)
		var s NodeSet
		model := map[int32]bool{}
		shared := false
		type handout struct{ ids, want []int32 }
		var outs []handout
		for step, op := range ops {
			switch op % 6 {
			case 0:
				v := rng.IntN(n)
				if got := s.Add(v, n, shared); got == model[int32(v)] {
					t.Fatalf("step %d: Add(%d) = %v with the id already held: %v", step, v, got, model[int32(v)])
				}
				if !model[int32(v)] {
					model[int32(v)] = true
					shared = false
				}
			case 1, 2:
				var peer []int32
				p := 1 + rng.IntN(8)
				for v := int32(0); v < int32(n); v++ {
					if rng.IntN(p) == 0 {
						peer = append(peer, v)
					}
				}
				if op%6 == 1 {
					peer = encode(peer, n)
				}
				before := len(model)
				named(model, peer, n)
				if got := s.Union(peer, n, shared); got != (len(model) > before) {
					t.Fatalf("step %d: Union = %v, model grew %d → %d", step, got, before, len(model))
				}
				if len(model) > before {
					shared = false
				}
			case 3:
				peer := hostile(rng, n)
				before := len(model)
				named(model, peer, n)
				if got := s.Union(peer, n, shared); got != (len(model) > before) {
					t.Fatalf("step %d: hostile Union = %v, model grew %d → %d", step, got, before, len(model))
				}
				if len(model) > before {
					shared = false
				}
			case 4:
				outs = append(outs, handout{s[:len(s):len(s)], slices.Clone(s)})
				shared = true
			case 5:
				if !s.Dense() || shared {
					continue
				}
				marks := make([]int32, w)
				var window []int32
				for v := 0; v < n; v++ {
					if rng.IntN(3) == 0 {
						window = append(window, int32(v))
						marks[v>>5] |= 1 << (v & 31)
					}
				}
				fresh, before := make([]int32, w), len(model)
				for _, v := range window {
					if !model[v] {
						fresh[v>>5] |= 1 << (v & 31)
						model[v] = true
					}
				}
				if got := s.AbsorbNew(marks); got != (len(model) > before) {
					t.Fatalf("step %d: AbsorbNew = %v, %d new ids", step, got, len(model)-before)
				}
				if !slices.Equal(marks, fresh) {
					t.Fatalf("step %d: marks left %v, new ids %v", step, marks, fresh)
				}
			}

			if s.Dense() != (len(model) >= w) {
				t.Fatalf("step %d: dense = %v with %d ids and %d bitmap words", step, s.Dense(), len(model), w)
			}
			if s.Dense() {
				if len(s) != 1+w || uint32(s[w])>>((n-1)&31)>>1 != 0 {
					t.Fatalf("step %d: bitmap %v is not the tag and %d words below %d", step, s, w, n)
				}
			} else if !ascending(s, n) {
				t.Fatalf("step %d: list %v not strictly ascending within [0,%d)", step, s, n)
			}
			for v := -3; v < n+40; v++ {
				if s.Contains(v) != model[int32(v)] {
					t.Fatalf("step %d: Contains(%d) = %v, model %v", step, v, !model[int32(v)], model[int32(v)])
				}
			}
			var want []int32
			for v := range model {
				want = append(want, v)
			}
			slices.Sort(want)
			if got := s.AppendTo(nil); !slices.Equal(got, want) {
				t.Fatalf("step %d: AppendTo %v, model %v", step, got, want)
			}
			var back NodeSet
			back.Load(s.Set(n))
			if !slices.Equal(back, s) {
				t.Fatalf("step %d: Load(Set) %v, set %v", step, back, s)
			}
			for k, o := range outs {
				if !slices.Equal(o.ids, o.want) {
					t.Fatalf("step %d: version %d changed after it was handed out: %v, was %v", step, k, o.ids, o.want)
				}
			}
		}
	})
}

// TestSettleInPlace switches lists of every shape at the bitmap's length
// — ids packed low, packed high, alternating runs — and checks the bitmap
// is written into the list's own storage.
func TestSettleInPlace(t *testing.T) {
	const n = 512
	w := Words(n)
	rng := rand.New(rand.NewPCG(1, 2))
	lists := [][]int{rng.Perm(n)[:w]}
	low, high, runs := make([]int, w), make([]int, w), make([]int, 0, w)
	for i := range w {
		low[i], high[i] = i, n-w+i
	}
	for v := 0; len(runs) < w; v += 40 {
		for b := v; b < v+5 && len(runs) < w; b++ {
			runs = append(runs, b)
		}
	}
	lists = append(lists, low, high, runs)
	for _, ids := range lists {
		s := make(NodeSet, 0, 1+w)
		model := map[int32]bool{}
		for _, v := range ids {
			s.Add(v, n, false)
			model[int32(v)] = true
		}
		if !s.Dense() || cap(s) != 1+w {
			t.Fatalf("%v: dense %v, capacity %d, want a bitmap in the list's %d slots", ids, s.Dense(), cap(s), 1+w)
		}
		for v := range n {
			if s.Contains(v) != model[int32(v)] {
				t.Fatalf("%v: Contains(%d) = %v", ids, v, !model[int32(v)])
			}
		}
	}
}
