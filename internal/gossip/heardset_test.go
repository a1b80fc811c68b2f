package gossip

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// FuzzHeardSet runs a drawn sequence of Add, Union, Snapshot and reset
// against a map model. After every step Contains must agree with the
// model, the ids must be sorted without duplicates, and every snapshot
// taken since the last reset must still hold the value it had when it
// was taken: the log never writes a version that has been handed out.
func FuzzHeardSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 2, 2, 0}, uint64(1))
	f.Add([]byte{2, 0, 2, 0, 2, 1, 2, 1, 1, 2, 3, 2, 0, 0, 0}, uint64(2))
	f.Add([]byte{1, 1, 1, 1, 2, 1, 1, 0, 0, 2, 0, 1}, uint64(3))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		const span = 80
		rng := rand.New(rand.NewPCG(seed, uint64(len(ops))))
		var h heardSet
		model := map[int32]bool{}
		type snap struct {
			box  any
			want []int32
		}
		var snaps []snap
		for step, op := range ops {
			switch op % 4 {
			case 0:
				v := rng.IntN(span)
				h.Add(v)
				model[int32(v)] = true
			case 1:
				var peer []int32
				for v := int32(0); v < span; v++ {
					if rng.IntN(4) == 0 {
						peer = append(peer, v)
						model[v] = true
					}
				}
				h.Union(peer)
			case 2:
				box := h.Snapshot()
				ids := box.([]int32)
				if cap(ids) != len(ids) {
					t.Fatalf("step %d: snapshot has capacity %d beyond its %d ids", step, cap(ids), len(ids))
				}
				snaps = append(snaps, snap{box, slices.Clone(ids)})
			case 3:
				self := rng.IntN(span)
				h.reset(self)
				clear(model)
				model[int32(self)] = true
				snaps = snaps[:0]
			}
			if len(h.ids) != len(model) {
				t.Fatalf("step %d: %d ids, model has %d", step, len(h.ids), len(model))
			}
			for i := 1; i < len(h.ids); i++ {
				if h.ids[i-1] >= h.ids[i] {
					t.Fatalf("step %d: ids not strictly ascending: %v", step, h.ids)
				}
			}
			for v := int32(0); v < span; v++ {
				if h.Contains(int(v)) != model[v] {
					t.Fatalf("step %d: Contains(%d) = %v, model %v", step, v, !model[v], model[v])
				}
			}
			for k, s := range snaps {
				if got := s.box.([]int32); !slices.Equal(got, s.want) {
					t.Fatalf("step %d: snapshot %d changed after capture: %v, was %v", step, k, got, s.want)
				}
			}
		}
	})
}
