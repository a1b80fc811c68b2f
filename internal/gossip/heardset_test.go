package gossip

import (
	"math/bits"
	"math/rand/v2"
	"slices"
	"testing"

	"gossip/internal/bitset"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// heardCount counts h's ids in either form.
func heardCount(h *heardSet) int {
	if !h.ids.Dense() {
		return len(h.ids)
	}
	c := 0
	for _, w := range h.ids[1:] {
		c += bits.OnesCount32(uint32(w))
	}
	return c
}

// peerSnapshot encodes ids (sorted, in [0, n)) the way a peer's heard set
// hands them out: a bitmap once the list holds ⌈n/32⌉ ids.
func peerSnapshot(ids []int32, n int) []int32 {
	w := bitset.Words(n)
	if len(ids) < w {
		return ids
	}
	out := make([]int32, 1+w)
	out[0] = bitset.DenseTag
	for _, v := range ids {
		out[1+v/32] |= 1 << (v % 32)
	}
	return out
}

// rawPeer draws metadata as a socket might deliver it: a dense tag with
// too many or too few words, ids out of [0, n) and negative, unsorted
// runs and duplicates, and words with bit 31 set.
func rawPeer(rng *rand.Rand, n int) []int32 {
	out := make([]int32, rng.IntN(2*bitset.Words(n)+4))
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
		out[0] = bitset.DenseTag
	}
	return out
}

// FuzzHeardSet runs a drawn sequence of Add, Union (with peers in either
// form), Snapshot, reset, clone and hostile merges against a map model,
// over ids [0, n) with n drawn in 1…200. After every step Contains must
// agree with the model; the set must be dense exactly when it holds at
// least ⌈n/32⌉ ids, sorted without duplicates while sparse; every
// snapshot taken since the last reset must still hold the value it had
// when it was taken, across a switch to the bitmap too; and cloneFrom
// must give an equal set. A merge of raw ints (rawPeer), run on a clone
// so the model holds, must not panic, nor may the clone's later use.
func FuzzHeardSet(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 3, 1, 2, 2, 0}, uint64(1))
	f.Add([]byte{2, 0, 2, 0, 2, 1, 2, 1, 1, 2, 3, 2, 0, 0, 0}, uint64(2))
	f.Add([]byte{1, 1, 1, 1, 2, 1, 1, 0, 0, 2, 0, 1}, uint64(3))
	f.Add([]byte{2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 0, 2, 1, 2, 4, 0, 2, 5, 5, 1, 3, 2, 1, 5}, uint64(4))
	f.Add([]byte{5, 5, 5, 5, 1, 2, 5, 5, 5, 5, 4, 2, 1, 5, 5}, uint64(5))
	f.Fuzz(func(t *testing.T, ops []byte, seed uint64) {
		rng := rand.New(rand.NewPCG(seed, uint64(len(ops))))
		n := 1 + rng.IntN(200)
		var h heardSet
		model := map[int32]bool{}
		restart := func() {
			self := rng.IntN(n)
			h.reset(self, n)
			clear(model)
			model[int32(self)] = true
		}
		restart()
		type snap struct {
			ids  []int32
			want []int32
		}
		var snaps []snap
		for step, op := range ops {
			switch op % 6 {
			case 0:
				v := rng.IntN(n)
				h.Add(v, n)
				model[int32(v)] = true
			case 1:
				var peer []int32
				p := 1 + rng.IntN(8)
				for v := int32(0); v < int32(n); v++ {
					if rng.IntN(p) == 0 {
						peer = append(peer, v)
						model[v] = true
					}
				}
				h.Union(peerSnapshot(peer, n), n)
			case 2:
				ids := h.Snapshot()
				if cap(ids) != len(ids) {
					t.Fatalf("step %d: snapshot has capacity %d beyond its %d ids", step, cap(ids), len(ids))
				}
				snaps = append(snaps, snap{ids, slices.Clone(ids)})
			case 3:
				if rng.IntN(2) == 0 {
					n = 1 + rng.IntN(200)
				}
				restart()
				snaps = snaps[:0]
			case 4:
				var c heardSet
				c.cloneFrom(&h)
				h = c
			case 5:
				var c heardSet
				c.cloneFrom(&h)
				c.Union(rawPeer(rng, n), n)
				c.Union(c.Snapshot(), n)
				c.Add(rng.IntN(n), n)
				c.Union(rawPeer(rng, n), n)
				for v := -3; v < n+40; v++ {
					c.Contains(v)
				}
			}
			w := bitset.Words(n)
			if h.ids.Dense() != (len(model) >= w) {
				t.Fatalf("step %d: dense = %v with %d ids and %d bitmap words", step, h.ids.Dense(), len(model), w)
			}
			if got := heardCount(&h); got != len(model) {
				t.Fatalf("step %d: %d ids, model has %d", step, got, len(model))
			}
			if h.ids.Dense() {
				if len(h.ids) != 1+w || h.ids[0] != bitset.DenseTag {
					t.Fatalf("step %d: dense version %v is not the tag and %d words", step, h.ids, w)
				}
			} else {
				for i := 1; i < len(h.ids); i++ {
					if h.ids[i-1] >= h.ids[i] {
						t.Fatalf("step %d: ids not strictly ascending: %v", step, h.ids)
					}
				}
			}
			var c heardSet
			c.cloneFrom(&h)
			if !slices.Equal(c.Snapshot(), h.ids) {
				t.Fatalf("step %d: clone %v, set %v", step, c.ids, h.ids)
			}
			for v := -2; v < n+34; v++ {
				if h.Contains(v) != model[int32(v)] {
					t.Fatalf("step %d: Contains(%d) = %v, model %v", step, v, !model[int32(v)], model[int32(v)])
				}
				if c.Contains(v) != model[int32(v)] {
					t.Fatalf("step %d: clone's Contains(%d) = %v, model %v", step, v, !model[int32(v)], model[int32(v)])
				}
			}
			for k, s := range snaps {
				if !slices.Equal(s.ids, s.want) {
					t.Fatalf("step %d: snapshot %d changed after capture: %v, was %v", step, k, s.ids, s.want)
				}
			}
		}
	})
}

// TestHeardSetForms pins the memory rule on the two graphs it is for.
// After one ℓ = 1 gather on sim-latency's ring (64 × 8, latency 16) every
// heard set is a bitmap: each node hears its 64-node latency-1 clique, far
// more than the 16 words a bitmap of 512 ids takes. After a DTG phase on
// the 10⁴-node slow-bridge dumbbell none is: a ring node hears a few ids,
// against the 313 words the bitmap would take.
func TestHeardSetForms(t *testing.T) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DriverOptions{KnownLatencies: true, Seed: 1, ExecOptions: ExecOptions{CSR: ring}}
	p := newPipeline(opts, new(sim.Pipeline))
	var out BroadcastResult
	if err := p.gatherNeighborhood(1, spanner.DefaultK(ring.N()), opts, &out); err != nil {
		t.Fatal(err)
	}
	for u := range p.dtgs {
		if h := &p.dtgs[u].heard; !h.ids.Dense() {
			t.Fatalf("ring node %d: heard set of %d ids is sparse after the gather", u, heardCount(h))
		}
	}

	bridge, err := graphgen.SlowBridgeRingCSR(10_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	slab := make([]DTG, bridge.N())
	cfg, factory, stop, err := dtgPhase(DriverOptions{Seed: 1, ExecOptions: ExecOptions{CSR: bridge}}, slab, false)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(cfg, factory, stop)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatal("slow-bridge DTG did not complete")
	}
	most := 0
	for u := range slab {
		h := &slab[u].heard
		if h.ids.Dense() {
			t.Fatalf("slow-bridge node %d: heard set of %d ids is a bitmap", u, heardCount(h))
		}
		most = max(most, len(h.ids))
	}
	t.Logf("largest slow-bridge heard set: %d ids (bitmap: %d words)", most, bitset.Words(bridge.N()))
}

// formCounter runs pipeline phases on ph and counts, over every phase, the
// nodes whose rumor set ends it as a bitmap.
type formCounter struct {
	ph          *sim.Pipeline
	dense, runs int
}

func (c *formCounter) Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error) {
	res, err := c.ph.Run(cfg, factory, stop)
	if err == nil {
		for _, nv := range res.World.Views {
			if nv.Rumors().Dense() {
				c.dense++
			}
		}
		c.runs += len(res.World.Views)
	}
	return res, err
}

// TestRumorSetForms pins the rumor-set traffic of the memory-neutral rule
// (a bitmap from n/32 ids on) on two benchmark workloads. In one auto op
// on sim-latency's ring (64 × 8, latency 16; 16 bitmap words) the
// push-pull arm's sets stay lists of one rumor, while every set of the
// spanner arm ends each of its 11 phases as a bitmap (5 632 node-phases;
// a set turns once it holds 16 ids). A push-pull run on sim-sparse's 2¹⁵-node ring+matching expander leaves
// every set a list.
func TestRumorSetForms(t *testing.T) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := &formCounter{ph: new(sim.Pipeline)}
	res, err := unified(DriverOptions{KnownLatencies: true, Seed: 1, ExecOptions: ExecOptions{CSR: ring}}, c)
	if err != nil {
		t.Fatal(err)
	}
	for u, nv := range res.PushPull.World.Views {
		if nv.Rumors().Dense() || nv.RumorCount() != 1 {
			t.Fatalf("push-pull arm, node %d: %d rumors, bitmap = %v", u, nv.RumorCount(), nv.Rumors().Dense())
		}
	}
	if c.dense != 5632 || c.runs != 5632 {
		t.Fatalf("spanner arm: %d of %d node-phases end as bitmaps, want all 5632", c.dense, c.runs)
	}

	sparse, err := graphgen.RingMatchingExpanderCSR(1<<15, 1, graphgen.NewRand(1))
	if err != nil {
		t.Fatal(err)
	}
	pp, err := Dispatch("push-pull", nil, DriverOptions{Source: 0, Seed: 1, MaxRounds: 4096, ExecOptions: ExecOptions{CSR: sparse}})
	if err != nil {
		t.Fatal(err)
	}
	for u, nv := range pp.Sim.World.Views {
		if nv.Rumors().Dense() {
			t.Fatalf("sim-sparse node %d: %d rumors in a bitmap", u, nv.RumorCount())
		}
	}
}

// BenchmarkGatherNeighborhood is the layer under sim-latency's spanner
// arm: one ℓ = 1 neighborhood gather (⌈log₂ n⌉ = 9 DTG repetitions) on the
// 64 × 8 ring with latency-16 slow links, on a fresh pipeline per op as
// an auto run pays it.
func BenchmarkGatherNeighborhood(b *testing.B) {
	ring, err := graphgen.BuildCSR(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	reps := spanner.DefaultK(ring.N())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opts := DriverOptions{KnownLatencies: true, Seed: uint64(i), ExecOptions: ExecOptions{CSR: ring}}
		var out BroadcastResult
		if err := newPipeline(opts, new(sim.Pipeline)).gatherNeighborhood(1, reps, opts, &out); err != nil {
			b.Fatal(err)
		}
	}
}
