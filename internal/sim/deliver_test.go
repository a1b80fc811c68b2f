package sim

import (
	"math/rand/v2"
	"slices"
	"testing"

	"gossip/internal/bitset"
	"gossip/internal/graph"
)

// deliverWindowRef is the per-rumor delivery loop as deliverShard ran it
// for every receiver before the full-receiver skip and the word path: the
// reference both must reproduce, journal order included.
func deliverWindowRef(nv *NodeView, self int32, news []int32, dist bool, gains []DistGain) (int, []DistGain) {
	gained := 0
	for _, r := range news {
		if nv.gain(int(r)) {
			gained++
			if dist {
				gains = append(gains, DistGain{Node: self, Rumor: r})
			}
		}
	}
	return gained, gains
}

// newsProto records what each delivery reported gaining.
type newsProto struct{ gained []int }

func (p *newsProto) Activate(int) (int, bool) { return 0, false }
func (p *newsProto) OnDeliver(d Delivery)     { p.gained = append(p.gained, d.NewRumors) }

// FuzzDeliverWindow drives deliverShard with one delivery to a receiver
// in a drawn state, on an n that is not a multiple of 64: a list (empty,
// partial, or one id short of a bitmap) or a bitmap (just turned, partial
// or full), reached by gaining the ids as a run would. A window of
// distinct ids of drawn length arrives, serially or at a distributed
// shard worker, so a bitmap receiver takes both the word path and the
// per-rumor loop, and a list receiver the loop, turning into a bitmap
// partway when the window is long. Journal (order included), membership,
// the reported gain and the DistGain tail must match the per-rumor
// reference, and the word-path scratch must be zero afterwards.
func FuzzDeliverWindow(f *testing.F) {
	f.Add(uint16(0), uint8(0), false, uint16(40), uint64(1), false)
	f.Add(uint16(100), uint8(1), false, uint16(150), uint64(2), true)
	f.Add(uint16(300), uint8(2), false, uint16(300), uint64(3), false)
	f.Add(uint16(7), uint8(1), true, uint16(60), uint64(4), true)
	f.Add(uint16(1000), uint8(1), false, uint16(20), uint64(5), false)
	f.Fuzz(func(t *testing.T, nRaw uint16, pre uint8, sparse bool, kRaw uint16, seed uint64, dist bool) {
		n := 65 + int(nRaw)%1200
		if n%64 == 0 {
			n++
		}
		g := graph.New(n)
		for u := 0; u+1 < n; u++ {
			g.MustAddEdge(u, u+1, 1)
		}
		csr := g.CSR()
		proto := &newsProto{}
		e, err := newEngine(Config{CSR: csr, Mode: AllToAll, Seed: 1}, func(nv *NodeView) Protocol {
			if nv.ID() == 0 {
				return proto
			}
			return &newsProto{}
		})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewPCG(seed, uint64(n)))

		// The receiver (node 0) and an independent reference copy of it.
		nv, ref := e.views[0], &NodeView{id: 0, n: n}
		nv.rum, nv.journal = nil, nil
		w, k := bitset.Words(n), 0
		switch {
		case sparse && pre%3 == 1:
			k = rng.IntN(w)
		case sparse && pre%3 == 2:
			k = w - 1
		case sparse:
		case pre%3 == 0:
			k = w
		case pre%3 == 1:
			k = w + rng.IntN(n-w+1)
		default:
			k = n
		}
		for _, r := range rng.Perm(n)[:k] {
			nv.gain(r)
			ref.gain(r)
		}
		if nv.rum.Dense() == sparse {
			t.Fatalf("%d of %d ids held: bitmap = %v", k, n, nv.rum.Dense())
		}
		e.jlen[0] = int32(len(nv.journal))

		perm := rng.Perm(n)
		window := make([]int32, int(kRaw)%(n+1))
		for i := range window {
			window[i] = int32(perm[i])
		}

		e.due = []exch{{deliver: 1, u: 0, v: 1, uIdx: 0, vIdx: int32(csr.PeerIndex(0, 0)), latency: 1}}
		e.news = [][]int32{window, nil}
		s := &e.shards[0]
		s.recs = append(s.recs[:0], 0)
		if dist {
			e.dist = &distRun{e: e}
			e.dist.frame = &e.dist.frames[0]
		}
		e.deliverShard(s, 1)

		wantGained, wantGains := deliverWindowRef(ref, 0, window, dist, nil)
		if !slices.Equal(nv.journal, ref.journal) {
			t.Fatalf("journal %v, reference %v", nv.journal, ref.journal)
		}
		if int(e.jlen[0]) != len(nv.journal) {
			t.Fatalf("flat journal length %d, journal holds %d", e.jlen[0], len(nv.journal))
		}
		for r := 0; r < n; r++ {
			if nv.rum.Contains(r) != ref.rum.Contains(r) {
				t.Fatalf("membership of %d differs from the reference", r)
			}
		}
		if !slices.Equal(proto.gained, []int{wantGained}) {
			t.Fatalf("NewRumors %v, reference %d", proto.gained, wantGained)
		}
		if dist && !slices.Equal(e.dist.frame.Gains, wantGains) {
			t.Fatalf("DistGain tail %v, reference %v", e.dist.frame.Gains, wantGains)
		}
		for i, w := range s.mark {
			if w != 0 {
				t.Fatalf("scratch word %d left %#x", i, w)
			}
		}
	})
}
