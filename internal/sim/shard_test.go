package sim

import (
	"reflect"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
)

// shardFingerprint captures everything externally observable about a run:
// the summary counters, per-node informed times and per-node journals.
type shardFingerprint struct {
	rounds       int
	completed    bool
	exchanges    int64
	messages     int64
	dropped      int64
	rumorPayload int64
	informedAt   []int
	journals     [][]int32
}

func fingerprint(res Result) shardFingerprint {
	fp := shardFingerprint{
		rounds:       res.Rounds,
		completed:    res.Completed,
		exchanges:    res.Exchanges,
		messages:     res.Messages,
		dropped:      res.Dropped,
		rumorPayload: res.RumorPayload,
		informedAt:   res.InformedAt,
	}
	for _, nv := range res.World.Views {
		fp.journals = append(fp.journals, append([]int32(nil), nv.journal...))
	}
	return fp
}

// denseTestGraph is a small multi-latency graph exercising concurrent
// exchanges across shard boundaries.
func denseTestGraph(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if (u+v)%3 != 0 || v == u+1 {
				g.MustAddEdge(u, v, 1+(u*7+v)%5)
			}
		}
	}
	return g
}

// TestWorkerCountDeterminism is the shard-determinism gate: the same
// configuration must produce bit-identical results (counters, informed
// times, every node's gain journal) at every worker count, including
// under latency jitter, fail-stop crashes and bounded in-degree.
func TestWorkerCountDeterminism(t *testing.T) {
	const n = 37 // deliberately not a multiple of typical worker counts
	g := denseTestGraph(n)
	twoCrashes := adversity.MustParseSpec("crash=4:5;crash=9:11")
	cfgs := map[string]Config{
		"plain":    {CSR: g.CSR(), Seed: 42, Mode: OneToAll, Source: 0, MaxRounds: 1 << 12},
		"alltoall": {CSR: g.CSR(), Seed: 7, Mode: AllToAll, MaxRounds: 1 << 12},
		"jitter":   {CSR: g.CSR(), Seed: 9, Mode: OneToAll, Source: 3, MaxRounds: 1 << 12, LatencyJitter: 0.4},
		"crashes":  {CSR: g.CSR(), Seed: 11, Mode: OneToAll, Source: 1, MaxRounds: 1 << 12, Adversity: twoCrashes},
		"bounded":  {CSR: g.CSR(), Seed: 13, Mode: AllToAll, MaxRounds: 1 << 12, MaxInPerRound: 2},
	}
	for name, base := range cfgs {
		t.Run(name, func(t *testing.T) {
			stop := StopAllInformed(base.Source)
			if base.Mode == AllToAll {
				stop = StopAllHaveAll()
			}
			if base.Adversity != nil {
				stop = StopAllSurvivorsInformed(base.Source, base.Adversity)
			}
			var want shardFingerprint
			for i, workers := range []int{1, 2, 3, 8, 64} {
				cfg := base
				cfg.Workers = workers
				res, err := Run(cfg, func(nv *NodeView) Protocol { return &randomProto{nv: nv} }, stop)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				got := fingerprint(res)
				if i == 0 {
					want = got
					continue
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", workers, got, want)
				}
			}
		})
	}
}

// TestCSRGraphEquivalence: two independent conversions of one graph are
// interchangeable, serial or sharded — Graph.CSR() preserves adjacency
// order, and protocols only see adjacency indices. (That handing a
// driver the graph equals handing it the converted CSR is
// gossip.TestDispatchGraphEqualsCSR.)
func TestCSRGraphEquivalence(t *testing.T) {
	g := denseTestGraph(23)
	run := func(cfg Config) shardFingerprint {
		res, err := Run(cfg, func(nv *NodeView) Protocol { return &randomProto{nv: nv} }, StopAllInformed(0))
		if err != nil {
			t.Fatal(err)
		}
		return fingerprint(res)
	}
	serial := run(Config{CSR: g.CSR(), Seed: 5, Mode: OneToAll, Source: 0, MaxRounds: 1 << 12})
	sharded := run(Config{CSR: g.CSR(), Seed: 5, Mode: OneToAll, Source: 0, MaxRounds: 1 << 12, Workers: 8})
	if !reflect.DeepEqual(serial, sharded) {
		t.Fatalf("sharded run on a second conversion diverged from the serial run:\n serial  %+v\n sharded %+v", serial, sharded)
	}
}

// TestCSRConfigValidation: a disconnected CSR is rejected like a
// disconnected Graph.
func TestCSRConfigValidation(t *testing.T) {
	b := graph.NewCSRBuilder(4)
	b.MustAddEdge(0, 1, 1) // nodes 2,3 disconnected
	b.MustAddEdge(2, 3, 1)
	csr, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{CSR: csr, MaxRounds: 4},
		func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever()); err == nil {
		t.Fatal("disconnected CSR accepted")
	}
}

// TestSlowEdgeOverflowCalendar drives deliveries through the overflow
// heap (latency far beyond the calendar ring) mixed with ring-resident
// fast deliveries, and checks the merged delivery order stays correct.
func TestSlowEdgeOverflowCalendar(t *testing.T) {
	// Star: center 0 with one very slow spoke and several fast ones.
	g := graph.New(6)
	g.MustAddEdge(0, 1, 100_000)
	for v := 2; v < 6; v++ {
		g.MustAddEdge(0, v, 1)
	}
	res, err := Run(Config{CSR: g.CSR(), Seed: 3, Mode: OneToAll, Source: 0, MaxRounds: 1 << 18},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				for i := 0; i < nv.Degree(); i++ {
					p.schedule[i] = i
				}
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.Rounds != 100_000 {
		t.Fatalf("run %+v, want completion at the slow spoke's delivery round", res)
	}
	if res.InformedAt[1] != 100_000 {
		t.Fatalf("InformedAt[1] = %d, want 100000", res.InformedAt[1])
	}
	for v := 2; v < 6; v++ {
		if res.InformedAt[v] != v {
			t.Fatalf("InformedAt[%d] = %d, want %d", v, res.InformedAt[v], v)
		}
	}
}
