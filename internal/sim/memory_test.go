package sim

import (
	"math/rand/v2"
	"runtime"
	"testing"
	"unsafe"

	"gossip/internal/graphgen"
)

// pushPullProto is silentProto with the one facet gossip.PushPull
// implements (Sleeper), so the engine builds the same facet tables it
// builds for the real driver.
type pushPullProto struct{ silentProto }

func (p *pushPullProto) NextWake(round int) int { return round + 1 }

// memoryBudgetBytes bounds TotalAlloc of one serial push-pull run to
// completion on a 2¹²-node ring+matching expander with latency 1. Before
// the engine's memory diet this run allocated 6 494 088 bytes (144-byte
// exchanges in append-grown buckets, all six facet tables always); with
// 88-byte exchanges, one bucket allocation for the whole run, the news
// scratch and only push-pull's two facet tables it allocated 4 117 064,
// and 4 068 072 once push-pull had one (Sleeper; deliveries no longer
// call it). Half of that is the per-node dense rumor bitsets (n <= 2¹³), which the
// diet does not touch. The bound is 0.65 of the old figure. With 64-byte
// exchanges (metadata as handles, not interfaces) the run allocates
// 3 968 672, and 1 740 440 once a rumor set is a list of its one rumor
// instead of an n-bit bitmap.
const memoryBudgetBytes = 6494088 * 65 / 100

// TestEngineMemoryBudget pins the per-exchange and per-node memory of the
// serial round loop, the layer sim-sparse's rss_p90_mb measures.
func TestEngineMemoryBudget(t *testing.T) {
	if sz := unsafe.Sizeof(exch{}); sz > 64 {
		t.Fatalf("exch is %d bytes, budget 64", sz)
	}
	csr, err := graphgen.RingMatchingExpanderCSR(1<<12, 1, rand.New(rand.NewPCG(5, 6)))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{CSR: csr, Source: 0, Seed: 7}
	factory := func(nv *NodeView) Protocol { return &pushPullProto{silentProto{nv: nv}} }
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := Run(cfg, factory, StopAllInformed(0))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed {
		t.Fatalf("push-pull did not complete: %+v", res.Rounds)
	}
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rounds, %d exchanges, %d bytes allocated (budget %d)", res.Rounds, res.Exchanges, got, memoryBudgetBytes)
	if got > memoryBudgetBytes {
		t.Fatalf("serial push-pull allocated %d bytes, budget %d", got, memoryBudgetBytes)
	}
}

// TestRoundLoopAllocatesNothingPerRound pins the serial round loop's
// allocations to set-up: a run ten times longer allocates no more. A
// stage closure that captured the round variable would cost a heap
// allocation or three every round.
func TestRoundLoopAllocatesNothingPerRound(t *testing.T) {
	csr := pathGraph(1, 1, 1, 1, 1, 1, 1).CSR()
	allocs := func(rounds int) float64 {
		return testing.AllocsPerRun(5, func() {
			res, err := Run(Config{CSR: csr, Seed: 3, MaxRounds: rounds},
				func(nv *NodeView) Protocol { return &silentProto{nv: nv} }, StopNever())
			if err != nil || res.Rounds != rounds {
				t.Fatalf("run to %d rounds: rounds %d, err %v", rounds, res.Rounds, err)
			}
		})
	}
	short, long := allocs(100), allocs(1000)
	t.Logf("allocations per run: %.0f at 100 rounds, %.0f at 1000", short, long)
	if long > short {
		t.Fatalf("a 1000-round run allocates %.0f times, a 100-round run %.0f: the round loop allocates per round", long, short)
	}
}
