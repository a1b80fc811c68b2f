package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// setupReps is how often the end-to-end run repeats a workload's set-up
// to report a median; only the last repetition's instance is kept.
const setupReps = 5

// rssSamples caps how often one pass samples the resident set.
const rssSamples = 512

// A pass is cut into at most maxBlocks consecutive blocks of at least
// blockOps ops, and the op timings are taken block by block: on the
// shared reference box the host slows in bursts of seconds, which only
// ever add time, so a block near the calm end of the pass repeats from run
// to run better than the whole pass does, while a change to the code moves
// every block. blockOps is the fewest ops whose tail percentile still has
// ten samples beyond it and is not the median; maxBlocks keeps a block of
// the serve workloads at 0.7 s, hundreds of collector cycles.
const (
	blockOps  = 32
	maxBlocks = 32
)

func blockCount(ops int) int { return min(max(ops/blockOps, 1), maxBlocks) }

// block is the timing of one block of a pass.
type block struct {
	// p50 and tail are percentiles of the block's op times in nanoseconds;
	// tail is the one tailPercentile picks for the block's size.
	p50, tail float64
	// throughput is the block's ops that did not fail over the wall time
	// from its first op's start to its last op's end, pauses taken out.
	throughput float64
}

// measured is the outcome of one pass over a list of ops.
type measured struct {
	ops    int
	failed int
	// firstErr is the first op failure, for the log.
	firstErr error
	// lat holds each op's wall time in nanoseconds, ascending.
	lat []float64
	// blocks holds the pass's blocks in op order.
	blocks []block
	// rss holds the resident set in MB as client 0 sampled it after ops,
	// at most rssSamples times, ascending.
	rss []float64
	// digest chains every op's output hash in op order, client by client.
	digest            string
	rounds, exchanges int64
}

// measure runs ops [first, first+ops) closed-loop: client c takes the ops
// congruent to c modulo the client count, each after the previous one
// returned. With a tracer every op gets a root span named "op".
func measure(inst *instance, first, ops, clients int, tr *tracer) measured {
	m := measured{ops: ops, lat: make([]float64, ops)}
	stride := clients * max(ops/rssSamples, 1)
	nb := blockCount(ops)
	// blockSpan is what one client saw of one block: when its first op
	// there started and its last one ended, the pauses between them, and
	// the ops that failed.
	type blockSpan struct {
		begin, end, paused time.Duration
		ops, failed        int
	}
	type clientOut struct {
		sum               []byte
		blocks            []blockSpan
		failed            int
		firstErr          error
		rounds, exchanges int64
	}
	outs := make([]clientOut, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			o := &outs[c]
			o.blocks = make([]blockSpan, nb)
			h := sha256.New()
			for i := first + c; i < first+ops; i += clients {
				b := &o.blocks[(i-first)*nb/ops]
				if inst.pause != nil {
					// Pauses only happen in the single-caller workloads,
					// where they are time the caller was not issuing ops;
					// the one before a block's first op is outside it.
					p0 := time.Now()
					inst.pause()
					if b.ops > 0 {
						b.paused += time.Since(p0)
					}
				}
				t0 := time.Now()
				id := tr.begin("op", -1, i)
				out, err := inst.op(c, i, tr, id)
				tr.end(id)
				t1 := time.Now()
				m.lat[i-first] = float64(t1.Sub(t0))
				if b.ops == 0 {
					b.begin = t0.Sub(start)
				}
				b.end = t1.Sub(start)
				b.ops++
				if err != nil {
					b.failed++
					o.failed++
					if o.firstErr == nil {
						o.firstErr = fmt.Errorf("op %d: %w", i, err)
					}
				}
				if (i-first)%stride == 0 {
					// Only client 0 gets here: stride is a multiple of
					// the client count. Untimed, like the pause.
					m.rss = append(m.rss, residentMB())
				}
				h.Write(out.sum[:])
				o.rounds += out.rounds
				o.exchanges += out.exchanges
			}
			o.sum = h.Sum(nil)
		}(c)
	}
	wg.Wait()
	all := sha256.New()
	for _, o := range outs {
		all.Write(o.sum)
		m.failed += o.failed
		if m.firstErr == nil {
			m.firstErr = o.firstErr
		}
		m.rounds += o.rounds
		m.exchanges += o.exchanges
	}
	m.digest = hex.EncodeToString(all.Sum(nil))
	for b := 0; b < nb; b++ {
		// Op k is in block k*nb/ops, as the clients placed it.
		lat := m.lat[(b*ops+nb-1)/nb : ((b+1)*ops+nb-1)/nb]
		sort.Float64s(lat)
		// The block ran from the earliest client's first op in it to the
		// latest client's last one.
		begin, end := time.Duration(1<<62), time.Duration(0)
		var paused time.Duration
		done := 0
		for _, o := range outs {
			if s := o.blocks[b]; s.ops > 0 {
				begin, end = min(begin, s.begin), max(end, s.end)
				paused += s.paused
				done += s.ops - s.failed
			}
		}
		m.blocks = append(m.blocks, block{
			p50:        percentile(lat, 50),
			tail:       percentile(lat, tailPercentile(len(lat))),
			throughput: float64(done) / (end - begin - paused).Seconds(),
		})
	}
	sort.Float64s(m.lat)
	sort.Float64s(m.rss)
	return m
}

// timedSetup runs the workload's complete set-up setupReps times and
// returns the last instance with the median duration. The collector runs
// untimed between repetitions so each starts from the same heap.
func timedSetup(w workload, seed uint64, sc scale, ops int) (*instance, float64, error) {
	var inst *instance
	secs := make([]float64, 0, setupReps)
	for r := 0; r < setupReps; r++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0 := time.Now()
		var err error
		inst, err = w.setup(seed, sc, ops, nil)
		if err != nil {
			return nil, 0, fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return inst, median(secs), nil
}
