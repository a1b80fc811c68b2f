package sim

import (
	"fmt"
	"sync"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
)

// hotStateErr checks the flat per-node state the round loop reads instead
// of a NodeView against the views themselves, for every node the engine
// holds (on a distributed worker the replicas of remote nodes too): the
// journal length table matches each journal, and informedAt is
// non-negative exactly when the node holds the watched rumor.
func hotStateErr(e *engine) error {
	for u, nv := range e.views {
		if int(e.jlen[u]) != len(nv.journal) {
			return fmt.Errorf("round %d, node %d: flat journal length %d, journal holds %d",
				e.world.Round, u, e.jlen[u], len(nv.journal))
		}
		if has := nv.rum.Contains(e.watched); (e.informedAt[u] >= 0) != has {
			return fmt.Errorf("round %d, node %d: informedAt %d but holds the watched rumor = %v",
				e.world.Round, u, e.informedAt[u], has)
		}
	}
	return nil
}

// hotChecker reports the first hot-state mismatch of a case; it is shared
// by the workers of a distributed run, so it reports with t.Errorf and
// never changes what a stop condition returns.
type hotChecker struct {
	t      *testing.T
	name   string
	mu     sync.Mutex
	failed bool
}

func (c *hotChecker) check(e *engine, where string) {
	err := hotStateErr(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && !c.failed {
		c.failed = true
		c.t.Errorf("%s, %s: %v", c.name, where, err)
	}
}

// stop wraps stop so that every evaluation first checks *e, the engine
// the wrapped condition runs on (read at call time, so the engine may be
// built after the wrapper).
func (c *hotChecker) stop(e **engine, stop StopFunc) StopFunc {
	return func(w *World) bool {
		c.check(*e, "stop check")
		return stop(w)
	}
}

// TestHotStateMirrorsNodes pins the invariant the delivery path relies on
// to leave a NodeView unread: the flat journal lengths and informedAt
// mirror the nodes at every stop check, at capture barriers and at the end
// of a run — serially, at 4 workers, on every worker of a 3-shard
// distributed run (replicas included), under amnesic churn, loss and
// latency jitter, across Pipeline reloads and after Resume.
func TestHotStateMirrorsNodes(t *testing.T) {
	const n = 37
	csr := denseTestGraph(n).CSR()
	churn := adversity.MustParseSpec("loss=0.15;churn=2:6-14:amnesia;churn=5:3-9:amnesia;flap=0-1:3-8")
	random := func(nv *NodeView) Protocol { return &randomProto{nv: nv} }
	rows := []struct {
		name string
		cfg  Config
		dist bool
	}{
		{"one-to-all", Config{Mode: OneToAll, Source: 3, MaxRounds: 40}, true},
		{"all-to-all", Config{Mode: AllToAll, MaxRounds: 40}, true},
		{"one-to-all churn", Config{Mode: OneToAll, Source: 2, MaxRounds: 40, Adversity: churn}, true},
		{"all-to-all churn", Config{Mode: AllToAll, MaxRounds: 40, Adversity: churn}, true},
		{"jitter", Config{Mode: AllToAll, MaxRounds: 40, LatencyJitter: 0.5, Adversity: churn}, false},
	}
	for _, row := range rows {
		cfg := row.cfg
		cfg.CSR, cfg.Seed = csr, 17
		for _, workers := range []int{1, 4} {
			cfg.Workers = workers
			c := &hotChecker{t: t, name: fmt.Sprintf("%s, workers %d", row.name, workers)}
			e, err := newEngine(cfg, random)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := e.run(c.stop(&e, StopNever())); err != nil {
				t.Fatal(err)
			}
			c.check(e, "end of run")
		}
		if row.dist {
			checkDistHotState(t, row.name, cfg, random)
		}
	}
	checkPipelineHotState(t, csr, churn)
	checkResumeHotState(t, csr, churn)
}

// checkDistHotState runs cfg on 3 in-process shard workers and checks
// every worker's engine, replicas included, at every stop evaluation and
// at the end.
func checkDistHotState(t *testing.T, name string, cfg Config, factory Factory) {
	const shards = 3
	c := &hotChecker{t: t, name: name + ", 3 shards"}
	ex := NewLocalExchange(shards)
	var wg sync.WaitGroup
	errs := make([]error, shards)
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			e, err := newDistEngine(cfg, DistConfig{Shard: i, Shards: shards, Exchanger: ex}, factory)
			if err == nil {
				_, err = e.run(c.stop(&e, StopNever()))
			}
			if err != nil {
				errs[i] = err
				ex.(distAborter).Abort(err)
				return
			}
			c.check(e, fmt.Sprintf("end of shard %d", i))
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// checkPipelineHotState runs three phases on one Pipeline, each stopped
// at its horizon with exchanges in flight, and checks the engine through
// every phase and after each reload.
func checkPipelineHotState(t *testing.T, csr *graph.CSR, spec *adversity.Spec) {
	for _, workers := range []int{1, 4} {
		c := &hotChecker{t: t, name: fmt.Sprintf("pipeline, workers %d", workers)}
		var p Pipeline
		for phase := 0; phase < 3; phase++ {
			cfg := Config{CSR: csr, Mode: AllToAll, Seed: uint64(30 + phase), MaxRounds: 12 + 3*phase,
				Workers: workers, Adversity: spec}
			stop := func(w *World) bool {
				c.check(p.e, fmt.Sprintf("phase %d stop check", phase))
				return false
			}
			if _, err := p.Run(cfg, func(nv *NodeView) Protocol { return &randomProto{nv: nv} }, stop); err != nil {
				t.Fatal(err)
			}
			c.check(p.e, fmt.Sprintf("end of phase %d", phase))
		}
	}
}

// checkResumeHotState captures a run at several rounds, checks each
// frozen engine, and resumes each capture to the horizon under checks.
func checkResumeHotState(t *testing.T, csr *graph.CSR, spec *adversity.Spec) {
	for _, mode := range []RumorMode{OneToAll, AllToAll} {
		for _, at := range []int{2, 7, 11, 20} {
			cfg := Config{CSR: csr, Mode: mode, Source: 2, Seed: 9, MaxRounds: 40, Adversity: spec}
			c := &hotChecker{t: t, name: fmt.Sprintf("resume mode %d at %d", mode, at)}
			snap, err := CaptureAt(cfg, cloningFactory, StopNever(), at)
			if err != nil {
				t.Fatal(err)
			}
			if snap.Done() {
				t.Fatalf("capture at %d finished first", at)
			}
			c.check(snap.src, "capture barrier")
			for _, workers := range []int{1, 4} {
				cfg.Workers = workers
				e, err := snap.restore(cfg, cloningFactory)
				if err != nil {
					t.Fatal(err)
				}
				c.check(e, "restored engine")
				if _, err := e.run(c.stop(&e, StopNever())); err != nil {
					t.Fatal(err)
				}
				c.check(e, "end of resumed run")
			}
		}
	}
}
