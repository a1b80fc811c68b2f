package experiments

import (
	"context"
	"fmt"

	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/runner"
)

// Config tunes experiment scale.
type Config struct {
	// Seed drives all randomness. Each trial's RNG seed is derived from
	// a stable hash of (Seed, experiment, cell, trial) — see
	// runner.DeriveSeed — so results do not depend on scheduling.
	Seed uint64
	// Trials is the number of repetitions averaged per data point
	// (default 5, or 3 under Quick).
	Trials int
	// Quick shrinks problem sizes for CI and benchmarks.
	Quick bool
	// Workers caps the goroutine pool fanning trials across cores
	// (0 = GOMAXPROCS). Results are identical at any worker count.
	Workers int
	// Progress, when non-nil, receives per-experiment trial completion
	// counts (serialized by the runner).
	Progress func(done, total int)
}

func (c Config) withDefaults() Config {
	if c.Trials <= 0 {
		c.Trials = 5
		if c.Quick {
			c.Trials = 3
		}
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// runGrid fans an experiment's trial grid across the configured worker
// pool and returns per-cell samples in declaration order.
func runGrid(ctx context.Context, cfg Config, exp string, cells []string, trialsPerCell int, fn runner.TrialFunc) ([]runner.Cell, error) {
	return runner.Run(ctx, runner.Grid{
		Exp:    exp,
		Cells:  cells,
		Trials: trialsPerCell,
		Run:    fn,
	}, runner.Options{
		BaseSeed: cfg.Seed,
		Workers:  cfg.Workers,
		Progress: cfg.Progress,
	})
}

// cellNames builds the n cell names of a single-axis grid.
func cellNames(n int, f func(i int) string) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = f(i)
	}
	return names
}

// b2f encodes a per-trial boolean as a 0/1 metric; aggregate with
// Cell.Min to ask "did it hold on every trial".
func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// Experiment is the single declaration of one paper claim and its
// measurement: Run returns only the data (Headers, Rows, Notes); the
// identity and the claim live here and nowhere else.
type Experiment struct {
	ID    string
	Title string
	// Source cites the theorem/lemma/figure reproduced.
	Source string
	// Claim quotes the paper prediction being tested.
	Claim string
	Run   func(ctx context.Context, cfg Config) (*Table, error)
}

// RunOne is the single runner: it applies the Config defaults, runs e,
// prefixes an error with e.ID and stamps e's ID, Title, Source and Claim
// onto the table, so renderers and JSON artifacts carry them.
func RunOne(ctx context.Context, cfg Config, e Experiment) (*Table, error) {
	tbl, err := e.Run(ctx, cfg.withDefaults())
	if err != nil {
		return nil, fmt.Errorf("%s: %w", e.ID, err)
	}
	tbl.ID, tbl.Title, tbl.Source, tbl.Claim = e.ID, e.Title, e.Source, e.Claim
	return tbl, nil
}

// dispatch runs the named driver on c and fails the trial on an error or
// an incomplete run.
func dispatch(name string, c *graph.CSR, opts gossip.DriverOptions) (gossip.DriverResult, error) {
	opts.CSR = c
	res, err := gossip.Dispatch(name, nil, opts)
	if err == nil && !res.Completed {
		err = fmt.Errorf("%s incomplete after %d rounds", name, res.Rounds)
	}
	return res, err
}

// sameRun reports whether two runs agree on the outcome and on every
// transport counter.
func sameRun(a, b gossip.DriverResult) bool {
	return a.Rounds == b.Rounds && a.Completed == b.Completed && a.Exchanges == b.Exchanges &&
		a.Dropped == b.Dropped && a.Delivered == b.Delivered && a.RumorPayload == b.RumorPayload
}

// dispatchSharded runs the named driver on c serially and again 8-way
// sharded, fails the trial unless the two agree (sameRun) — the
// continuously-executed proof of worker-count determinism — and returns
// the serial result.
func dispatchSharded(name string, c *graph.CSR, opts gossip.DriverOptions) (gossip.DriverResult, error) {
	opts.CSR = c
	serial, err := gossip.Dispatch(name, nil, opts)
	if err != nil {
		return serial, err
	}
	opts.Workers = 8
	sharded, err := gossip.Dispatch(name, nil, opts)
	if err == nil && !sameRun(serial, sharded) {
		counters := func(r gossip.DriverResult) gossip.DriverResult {
			r.InformedAt, r.Sim, r.Broadcast = nil, nil, nil // per-node detail would drown the message
			return r
		}
		err = fmt.Errorf("shard determinism violated (seed=%d): w1 %+v vs w8 %+v", opts.Seed, counters(serial), counters(sharded))
	}
	return serial, err
}

// All returns every experiment in ID order.
func All() []Experiment {
	return []Experiment{
		expE1Theorem5,
		expE2GuessSingleton,
		expE3GuessRandom,
		expE4DeltaLower,
		expE5ConductanceLower,
		expE6Tradeoff,
		expE7PushPullUpper,
		expE8Spanner,
		expE9Pattern,
		expE10Unified,
		expE11DTG,
		expE12RR,
		expE13NoPull,
		expE14Robustness,
		expE15Messages,
		expE16BoundedIn,
		expE17LocalBroadcast,
		expE18Blocking,
		expE19Curves,
		expE20Bandwidth,
		expE21Jitter,
		expE22FaultTolerant,
		expE23Scaling,
		expE24LossSweep,
		expE25Churn,
		expE26Service,
		expE27WarmSweep,
		expE28Distributed,
		expE29Estimate,
		expE30Election,
		expE31Echo,
	}
}

// Get returns the experiment with the given ID.
func Get(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}
