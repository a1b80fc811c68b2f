package gossip

import (
	"fmt"

	"gossip/internal/graph"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// Phase records the cost of one phase of a composed broadcast algorithm.
type Phase struct {
	Name      string
	Rounds    int
	Exchanges int64
	// Payload is the rumor-units bandwidth the phase consumed.
	Payload int64
}

// BroadcastResult summarizes a multi-phase broadcast execution.
type BroadcastResult struct {
	// Completed reports whether all-to-all dissemination finished.
	Completed bool
	// Rounds is the total simulated time across phases.
	Rounds int
	// Exchanges is the total number of exchanges across phases.
	Exchanges int64
	// Dropped / Delivered total the exchanges lost to the failure model
	// and the exchanges whose payload arrived, across phases.
	Dropped   int64
	Delivered int64
	// RumorPayload is the total rumor-units bandwidth across phases.
	RumorPayload int64
	// Phases itemizes the run.
	Phases []Phase
	// FinalGuess is the diameter guess in force when the run ended
	// (equal to the supplied D when it was known).
	FinalGuess int
	// SpannerEdges and SpannerMaxOut describe the last spanner built.
	SpannerEdges, SpannerMaxOut int
}

func (r *BroadcastResult) addPhase(name string, res DriverResult) {
	r.Phases = append(r.Phases, Phase{Name: name, Rounds: res.Rounds, Exchanges: res.Exchanges, Payload: res.RumorPayload})
	r.Rounds += res.Rounds
	r.Exchanges += res.Exchanges
	r.Dropped += res.Dropped
	r.Delivered += res.Delivered
	r.RumorPayload += res.RumorPayload
}

// phaseRunner runs one phase of a multi-phase pipeline. The registered
// drivers hand every phase to one *sim.Pipeline, which keeps a single
// engine across them; the tests substitute a fresh engine per phase
// seeded with the previous phase's final rumor sets, the reference the
// one-engine path must reproduce bit for bit.
type phaseRunner interface {
	Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error)
}

// pipeline is what a spanner or pattern broadcast carries from phase to
// phase: the runner, the last phase's final state, and the survivors its
// completion checks quantify over.
type pipeline struct {
	ph phaseRunner
	// world is the last phase's final state (nil before the first).
	world *sim.World
	// survivors are the nodes the fault schedule never permanently
	// removes — every node without one — computed once per pipeline.
	// Temporarily-churned nodes rejoin and must still be informed.
	survivors []int
	// dtgs is the one slab every ℓ-DTG phase of the pipeline draws its
	// instances from, so a repetition restarts the storage the last one
	// built (see DTG.init); nil until the first such phase.
	dtgs []DTG
	// dtgEll and dtgBenign describe the last ℓ-DTG phase: its ℓ, and
	// whether it ran with no fault schedule.
	dtgEll    int
	dtgBenign bool
}

func newPipeline(opts DriverOptions, ph phaseRunner) *pipeline {
	p := &pipeline{ph: ph}
	for u := 0; u < opts.CSR.N(); u++ {
		if !opts.Adversity.NeverReturns(u) {
			p.survivors = append(p.survivors, u)
		}
	}
	return p
}

// prepareDTG is the package-level prepareDTG on the pipeline's slab. The
// phase replays the last one's links (see DTG) when neither has a fault
// schedule, both run at one ℓ, and the last one completed: every
// instance is done, so none was cut short by MaxRounds and each holds
// its whole list.
func (p *pipeline) prepareDTG(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
	if p.dtgs == nil {
		p.dtgs = make([]DTG, opts.CSR.N())
	}
	benign := opts.Adversity == nil
	replay := benign && p.dtgBenign && opts.Ell == p.dtgEll && allDone(p.dtgs)
	p.dtgEll, p.dtgBenign = opts.Ell, benign
	return dtgPhase(opts, p.dtgs, replay)
}

// allDone reports whether every instance of slab is done; a fresh slab's
// are not.
func allDone(slab []DTG) bool {
	for i := range slab {
		if !slab[i].done {
			return false
		}
	}
	return true
}

// phase runs one prepared phase (a driver's Prepare output) as the
// pipeline's next. The runner carries the rumor sets over.
func (p *pipeline) phase(cfg sim.Config, factory sim.Factory, stop sim.StopFunc, err error) (DriverResult, error) {
	if err != nil {
		return DriverResult{}, err
	}
	res, err := p.ph.Run(cfg, factory, stop)
	if err != nil {
		return DriverResult{}, err
	}
	p.world = res.World
	return fromSimResult(res, nil)
}

// survivorsInformed reports whether every survivor holds every survivor's
// rumor in w; a node holding all n rumors needs no scan. It is the rr
// phases' stop condition under a failure schedule.
func (p *pipeline) survivorsInformed(w *sim.World) bool {
	n := len(w.Views)
	for _, u := range p.survivors {
		nv := w.Views[u]
		if nv.RumorCount() == n {
			continue
		}
		for _, v := range p.survivors {
			if !nv.Knows(v) {
				return false
			}
		}
	}
	return true
}

// complete reports whether the last phase left every survivor holding
// every survivor's rumor (with no failure model: every node holding all
// n rumors).
func (p *pipeline) complete() bool {
	return p.world != nil && p.survivorsInformed(p.world)
}

// buildSpanner is the construction spannerBroadcast runs beside each
// gather: spanner.BuildCSR, which tests swap for one that fails or panics.
var buildSpanner = spanner.BuildCSR

// spannerBroadcast runs Algorithm 2 (known D) or Algorithm 4 (unknown D):
// ceil(log2 n) repetitions of D-DTG to collect the log n-hop
// neighborhood, a local oriented Baswana-Sen spanner construction on G_D,
// and RR Broadcast with parameter O(D log n) — plus Termination_Check
// and diameter doubling when D is unknown. The Termination_Check decision
// (Algorithm 3: equal rumor sets and no raised flags everywhere) is
// evaluated from global state; Lemma 24 proves the distributed predicate
// agrees with it, and its communication cost is charged as one extra RR
// phase.
//
// It reads D (0 = unknown), KnownLatencies (when false every guess is
// preceded by a latency-discovery phase with budget Δ + guess, Section
// 5.2's "tweaked" variant), Seed, MaxRounds (the per-phase cap),
// SkipCheck, FaultTolerant/LBTimeout, Adversity and Workers.
// FaultTolerant swaps the DTG neighborhood-gathering phases for the
// randomized Superstep primitive (Censor-Hillel et al. style), which
// abandons exchanges stalled for LBTimeout rounds and so makes the
// pipeline crash-tolerant (this repository's Section 7 extension).
// Without it the pipeline has no recovery mechanism — Section 6 calls out
// exactly this fragility versus push-pull: DTG stalls forever on a dead
// peer. Adversity rounds are absolute against the pipeline's cumulative
// round count: each phase receives the spec rebased by the rounds
// already consumed, and completion is judged over nodes that are not
// permanently gone. The topology is opts.CSR, as for every driver.
//
// Every phase runs on ph; the registered driver passes one engine for the
// whole pipeline (sim.Pipeline), which each phase reloads in place,
// entering with the rumor sets the previous phase left.
func spannerBroadcast(opts DriverOptions, ph phaseRunner) (BroadcastResult, error) {
	var out BroadcastResult
	csr := opts.CSR
	if err := csr.Validate(); err != nil {
		return out, fmt.Errorf("gossip: spanner broadcast: %w", err)
	}
	if opts.FaultTolerant && opts.LBTimeout <= 0 {
		// Safely above any single round trip.
		opts.LBTimeout = 2*csr.MaxLatency() + 4
	}
	known := opts.D > 0
	guess := opts.D
	if !known {
		guess = 1
	}
	cap64 := guessCap(csr)
	reps := spanner.DefaultK(csr.N()) // ⌈log₂ n⌉ gather repetitions; also the spanner's depth
	p := newPipeline(opts, ph)
	for {
		// One spanner of G_guess per guess: the rr pass and the
		// Termination_Check pass broadcast over the same orientation. The
		// construction is centralized and reads only the topology, the
		// seed and the guess (the gather charges the paper's cost of
		// collecting the neighborhood), so it is built on a goroutine of
		// its own beside the gather, and joined on every path.
		joinSpanner := spawn(func() (*spanner.Spanner, error) {
			return buildSpanner(csr, spanner.Options{Seed: opts.Seed ^ 0x5bd1e995, MaxLatency: guess})
		})
		gatherErr := p.gatherNeighborhood(guess, reps, opts, &out)
		sp, err := joinSpanner()
		if gatherErr != nil {
			return out, gatherErr
		}
		if err != nil {
			return out, err
		}
		out.SpannerEdges, out.SpannerMaxOut = sp.NumEdges(), sp.MaxOutDegree()
		if err := p.rrPhase(sp, guess, opts, &out, "rr"); err != nil {
			return out, err
		}
		if !opts.SkipCheck || !known {
			// Termination_Check: one more RR-style broadcast pass.
			if err := p.rrPhase(sp, guess, opts, &out, "check"); err != nil {
				return out, err
			}
		}
		out.FinalGuess = guess
		if p.complete() {
			out.Completed = true
			return out, nil
		}
		if known {
			return out, nil // a known correct D that fails is a bug upstream
		}
		guess *= 2
		if int64(guess) > cap64 {
			return out, nil
		}
	}
}

// guessCap is the largest diameter guess a guess-and-double pipeline
// tries. Diameter never exceeds (n-1)·ℓmax; one more doubling detects it:
// the largest power of two ≤ 2·n·ℓmax exceeds n·ℓmax.
func guessCap(csr *graph.CSR) int64 {
	return int64(csr.N()) * int64(csr.MaxLatency()) * 2
}

// gatherNeighborhood runs one diameter guess's neighborhood collection on
// opts.CSR: latency discovery when latencies are unknown, then reps
// repetitions of guess-DTG (or Superstep).
func (p *pipeline) gatherNeighborhood(guess, reps int, opts DriverOptions, out *BroadcastResult) error {
	if !opts.KnownLatencies {
		res, err := p.discover(DriverOptions{
			Seed:        opts.Seed,
			MaxRounds:   opts.CSR.MaxDegree() + guess,
			ExecOptions: phaseExec(opts, out.Rounds),
		})
		if err != nil {
			return err
		}
		out.addPhase(fmt.Sprintf("discover(k=%d)", guess), res)
	}
	gather, prepare := "dtg", p.prepareDTG
	if opts.FaultTolerant {
		gather, prepare = "superstep", prepareSuperstep
	}
	for rep := 0; rep < reps; rep++ {
		res, err := p.phase(prepare(DriverOptions{
			Ell:         guess,
			LBTimeout:   opts.LBTimeout,
			Seed:        opts.Seed + uint64(rep) + 1,
			MaxRounds:   opts.MaxRounds,
			ExecOptions: phaseExec(opts, out.Rounds),
		}))
		if err != nil {
			return err
		}
		out.addPhase(fmt.Sprintf("%s(ℓ=%d,#%d)", gather, guess, rep+1), res)
	}
	return nil
}

// phaseExec is the execution surface of a pipeline phase that starts
// after offset rounds: the fault schedule rebased to the phase's round
// zero, the same worker count, and the pipeline's one topology.
func phaseExec(opts DriverOptions, offset int) ExecOptions {
	return ExecOptions{Adversity: opts.Adversity.Shift(offset), Workers: opts.Workers, CSR: opts.CSR}
}

// rrPhase runs one RR Broadcast over sp, the spanner of G_guess, with
// parameter k = guess·(2·sp.K - 1) — the spanner stretch bound applied to
// the diameter guess — and records it in out as phase tag(k=guess).
// Under a failure schedule it stops as soon as every survivor holds every
// survivor's rumor.
func (p *pipeline) rrPhase(sp *spanner.Spanner, guess int, opts DriverOptions, out *BroadcastResult, tag string) error {
	stop := sim.StopAllHaveAll()
	if opts.Adversity.HasFailures() {
		stop = p.survivorsInformed
	}
	res, err := p.phase(prepareRR(DriverOptions{
		Spanner:     sp,
		K:           guess * (2*sp.K - 1),
		Seed:        opts.Seed ^ 0x27d4eb2f,
		MaxRounds:   opts.MaxRounds,
		Stop:        stop,
		ExecOptions: phaseExec(opts, out.Rounds),
	}))
	if err != nil {
		return err
	}
	out.addPhase(fmt.Sprintf("%s(k=%d)", tag, guess), res)
	return nil
}
