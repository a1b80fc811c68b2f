package gossip

import (
	"fmt"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
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
func spannerBroadcast(opts DriverOptions) (BroadcastResult, error) {
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
	// Diameter never exceeds (n-1)·ℓmax; one more doubling detects it.
	cap64 := int64(csr.N()) * int64(csr.MaxLatency()) * 2
	reps := spanner.DefaultK(csr.N()) // ⌈log₂ n⌉ gather repetitions; also the spanner's depth
	var rumors []*bitset.Set
	for {
		var err error
		rumors, err = gatherNeighborhood(guess, reps, opts, &out, rumors)
		if err != nil {
			return out, err
		}
		// One spanner of G_guess per guess: the rr pass and the
		// Termination_Check pass broadcast over the same orientation.
		sp, err := spanner.BuildCSR(csr, spanner.Options{Seed: opts.Seed ^ 0x5bd1e995, MaxLatency: guess})
		if err != nil {
			return out, err
		}
		out.SpannerEdges, out.SpannerMaxOut = sp.NumEdges(), sp.MaxOutDegree()
		rumors, err = runRRPhase(sp, guess, opts, &out, rumors, "rr")
		if err != nil {
			return out, err
		}
		if !opts.SkipCheck || !known {
			// Termination_Check: one more RR-style broadcast pass.
			rumors, err = runRRPhase(sp, guess, opts, &out, rumors, "check")
			if err != nil {
				return out, err
			}
		}
		out.FinalGuess = guess
		if rumorsFullAlive(rumors, opts.Adversity) {
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

// gatherNeighborhood runs one diameter guess's neighborhood collection on
// opts.CSR — latency discovery when latencies are unknown, then reps
// repetitions of guess-DTG (or Superstep) — returning the carried rumor
// sets.
func gatherNeighborhood(guess, reps int, opts DriverOptions, out *BroadcastResult, rumors []*bitset.Set) ([]*bitset.Set, error) {
	if !opts.KnownLatencies {
		res, err := runDiscovery(DriverOptions{
			Seed:          opts.Seed,
			MaxRounds:     opts.CSR.MaxDegree() + guess,
			InitialRumors: rumors,
			ExecOptions:   phaseExec(opts, out.Rounds),
		})
		if err != nil {
			return nil, err
		}
		out.addPhase(fmt.Sprintf("discover(k=%d)", guess), res)
		rumors = res.Sim.FinalRumors()
	}
	gather := "dtg"
	if opts.FaultTolerant {
		gather = "superstep"
	}
	for rep := 0; rep < reps; rep++ {
		res, err := run(gather, DriverOptions{
			Ell:           guess,
			LBTimeout:     opts.LBTimeout,
			Seed:          opts.Seed + uint64(rep) + 1,
			MaxRounds:     opts.MaxRounds,
			InitialRumors: rumors,
			ExecOptions:   phaseExec(opts, out.Rounds),
		})
		if err != nil {
			return nil, err
		}
		out.addPhase(fmt.Sprintf("%s(ℓ=%d,#%d)", gather, guess, rep+1), res)
		rumors = res.Sim.FinalRumors()
	}
	return rumors, nil
}

// phaseExec is the execution surface of a pipeline phase that starts
// after offset rounds: the fault schedule rebased to the phase's round
// zero, the same worker count, and the pipeline's one topology.
func phaseExec(opts DriverOptions, offset int) ExecOptions {
	return ExecOptions{Adversity: opts.Adversity.Shift(offset), Workers: opts.Workers, CSR: opts.CSR}
}

// runRRPhase runs one RR Broadcast over sp, the spanner of G_guess, with
// parameter k = guess·(2·sp.K - 1) — the spanner stretch bound applied to
// the diameter guess — records it in out as phase tag(k=guess) and
// returns the carried rumor sets.
func runRRPhase(sp *spanner.Spanner, guess int, opts DriverOptions, out *BroadcastResult, rumors []*bitset.Set, tag string) ([]*bitset.Set, error) {
	stop := sim.StopAllHaveAll()
	if opts.Adversity.HasFailures() {
		stop = stopAliveHaveAlive(opts.Adversity)
	}
	res, err := run("rr", DriverOptions{
		Spanner:       sp,
		K:             guess * (2*sp.K - 1),
		Seed:          opts.Seed ^ 0x27d4eb2f,
		MaxRounds:     opts.MaxRounds,
		InitialRumors: rumors,
		Stop:          stop,
		ExecOptions:   phaseExec(opts, out.Rounds),
	})
	if err != nil {
		return nil, err
	}
	out.addPhase(fmt.Sprintf("%s(k=%d)", tag, guess), res)
	return res.Sim.FinalRumors(), nil
}

// rumorsFull reports whether every node holds all n rumors.
func rumorsFull(rumors []*bitset.Set, n int) bool {
	if rumors == nil {
		return false
	}
	for _, r := range rumors {
		if r.Count() != n {
			return false
		}
	}
	return true
}

// rumorsFullAlive reports whether every surviving node — every node the
// fault schedule never permanently removes; temporarily-churned nodes
// rejoin and must still be informed — holds every surviving node's
// rumor; with no failure model it is rumorsFull.
func rumorsFullAlive(rumors []*bitset.Set, spec *adversity.Spec) bool {
	if rumors == nil {
		return false
	}
	if !spec.HasFailures() {
		return rumorsFull(rumors, len(rumors))
	}
	for u, r := range rumors {
		if spec.NeverReturns(u) {
			continue
		}
		for v := range rumors {
			if !spec.NeverReturns(v) && !r.Contains(v) {
				return false
			}
		}
	}
	return true
}

// stopAliveHaveAlive stops when every surviving node holds every
// surviving node's rumor.
func stopAliveHaveAlive(spec *adversity.Spec) sim.StopFunc {
	return func(w *sim.World) bool {
		for u, nv := range w.Views {
			if spec.NeverReturns(u) {
				continue
			}
			for v := range w.Views {
				if !spec.NeverReturns(v) && !nv.Knows(v) {
					return false
				}
			}
		}
		return true
	}
}
