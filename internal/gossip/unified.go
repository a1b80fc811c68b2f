package gossip

import (
	"fmt"

	"gossip/internal/sim"
)

// UnifiedResult reports both arms of the Theorem 31 algorithm.
type UnifiedResult struct {
	// Rounds is min(push-pull, spanner path): the paper runs both in
	// parallel, which costs at most twice the faster arm; we report the
	// faster arm's completion time.
	Rounds int
	// Winner names the faster arm: "push-pull" or "spanner".
	Winner string
	// PushPull is the push-pull arm's result.
	PushPull sim.Result
	// Spanner is the spanner-broadcast arm's result.
	Spanner BroadcastResult
}

// Unified runs the Theorem 31 algorithm: push-pull and the spanner-based
// broadcast in parallel, taking whichever finishes first. With unknown
// latencies the spanner arm prepends latency discovery (Section 5.2),
// achieving O(min((D+Δ)·log³n, (ℓ*/φ*)·log n)).
//
// It reads Source (the push-pull arm's rumor origin), KnownLatencies and
// D (the spanner arm's model; a positive D skips guess-and-double), Seed,
// MaxRounds and the execution surface; the paper's side-by-side execution
// faces one network, so both arms see the same Adversity schedule and
// the same opts.CSR.
func Unified(opts DriverOptions) (UnifiedResult, error) {
	return unified(opts, new(sim.Pipeline))
}

// unified is Unified with the spanner arm's phases run by ph.
func unified(opts DriverOptions, ph phaseRunner) (UnifiedResult, error) {
	var out UnifiedResult
	if opts.CSR == nil {
		return out, errNoTopology
	}
	pp, err := run("push-pull", DriverOptions{
		Source: opts.Source, Seed: opts.Seed, MaxRounds: opts.MaxRounds,
		ExecOptions: opts.ExecOptions,
	})
	if err != nil {
		return out, fmt.Errorf("gossip: unified push-pull arm: %w", err)
	}
	out.PushPull = *pp.Sim
	sb, err := spannerBroadcast(DriverOptions{
		D:              opts.D,
		KnownLatencies: opts.KnownLatencies,
		Seed:           opts.Seed + 1,
		MaxRounds:      opts.MaxRounds,
		ExecOptions:    opts.ExecOptions,
	}, ph)
	if err != nil {
		return out, fmt.Errorf("gossip: unified spanner arm: %w", err)
	}
	out.Spanner = sb
	ppRounds := pp.Rounds
	if !pp.Completed {
		ppRounds = int(^uint(0) >> 2)
	}
	sbRounds := sb.Rounds
	if !sb.Completed {
		sbRounds = int(^uint(0) >> 2)
	}
	if ppRounds <= sbRounds {
		out.Rounds = ppRounds
		out.Winner = "push-pull"
	} else {
		out.Rounds = sbRounds
		out.Winner = "spanner"
	}
	if !pp.Completed && !sb.Completed {
		out.Rounds = -1
		out.Winner = "none"
	}
	return out, nil
}
