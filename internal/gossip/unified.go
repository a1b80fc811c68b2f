package gossip

import (
	"fmt"
	"os"
	"runtime/debug"

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

// unified is Unified with the spanner arm's phases run by ph. The arms
// run side by side, the push-pull arm on a goroutine of its own: they
// share only read-only inputs (the CSR, the adversity spec) and each is a
// pure function of its options, so the outcome is the one a sequential
// run gives, errors included (the push-pull arm's is reported first).
func unified(opts DriverOptions, ph phaseRunner) (UnifiedResult, error) {
	var out UnifiedResult
	if opts.CSR == nil {
		return out, errNoTopology
	}
	joinPP := spawn(func() (DriverResult, error) {
		return run("push-pull", DriverOptions{
			Source: opts.Source, Seed: opts.Seed, MaxRounds: opts.MaxRounds,
			ExecOptions: opts.ExecOptions,
		})
	})
	sb, sbErr := spannerBroadcast(DriverOptions{
		D:              opts.D,
		KnownLatencies: opts.KnownLatencies,
		Seed:           opts.Seed + 1,
		MaxRounds:      opts.MaxRounds,
		ExecOptions:    opts.ExecOptions,
	}, ph)
	pp, err := joinPP()
	if err != nil {
		return out, fmt.Errorf("gossip: unified push-pull arm: %w", err)
	}
	out.PushPull = *pp.Sim
	if sbErr != nil {
		return out, fmt.Errorf("gossip: unified spanner arm: %w", sbErr)
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

// spawn starts f on a goroutine of its own and returns join, which waits
// for f and returns its outcome. A panic in f does not end the process
// there: join writes the stack f panicked on to stderr, then re-raises
// the panic on the joining goroutine with the original value, where a
// recover (the server's guard) catches it as it would a panic of inline
// code. When join is never called (the joining goroutine panicked
// first), f still runs to its end and its outcome is dropped.
func spawn[T any](f func() (T, error)) (join func() (T, error)) {
	type outcome struct {
		v     T
		err   error
		p     any
		stack []byte
	}
	done := make(chan outcome, 1)
	go func() {
		var o outcome
		defer func() {
			if o.p = recover(); o.p != nil {
				o.stack = debug.Stack()
			}
			done <- o
		}()
		o.v, o.err = f()
	}()
	return func() (T, error) {
		o := <-done
		if o.p != nil {
			fmt.Fprintf(os.Stderr, "gossip: panic on a spawned goroutine: %v\n%s", o.p, o.stack)
			panic(o.p)
		}
		return o.v, o.err
	}
}
