package gossip

import "fmt"

// PatternSequence returns the ℓ-parameters of the recursive schedule T(k)
// of Section 4.2 (k must be a power of two):
//
//	T(1) = [1]
//	T(k) = T(k/2) · k · T(k/2)
//
// e.g. T(8) = 1,2,1,4,1,2,1,8,1,2,1,4,1,2,1.
func PatternSequence(k int) ([]int, error) {
	if k < 1 || k&(k-1) != 0 {
		return nil, fmt.Errorf("gossip: pattern parameter %d is not a power of two", k)
	}
	if k == 1 {
		return []int{1}, nil
	}
	half, err := PatternSequence(k / 2)
	if err != nil {
		return nil, err
	}
	out := make([]int, 0, 2*len(half)+1)
	out = append(out, half...)
	out = append(out, k)
	out = append(out, half...)
	return out, nil
}

// patternBroadcast runs Algorithm 5: execute the schedule T(k) of ℓ-DTG
// invocations (Lemma 26 guarantees all pairs within distance k have
// exchanged rumors afterwards), doubling k with a Termination_Check pass
// (one more T(k) execution, the broadcast the check prescribes) until
// dissemination completes. Unlike Spanner Broadcast it is deterministic
// and needs no bound on n.
//
// It reads D (0 = guess-and-double), Seed, MaxRounds (the cap on each
// ℓ-DTG phase), SkipCheck, Adversity and Workers; Adversity is rebased
// per ℓ-DTG invocation and completion judged over nodes that are not
// permanently gone, as in spannerBroadcast. The topology is opts.CSR, and
// every ℓ-DTG phase runs on ph (one engine for the registered driver).
func patternBroadcast(opts DriverOptions, ph phaseRunner) (BroadcastResult, error) {
	var out BroadcastResult
	csr := opts.CSR
	if err := csr.Validate(); err != nil {
		return out, fmt.Errorf("gossip: pattern broadcast: %w", err)
	}
	known := opts.D > 0
	guess := 1
	if known {
		guess = nextPow2(opts.D)
	}
	cap64 := guessCap(csr)
	p := newPipeline(opts, ph)
	for {
		if err := p.pattern(guess, opts, &out, "t"); err != nil {
			return out, err
		}
		done := p.complete()
		if !opts.SkipCheck || !known {
			if err := p.pattern(guess, opts, &out, "check"); err != nil {
				return out, err
			}
			done = p.complete()
		}
		out.FinalGuess = guess
		if done {
			out.Completed = true
			return out, nil
		}
		if known {
			return out, nil
		}
		guess *= 2
		if int64(guess) > cap64 {
			return out, nil
		}
	}
}

// pattern executes one full T(guess) schedule on opts.CSR, recorded in
// out as the single phase tag(k=guess).
func (p *pipeline) pattern(guess int, opts DriverOptions, out *BroadcastResult, tag string) error {
	seqEll, err := PatternSequence(guess)
	if err != nil {
		return err
	}
	var total DriverResult
	for i, ell := range seqEll {
		res, err := p.phase(p.prepareDTG(DriverOptions{
			Ell:         ell,
			Seed:        opts.Seed + uint64(i)*31 + 7,
			MaxRounds:   opts.MaxRounds,
			ExecOptions: phaseExec(opts, out.Rounds+total.Rounds),
		}))
		if err != nil {
			return err
		}
		total.Rounds += res.Rounds
		total.Exchanges += res.Exchanges
		total.Dropped += res.Dropped
		total.Delivered += res.Delivered
		total.RumorPayload += res.RumorPayload
	}
	out.addPhase(fmt.Sprintf("%s(k=%d)", tag, guess), total)
	return nil
}

func nextPow2(x int) int {
	v := 1
	for v < x {
		v <<= 1
	}
	return v
}
