package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/server/api"
)

// SweepRequest is the JSON body of POST /v1/sweeps; the struct lives in
// internal/server/api with the rest of the /v1 envelopes.
type SweepRequest = api.SweepRequest

// SweepVariant is one sweep divergence (see api.SweepVariant).
type SweepVariant = api.SweepVariant

// maxSweepVariants bounds the per-request fan-out; wider sweeps split
// into several requests (which share variant results through the
// content-addressed store anyway).
const maxSweepVariants = 32

// sweepJob is a validated, normalized sweep ready to execute.
type sweepJob struct {
	base      *job
	forkRound int
	// vars are the diverged jobs, one per variant; workers is inherited
	// from the base request (execution knob, not canonical). A variant's
	// key addresses its body: a hash of (base canonical, fork_round,
	// variant canonical). It deliberately does NOT collide with the
	// /v1/simulations key of the same parameters — a warm continuation
	// and a cold run are different computations with different bodies
	// (the warm one has no accepted line), and a later sweep sharing this
	// base, fork and overlay reuses it byte-for-byte.
	vars []*job
	key  string // whole-stream cache key
}

// sweepCanonical and sweepVariantCanonical are the key material; struct
// field order makes the JSON — and so the keys — deterministic.
type sweepCanonical struct {
	Base      canonical   `json:"base"`
	ForkRound int         `json:"fork_round"`
	Variants  []canonical `json:"variants"`
}

type sweepVariantCanonical struct {
	Base      canonical `json:"base"`
	ForkRound int       `json:"fork_round"`
	Variant   canonical `json:"variant"`
}

// validateSweep checks a sweep against the server limits, the base
// request rules and the warm-start divergence contract.
func (s *Server) validateSweep(req SweepRequest) (*sweepJob, *FieldError) {
	base, ferr := s.validate(req.Base)
	if ferr != nil {
		return nil, fieldErrf("base."+ferr.Field, "%s", ferr.Message)
	}
	d, _ := gossip.Lookup(base.can.Driver)
	if !d.WarmStart() {
		return nil, fieldErrf("base.driver",
			"driver %q is a multi-phase pipeline and cannot be warm-start forked (single-phase drivers only)", d.Name)
	}
	if ferr := inProcessOnly(base, "base"); ferr != nil {
		return nil, ferr
	}
	if req.ForkRound < 0 || req.ForkRound > maxRoundsCap {
		return nil, fieldErrf("fork_round", "fork_round %d outside [0, %d]", req.ForkRound, maxRoundsCap)
	}
	if len(req.Variants) == 0 {
		return nil, fieldErrf("variants", "a sweep needs at least one variant")
	}
	if len(req.Variants) > maxSweepVariants {
		return nil, fieldErrf("variants", "%d variants over the per-request cap %d", len(req.Variants), maxSweepVariants)
	}

	sj := &sweepJob{base: base, forkRound: req.ForkRound}
	cans := make([]canonical, 0, len(req.Variants))
	for i, v := range req.Variants {
		field := func(name string) string { return fmt.Sprintf("variants[%d].%s", i, name) }
		vcan := base.can
		vspec := base.spec
		if v.FaultSpec != nil {
			vcan.FaultSpec = ""
			vspec = nil
			if strings.TrimSpace(*v.FaultSpec) != "" {
				parsed, err := adversity.ParseSpec(*v.FaultSpec)
				if err != nil {
					return nil, fieldErrf(field("fault_spec"), "%v", err)
				}
				if !parsed.Empty() {
					vspec = parsed
					vcan.FaultSpec = parsed.String()
				}
			}
		}
		if v.MaxRounds != nil {
			if *v.MaxRounds < 0 || *v.MaxRounds > maxRoundsCap {
				return nil, fieldErrf(field("max_rounds"), "max_rounds %d outside [0, %d]", *v.MaxRounds, maxRoundsCap)
			}
			if *v.MaxRounds != 0 && *v.MaxRounds < req.ForkRound {
				return nil, fieldErrf(field("max_rounds"), "max_rounds %d lands before fork_round %d", *v.MaxRounds, req.ForkRound)
			}
			vcan.MaxRounds = *v.MaxRounds
		}
		if v.MaxInPerRound != nil {
			if !d.AcceptsKey("max_in_per_round") {
				return nil, fieldErrf(field("max_in_per_round"),
					"driver %q does not accept \"max_in_per_round\" (accepted keys: %s)", d.Name, strings.Join(d.RequestKeys(), ", "))
			}
			if *v.MaxInPerRound < 0 {
				return nil, fieldErrf(field("max_in_per_round"), "max_in_per_round %d must be >= 0", *v.MaxInPerRound)
			}
			vcan.MaxInPerRound = *v.MaxInPerRound
		}
		sj.vars = append(sj.vars, &job{
			can:     vcan,
			spec:    vspec,
			workers: base.workers,
			key:     hashKey(sweepVariantCanonical{Base: base.can, ForkRound: req.ForkRound, Variant: vcan}),
		})
		cans = append(cans, vcan)
	}
	sj.key = hashKey(sweepCanonical{Base: base.can, ForkRound: req.ForkRound, Variants: cans})
	return sj, nil
}

// serveSweep serves POST /v1/sweeps on the shared cache/coalesce/leader
// loop, keyed on the sweep-level key: identical concurrent sweeps
// coalesce onto one execution and completed sweeps replay
// byte-identically from the cache tiers. The base request's timeout and
// progress_points govern the whole sweep.
func (s *Server) serveSweep(w http.ResponseWriter, _ *http.Request, ctx context.Context, _ SweepRequest, sj *sweepJob) {
	acc := accepted(sj.base.can.Driver, sj.key)
	acc.Variants, acc.ForkRound = len(sj.vars), &sj.forkRound
	s.serveJob(w, ctx, stream{
		accepted: acc,
		timeout:  sj.base.timeout,
		noun:     "sweep",
		points:   sj.base.points,
		executed: &s.met.sweeps,
		chunks:   2*len(sj.vars) + 1,
		job:      sj,
	})
}

// produce computes the /v1/sweeps stream: fork the shared prefix on the
// leader's slot, release it, resume every variant in parallel on its own
// pool slot, and emit the per-variant sections in index order followed
// by the sweep_result tally. Completed variant bodies are
// content-addressed into the cache tiers, so overlapping sweeps — and
// replays after an eviction or a restart — skip the resume.
func (sj *sweepJob) produce(s *Server, release func(), emit func(chunk)) {
	csr, err := s.topology(sj.base.can)
	if err != nil {
		emit(chunk{line: errorLine(fmt.Sprintf("building graph: %v", err)), failed: true})
		return
	}
	base := sj.base.driverOptions()
	base.CSR = csr
	prefix, err := gossip.Fork(sj.base.can.Driver, base, sj.forkRound)
	release()
	if err != nil {
		emit(chunk{line: errorLine(fmt.Sprintf("forking warm prefix: %v", err)), failed: true})
		return
	}

	// A nondet tail (a drain abort, a panic) is an error event that is
	// streamed but never content-addressed, and it fails the sweep; a
	// deterministic variant error is one section of a sweep that still
	// completes.
	results := make([]chan chunk, len(sj.vars))
	for i := range sj.vars {
		results[i] = make(chan chunk, 1)
		go func(i int, v *job) {
			if tail, ok := s.lookup(v.key); ok {
				results[i] <- chunk{line: tail}
				return
			}
			if err := s.pool.Acquire(s.drainCtx); err != nil {
				results[i] <- chunk{line: errorLine("server is draining; variant aborted"), nondet: true, failed: true}
				return
			}
			res, err := guard(func() (gossip.DriverResult, error) { return prefix.Resume(v.driverOptions()) })
			s.pool.Release()
			tail, nondet := jobTail(res, err), isTransient(err)
			if !nondet {
				s.publish(v.key, tail)
			}
			results[i] <- chunk{line: tail, nondet: nondet, failed: nondet}
		}(i, sj.vars[i])
	}

	var totalRounds int64
	completed, errs := 0, 0
	for i, v := range sj.vars {
		emit(chunk{line: variantLine(i, v.key)})
		c := <-results[i]
		rounds, isErr := tailSummary(c.line)
		if isErr {
			errs++
		} else {
			completed++
			totalRounds += rounds
		}
		emit(c)
	}
	emit(chunk{line: sweepResultLine(len(sj.vars), completed, errs, totalRounds), rounds: totalRounds})
}

func variantLine(index int, key string) []byte {
	return mustLine(api.Variant{SchemaVersion: SchemaVersion, Event: "variant", Index: index, RequestKey: key})
}

func sweepResultLine(variants, completed, errs int, totalRounds int64) []byte {
	return mustLine(api.SweepResult{
		SchemaVersion: SchemaVersion,
		Event:         "sweep_result",
		Variants:      variants,
		Completed:     completed,
		Errors:        errs,
		TotalRounds:   totalRounds,
	})
}

// tailSummary classifies a stored variant tail by its terminal event —
// needed because a tail replayed from the content store arrives as
// opaque bytes.
func tailSummary(tail []byte) (rounds int64, isErr bool) {
	trimmed := bytes.TrimRight(tail, "\n")
	last := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	var ev api.Event
	if err := json.Unmarshal(last, &ev); err != nil {
		return 0, true
	}
	if ev.Event == "result" && ev.Result != nil {
		return int64(ev.Result.Rounds), false
	}
	return 0, true
}
