package api

import (
	"encoding/json"
	"fmt"
)

// This file is the request half of the /v1 surface: one JobSpec struct
// describes a simulation everywhere a simulation is asked for — as the
// body of POST /v1/simulations, as the base of a sweep, and as the
// reference of an estimate — so driver/graph/seed/fault-spec validation
// lives in exactly one server-side path regardless of which endpoint
// the spec arrived through.

// JobSpec is one simulation job. `driver` and `graph` are required;
// everything else defaults. The driver-specific fields (source,
// variant, ell, k, d, known_latencies, …) are validated against the
// driver's machine-readable options schema (gossip.Driver.RequestKeys)
// — setting a field the driver does not read is a 400, not a silent
// no-op.
type JobSpec struct {
	// Driver is a name or alias from the gossip driver registry.
	Driver string `json:"driver"`
	// Graph names the generated topology.
	Graph GraphSpec `json:"graph"`
	// Seed drives all randomness (graph generation and protocol); it is
	// the determinism anchor the response cache is keyed on.
	Seed uint64 `json:"seed"`
	// Workers shards intra-round simulation; results are bit-identical
	// for any value, so it is an execution knob excluded from the cache
	// key.
	Workers int `json:"workers,omitempty"`
	// Shards distributes the job across that many worker gossipd
	// processes (0 = run in this process; otherwise >= 2, at most the
	// fleet's worker count). Like workers, results are bit-identical for
	// any value, so it is an execution knob excluded from the cache key.
	// Requires a fleet (-peers) and a distributable driver.
	Shards int `json:"shards,omitempty"`
	// Transport selects the execution fabric: "" or "sim" is the
	// deterministic calendar engine; "chan" runs the same protocol code
	// on a real in-process goroutine mesh (gossip.RunNet over
	// transport.ChanMesh). Like workers and shards it is an execution
	// knob excluded from the cache key — but a real-transport run is
	// nondeterministic, so "chan" jobs additionally bypass the cache in
	// both directions: they never replay a memoized body and their own
	// results are never memoized. Requires a real-transport driver (the
	// capability column of docs/DRIVERS.md: push-pull, flood) and a
	// benign, unsharded request.
	Transport string `json:"transport,omitempty"`
	// MaxRounds overrides the driver's horizon (0 = driver default).
	MaxRounds int `json:"max_rounds,omitempty"`
	// FaultSpec is the adversity DSL (see package adversity), e.g.
	// "loss=0.1;churn=3:10-20:amnesia;flap=0-1:5-9;crash=4:6,7".
	FaultSpec string `json:"fault_spec,omitempty"`
	// TimeoutMS bounds job execution (not queue wait). Absent means the
	// server default; zero or negative is a 400; larger than the server
	// maximum is clamped. Excluded from the cache key.
	TimeoutMS *int `json:"timeout_ms,omitempty"`
	// ProgressPoints caps how many progress events the stream carries
	// (the curve is sampled evenly, first and last change points always
	// kept). Absent means 32, the historical cap; the admissible range
	// is [2, 4096]. Bodies are cached at full resolution and sampled at
	// serve time, so this is an execution knob excluded from the cache
	// key: two requests differing only here share one execution.
	ProgressPoints *int `json:"progress_points,omitempty"`

	// Driver-specific options; see GET /v1/drivers for which driver
	// accepts which. Every key a driver's request_keys advertises is
	// settable here (pinned by TestRequestCoversDriverSchemas).
	Source         *int    `json:"source,omitempty"`
	Sources        []int   `json:"sources,omitempty"`
	Objective      *string `json:"objective,omitempty"`
	Variant        *string `json:"variant,omitempty"`
	Ell            *int    `json:"ell,omitempty"`
	K              *int    `json:"k,omitempty"`
	D              *int    `json:"d,omitempty"`
	Budget         *int    `json:"budget,omitempty"`
	KnownLatencies *bool   `json:"known_latencies,omitempty"`
	MaxInPerRound  *int    `json:"max_in_per_round,omitempty"`
	FaultTolerant  *bool   `json:"fault_tolerant,omitempty"`
	LBTimeout      *int    `json:"lb_timeout,omitempty"`
	SkipCheck      *bool   `json:"skip_check,omitempty"`
	SuspectAfter   *int    `json:"suspect_after,omitempty"`
	StableRounds   *int    `json:"stable_rounds,omitempty"`
}

// GraphSpec is the request form of graphgen.Spec.
type GraphSpec struct {
	// Family is one of graphgen.Families().
	Family string `json:"family"`
	// N follows the CLI -n semantics (per-side for dumbbell/gadget,
	// per-layer for ring); every family yields at least N nodes.
	N int `json:"n"`
	// Latency (0 = 1), P (0 = 0.3, er/gadget only) and Layers (0 = 6,
	// ring only) mirror the CLI flags.
	Latency int     `json:"latency,omitempty"`
	P       float64 `json:"p,omitempty"`
	Layers  int     `json:"layers,omitempty"`
}

// SweepRequest is the JSON body of POST /v1/sweeps: one base simulation
// plus mid-run parameter divergences. The server runs the base job once
// up to fork_round, freezes the engine there (gossip.Fork), and resumes
// the shared warm prefix once per variant — so a 16-variant sweep pays
// for the common prefix once instead of 16 times. The base must name a
// single-phase driver (push-pull, flood, dtg, superstep, rr); the
// multi-phase pipelines have no single engine to freeze and are a 400.
type SweepRequest struct {
	// Base is a complete simulation job spec: it defines the shared
	// prefix and every knob the variants do not override.
	Base JobSpec `json:"base"`
	// ForkRound is the round barrier the prefix is frozen at. The engine
	// freezes at the first processed round >= ForkRound (event-driven
	// rounds can jump); a fork past the end of the base run degenerates
	// to the finished run for every variant.
	ForkRound int `json:"fork_round"`
	// Variants are the divergences, applied from the fork round on. A
	// nil field inherits the base value; at least one variant required.
	Variants []SweepVariant `json:"variants"`
}

// SweepVariant overrides the divergence-safe knobs of the base request.
// Everything else — topology, seed, source, objective, protocol
// parameters — shaped the prefix and is frozen (see gossip.WarmPrefix).
type SweepVariant struct {
	// FaultSpec replaces the base fault schedule from the fork round on
	// (adversity DSL; "" clears it). Loss draws fresh per-variant random
	// streams; scheduled events dated before the fork round are skipped.
	FaultSpec *string `json:"fault_spec,omitempty"`
	// MaxRounds replaces the base horizon (0 = driver default). It must
	// not land before fork_round.
	MaxRounds *int `json:"max_rounds,omitempty"`
	// MaxInPerRound replaces the base in-degree cap, for drivers that
	// accept it.
	MaxInPerRound *int `json:"max_in_per_round,omitempty"`
}

// CurvePoint is one point of an observed cumulative informed curve
// submitted for estimation: Informed nodes were informed at or before
// Round. Rounds must be strictly increasing, counts finite, positive
// and non-decreasing.
type CurvePoint struct {
	Round    int     `json:"round"`
	Informed float64 `json:"informed"`
}

// EstimateGrid bounds the coarse search lattice. The zero value (and an
// absent grid) defaults per the graph size; see the README's
// "Estimating parameters" section for the defaults.
type EstimateGrid struct {
	// LossMax is the top of the loss axis; the coarse pass tries
	// LossSteps evenly spaced rates in [0, LossMax].
	LossMax   float64 `json:"loss_max,omitempty"`
	LossSteps int     `json:"loss_steps,omitempty"`
	// ChurnMax is the top of the churn axis (nodes cycling through
	// leave/rejoin); the coarse pass tries ChurnSteps evenly spaced
	// intensities in [0, ChurnMax].
	ChurnMax   int `json:"churn_max,omitempty"`
	ChurnSteps int `json:"churn_steps,omitempty"`
	// Scales lists the latency multipliers (conductance proxies) tried;
	// strictly increasing, each in [1, 8], at most 4.
	Scales []int `json:"scales,omitempty"`
}

// EstimateRequest is the JSON body of POST /v1/estimates: fit loss,
// churn and latency-scale parameters so that Base simulated under them
// reproduces the observed curve. Exactly one of Observed (a measured
// curve) and Reference (a job spec whose simulated curve becomes the
// observation — the ground-truth-recovery mode) must be set.
type EstimateRequest struct {
	// Base is the candidate template: the driver, topology, seed and
	// protocol options every candidate simulation runs with. It must be
	// benign (no fault_spec — the candidates supply the faults) and name
	// a warm-startable single-phase driver.
	Base JobSpec `json:"base"`
	// Observed is the measured cumulative informed curve to fit.
	Observed []CurvePoint `json:"observed,omitempty"`
	// Reference, when set instead of Observed, is simulated first and
	// its informed curve becomes the observation.
	Reference *JobSpec `json:"reference,omitempty"`
	// Grid bounds the coarse lattice (nil: sized from the graph).
	Grid *EstimateGrid `json:"grid,omitempty"`
	// Refine is how many halving refinement passes follow the coarse
	// grid (absent: 2; range [0, 4]).
	Refine *int `json:"refine,omitempty"`
}

// ErrorDetail is the one structured error shape of the /v1 surface: it
// is the 400 response body ({"error":{"field":…,"message":…}}) and,
// since schema 2, the payload of the stream-terminating "error" event.
// Field is set when the failure is attributable to one request field.
type ErrorDetail struct {
	Field   string `json:"field,omitempty"`
	Message string `json:"message"`
}

// Error makes *ErrorDetail a Go error so server-side validation can
// return it directly.
func (e *ErrorDetail) Error() string {
	if e.Field == "" {
		return e.Message
	}
	return e.Field + ": " + e.Message
}

// UnmarshalJSON accepts both the schema-2 object form and the schema-1
// bare string an old persisted stream carries in its error events.
func (e *ErrorDetail) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var msg string
		if err := json.Unmarshal(b, &msg); err != nil {
			return err
		}
		*e = ErrorDetail{Message: msg}
		return nil
	}
	type plain ErrorDetail // drop the method set to avoid recursing
	var p plain
	if err := json.Unmarshal(b, &p); err != nil {
		return fmt.Errorf("error detail: %w", err)
	}
	*e = ErrorDetail(p)
	return nil
}
