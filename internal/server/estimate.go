package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sync"

	"gossip/internal/curve"
	"gossip/internal/estimate"
	"gossip/internal/gossip"
	"gossip/internal/server/api"
)

// EstimateRequest is the JSON body of POST /v1/estimates; the struct
// lives in internal/server/api with the rest of the /v1 envelopes.
type EstimateRequest = api.EstimateRequest

// maxObservedPoints bounds a submitted curve; maxEstimateCandidates
// bounds the coarse lattice a single request may fan out.
const (
	maxObservedPoints      = 4096
	maxEstimateCandidates  = 128
	maxEstimateScales      = 4
	maxEstimateScale       = 8
	maxEstimateRefine      = 4
	defaultEstimateRefine  = 2
	defaultEstimateLossCap = 1.0 // loss_max must stay below certain spread
)

// errEstimateAborted is the drain abort inside an estimate: a candidate
// that never got its slot.
var errEstimateAborted = transient{errors.New("server is draining; estimate aborted")}

// estimateJob is a validated, normalized estimate request.
type estimateJob struct {
	base     *job
	ref      *job // nil when the request carried an observed curve
	observed curve.Curve
	grid     estimate.Grid
	coarse   int // len(grid.Candidates())
	refine   int
	key      string
}

// estimateCanonical is the key material of an estimate: the base and
// reference canonical forms, the observed curve, the normalized grid
// and the refinement depth. Struct field order makes the JSON — and so
// the key — deterministic.
type estimateCanonical struct {
	Base      canonical        `json:"base"`
	Observed  []api.CurvePoint `json:"observed"`
	Reference *canonical       `json:"reference"`
	Grid      api.EstimateGrid `json:"grid"`
	Refine    int              `json:"refine"`
}

// validateEstimate checks an estimate against the server limits and the
// curve/grid contracts, returning the normalized job or a field-level
// error. Like validate, it never panics on any input — FuzzEstimateValidate
// pins that.
func (s *Server) validateEstimate(req EstimateRequest) (*estimateJob, *FieldError) {
	base, ferr := s.validate(req.Base)
	if ferr != nil {
		return nil, fieldErrf("base."+ferr.Field, "%s", ferr.Message)
	}
	d, _ := gossip.Lookup(base.can.Driver)
	if !d.WarmStart() {
		return nil, fieldErrf("base.driver",
			"driver %q is a multi-phase pipeline and cannot be fitted (single-phase drivers only)", d.Name)
	}
	if base.can.FaultSpec != "" {
		return nil, fieldErrf("base.fault_spec", "an estimate's base must be benign; the candidates supply the faults")
	}
	if ferr := inProcessOnly(base, "base"); ferr != nil {
		return nil, ferr
	}
	nodes := graphSpecNodes(base.can.Graph)

	ej := &estimateJob{base: base}
	switch {
	case len(req.Observed) > 0 && req.Reference != nil:
		return nil, fieldErrf("observed", "set exactly one of observed and reference, not both")
	case len(req.Observed) == 0 && req.Reference == nil:
		return nil, fieldErrf("observed", "an estimate needs an observed curve or a reference job to simulate one")
	case req.Reference != nil:
		ref, ferr := s.validate(*req.Reference)
		if ferr != nil {
			return nil, fieldErrf("reference."+ferr.Field, "%s", ferr.Message)
		}
		rd, _ := gossip.Lookup(ref.can.Driver)
		if !rd.WarmStart() {
			return nil, fieldErrf("reference.driver",
				"driver %q reports no informed curve (single-phase drivers only)", rd.Name)
		}
		if ferr := inProcessOnly(ref, "reference"); ferr != nil {
			return nil, ferr
		}
		ej.ref = ref
	default:
		if len(req.Observed) < 2 {
			return nil, fieldErrf("observed", "an observed curve needs at least 2 points")
		}
		if len(req.Observed) > maxObservedPoints {
			return nil, fieldErrf("observed", "%d points over the cap %d", len(req.Observed), maxObservedPoints)
		}
		prev := curve.Point{Round: -1}
		for i, p := range req.Observed {
			field := fmt.Sprintf("observed[%d]", i)
			if p.Round < 0 || p.Round > maxRoundsCap {
				return nil, fieldErrf(field, "round %d outside [0, %d]", p.Round, maxRoundsCap)
			}
			if p.Round <= prev.Round {
				return nil, fieldErrf(field, "rounds must be strictly increasing (%d after %d)", p.Round, prev.Round)
			}
			if math.IsNaN(p.Informed) || math.IsInf(p.Informed, 0) {
				return nil, fieldErrf(field, "informed count must be finite")
			}
			if p.Informed <= 0 {
				return nil, fieldErrf(field, "informed count %v must be positive", p.Informed)
			}
			if p.Informed < prev.Informed {
				return nil, fieldErrf(field, "informed counts must be non-decreasing (%v after %v)", p.Informed, prev.Informed)
			}
			if p.Informed > float64(nodes) {
				return nil, fieldErrf(field, "informed count %v exceeds the %d nodes the base graph builds", p.Informed, nodes)
			}
			prev = curve.Point{Round: p.Round, Informed: p.Informed}
			ej.observed = append(ej.observed, prev)
		}
	}

	grid := estimate.DefaultGrid(nodes)
	if req.Grid != nil {
		g := *req.Grid
		if g.LossMax != 0 || g.LossSteps != 0 {
			if math.IsNaN(g.LossMax) || g.LossMax < 0 || g.LossMax >= defaultEstimateLossCap {
				return nil, fieldErrf("grid.loss_max", "loss_max %v outside [0, 1)", g.LossMax)
			}
			if g.LossSteps < 1 || g.LossSteps > 16 {
				return nil, fieldErrf("grid.loss_steps", "loss_steps %d outside [1, 16]", g.LossSteps)
			}
			grid.LossMax, grid.LossSteps = g.LossMax, g.LossSteps
		}
		if g.ChurnMax != 0 || g.ChurnSteps != 0 {
			if g.ChurnMax < 0 || g.ChurnMax >= nodes {
				return nil, fieldErrf("grid.churn_max", "churn_max %d outside [0, %d)", g.ChurnMax, nodes)
			}
			if g.ChurnSteps < 1 || g.ChurnSteps > 8 {
				return nil, fieldErrf("grid.churn_steps", "churn_steps %d outside [1, 8]", g.ChurnSteps)
			}
			grid.ChurnMax, grid.ChurnSteps = g.ChurnMax, g.ChurnSteps
		}
		if len(g.Scales) > 0 {
			if len(g.Scales) > maxEstimateScales {
				return nil, fieldErrf("grid.scales", "%d scales over the cap %d", len(g.Scales), maxEstimateScales)
			}
			for i, sc := range g.Scales {
				if sc < 1 || sc > maxEstimateScale {
					return nil, fieldErrf("grid.scales", "scale %d outside [1, %d]", sc, maxEstimateScale)
				}
				if i > 0 && sc <= g.Scales[i-1] {
					return nil, fieldErrf("grid.scales", "scales must be strictly increasing")
				}
				if base.can.Graph.Latency*sc > 1<<20 {
					return nil, fieldErrf("grid.scales", "scale %d lifts the base latency %d over 2^20", sc, base.can.Graph.Latency)
				}
			}
			grid.Scales = append([]int(nil), g.Scales...)
		}
	}
	// The defaults always pass these bounds; re-check after overrides.
	ej.coarse = len(grid.Candidates())
	if ej.coarse > maxEstimateCandidates {
		return nil, fieldErrf("grid", "%d coarse candidates over the cap %d", ej.coarse, maxEstimateCandidates)
	}
	for _, sc := range grid.Scales {
		if base.can.Graph.Latency*sc > 1<<20 {
			return nil, fieldErrf("grid.scales", "scale %d lifts the base latency %d over 2^20", sc, base.can.Graph.Latency)
		}
	}
	ej.grid = grid

	ej.refine = defaultEstimateRefine
	if req.Refine != nil {
		if *req.Refine < 0 || *req.Refine > maxEstimateRefine {
			return nil, fieldErrf("refine", "refine %d outside [0, %d]", *req.Refine, maxEstimateRefine)
		}
		ej.refine = *req.Refine
	}

	can := estimateCanonical{
		Base:   base.can,
		Grid:   api.EstimateGrid{LossMax: grid.LossMax, LossSteps: grid.LossSteps, ChurnMax: grid.ChurnMax, ChurnSteps: grid.ChurnSteps, Scales: grid.Scales},
		Refine: ej.refine,
	}
	for _, p := range ej.observed {
		can.Observed = append(can.Observed, api.CurvePoint{Round: p.Round, Informed: p.Informed})
	}
	if ej.ref != nil {
		refCan := ej.ref.can
		can.Reference = &refCan
	}
	ej.key = hashKey(can)
	return ej, nil
}

// serveEstimate serves POST /v1/estimates on the shared
// cache/coalesce/leader loop. Estimate bodies are served verbatim
// (their progress events are scored candidates, not curve points, so
// progress_points sampling does not apply). The base request's timeout
// governs the whole estimate.
func (s *Server) serveEstimate(w http.ResponseWriter, _ *http.Request, ctx context.Context, _ EstimateRequest, ej *estimateJob) {
	s.serveJob(w, ctx, stream{
		accepted: accepted(ej.base.can.Driver, ej.key),
		timeout:  ej.base.timeout,
		noun:     "estimate",
		executed: &s.met.estimates,
		// Generous: every eval emits one chunk, plus the terminal one.
		chunks: ej.coarse + 9*(ej.refine+1) + 8,
		job:    ej,
	})
}

// produce computes the /v1/estimates stream: release the leader's slot,
// resolve the observation (simulating the reference if needed), then run
// the coarse-to-fine fit, every simulation on a pool slot of its own.
func (ej *estimateJob) produce(s *Server, release func(), emit func(chunk)) {
	fail := func(prefix string, err error) {
		emit(chunk{line: errorLine(prefix + err.Error()), nondet: isTransient(err), failed: true})
	}
	// The reference may wait on another request's flight, whose leader
	// could be queued for the very slot this leader holds.
	release()
	observed := ej.observed
	if ej.ref != nil {
		cv, err := s.estimateEvalJob(ej.ref)
		if err != nil {
			fail("reference: ", err)
			return
		}
		if len(cv) == 0 {
			fail("", errors.New("reference simulation produced no informed curve"))
			return
		}
		observed = cv
	}

	nodes := graphSpecNodes(ej.base.can.Graph)
	protected := ej.base.can.Source

	// Warm prefixes are per latency scale (the one candidate axis a fork
	// cannot diverge on), created lazily under a lock; creation is a
	// deterministic function of the scale, so the lazy order never shows.
	var mu sync.Mutex
	prefixes := map[int]*gossip.WarmPrefix{}
	prefixErrs := map[int]error{}
	forkFor := func(scale int) (*gossip.WarmPrefix, error) {
		mu.Lock()
		defer mu.Unlock()
		if err, ok := prefixErrs[scale]; ok {
			return nil, err
		}
		if p, ok := prefixes[scale]; ok {
			return p, nil
		}
		can := ej.base.can
		can.Graph.Latency *= scale
		csr, err := s.topology(can)
		if err == nil {
			base := ej.base.driverOptions()
			base.CSR = csr
			var p *gossip.WarmPrefix
			p, err = gossip.Fork(ej.base.can.Driver, base, estimate.ChurnLeave)
			if err == nil {
				prefixes[scale] = p
				return p, nil
			}
		}
		prefixErrs[scale] = err
		return nil, err
	}

	evalCold := func(c estimate.Candidate) (curve.Curve, error) {
		return s.estimateEvalJob(s.candidateJob(ej.base, c, nodes, protected))
	}
	evalWarm := func(c estimate.Candidate) (curve.Curve, error) {
		if err := s.pool.Acquire(s.drainCtx); err != nil {
			return nil, errEstimateAborted
		}
		defer s.pool.Release()
		p, err := forkFor(c.Scale)
		if err != nil {
			return nil, err
		}
		opts := ej.base.driverOptions()
		opts.Adversity = c.Spec(nodes, protected)
		res, err := p.Resume(opts)
		if err != nil {
			return nil, err
		}
		return curve.FromInformedAt(res.InformedAt), nil
	}

	evaluated := 0
	res, err := estimate.Fit(estimate.Config{
		Observed: observed,
		Grid:     ej.grid,
		Refine:   ej.refine,
		EvalCold: evalCold,
		EvalWarm: evalWarm,
		Batch:    s.estimateBatch,
		OnEval: func(e estimate.Eval) {
			evaluated++
			emit(chunk{line: estimateProgressLine(e, evaluated)})
		},
	})
	if err != nil {
		fail("", err)
		return
	}
	emit(chunk{line: estimateLine(observed, res, nodes, protected)})
}

// estimateBatch fans one fit stage across the pool, one goroutine (and
// one slot, acquired inside eval) per candidate, outcomes in index
// order. A drain abort or a panic anywhere fails the whole batch as
// transient.
func (s *Server) estimateBatch(_ string, cands []estimate.Candidate, eval func(estimate.Candidate) (curve.Curve, error)) ([]estimate.BatchOut, error) {
	outs := make([]estimate.BatchOut, len(cands))
	var wg sync.WaitGroup
	for i, c := range cands {
		wg.Add(1)
		go func(i int, c estimate.Candidate) {
			defer wg.Done()
			cv, err := guard(func() (curve.Curve, error) { return eval(c) })
			outs[i] = estimate.BatchOut{Curve: cv, Err: err}
		}(i, c)
	}
	wg.Wait()
	for _, o := range outs {
		if isTransient(o.Err) {
			return nil, o.Err
		}
	}
	return outs, nil
}

// candidateJob maps a candidate onto the exact /v1/simulations job it
// parameterizes — same canonical form, same request key — so candidate
// evaluations share cache entries with direct simulation requests.
func (s *Server) candidateJob(base *job, c estimate.Candidate, nodes, protected int) *job {
	can := base.can
	can.Graph.Latency = base.can.Graph.Latency * c.Scale
	spec := c.Spec(nodes, protected)
	if spec != nil {
		can.FaultSpec = spec.String()
	}
	jb := &job{can: can, workers: base.workers, timeout: base.timeout, points: maxProgressPoints, spec: spec}
	jb.key = hashKey(can)
	return jb
}

// estimateEvalJob runs one simulation job for the estimator as that
// job's one execution: it replays the body from the shared cache or from
// a concurrent identical request's flight, and otherwise leads the
// flight itself, executing and publishing the exact body
// /v1/simulations would have (byte-identical, so the entry serves both
// surfaces, deterministic errors included) before it wakes the
// followers.
func (s *Server) estimateEvalJob(jb *job) (curve.Curve, error) {
	body, f, err := s.settle(s.drainCtx, jb.key)
	if err != nil {
		return nil, errEstimateAborted
	}
	if body != nil {
		return curveFromBody(body)
	}
	// Resolved however the execution ends, a panic included, so no
	// follower waits on it forever.
	defer func() { s.resolve(jb.key, f, body) }()
	if err := s.pool.Acquire(s.drainCtx); err != nil {
		return nil, errEstimateAborted
	}
	defer s.pool.Release()
	if s.cfg.gate != nil {
		s.cfg.gate(jb.key)
	}
	res, nondet, err := s.execute(jb)
	if !nondet {
		body = append(acceptedLine(accepted(jb.can.Driver, jb.key)), jobTail(res, err)...)
		s.publish(jb.key, body)
	}
	if err != nil {
		return nil, err
	}
	return curve.FromInformedAt(res.InformedAt), nil
}

// curveFromBody re-derives the informed curve from a cached simulation
// body (full resolution — cached bodies are never sampled). A body that
// terminates in an error event yields that error.
func curveFromBody(body []byte) (curve.Curve, error) {
	var c curve.Curve
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	var last api.Event
	for sc.Scan() {
		line := sc.Bytes()
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("cached body: %w", err)
		}
		if ev.Event == "progress" {
			c = append(c, curve.Point{Round: ev.Round, Informed: float64(ev.Informed)})
		}
		last = ev
	}
	if last.Event == "error" && last.Error != nil {
		return nil, errors.New(last.Error.Message)
	}
	return c, nil
}

// estimateProgressLine renders one scored candidate. Scores can be +Inf
// (failed candidates), which JSON cannot carry — those events omit the
// score and carry the error string instead.
func estimateProgressLine(e estimate.Eval, evaluated int) []byte {
	p := api.EstimateProgress{
		SchemaVersion: SchemaVersion,
		Event:         "progress",
		Stage:         e.Stage,
		Candidate:     api.EstimateCandidate{Loss: e.Candidate.Loss, Churn: e.Candidate.Churn, Scale: e.Candidate.Scale},
		Err:           e.Err,
		Evaluated:     evaluated,
	}
	if !math.IsInf(e.Score, 0) && !math.IsNaN(e.Score) {
		sc := e.Score
		p.Score = &sc
	}
	return mustLine(p)
}

func estimateLine(observed curve.Curve, res *estimate.Result, nodes, protected int) []byte {
	faultSpec := ""
	if spec := res.Best.Spec(nodes, protected); spec != nil {
		faultSpec = spec.String()
	}
	return mustLine(api.Estimate{
		SchemaVersion: SchemaVersion,
		Event:         "estimate",
		Best:          api.EstimateCandidate{Loss: res.Best.Loss, Churn: res.Best.Churn, Scale: res.Best.Scale},
		FaultSpec:     faultSpec,
		Score:         res.Score,
		Residual: api.EstimateResidual{
			ICC:                res.Score,
			FinalInformedDelta: res.BestCurve.Final() - observed.Final(),
			RoundsDelta:        res.BestCurve.FinalRound() - observed.FinalRound(),
		},
		Candidates:  res.Evaluated,
		CoarseScore: res.CoarseScore,
	})
}
