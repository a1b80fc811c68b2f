package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/server/api"
)

// Request is the JSON body of POST /v1/simulations. The struct itself —
// the shared /v1 job spec, also the base of sweeps and estimates —
// lives in internal/server/api; these aliases keep the server-side name
// every existing caller and test uses.
type Request = api.JobSpec

// GraphSpec is the request form of graphgen.Spec (see api.GraphSpec).
type GraphSpec = api.GraphSpec

// FieldError is a structured request-validation failure: which field
// was wrong and why. It is the one error schema of the /v1 surface
// (api.ErrorDetail): the 400 body {"error":{"field":…,"message":…}} and
// the payload of stream-terminating error events.
type FieldError = api.ErrorDetail

func fieldErrf(field, format string, args ...any) *FieldError {
	return &FieldError{Field: field, Message: fmt.Sprintf(format, args...)}
}

// canonical is the cache-key material: the request after defaulting and
// normalization, stripped of execution-only knobs (workers, timeout).
// Two requests with the same canonical form are the same deterministic
// computation and must produce byte-identical response bodies.
type canonical struct {
	Driver         string    `json:"driver"`
	Graph          GraphSpec `json:"graph"`
	Seed           uint64    `json:"seed"`
	MaxRounds      int       `json:"max_rounds"`
	FaultSpec      string    `json:"fault_spec"`
	Source         int       `json:"source"`
	Sources        []int     `json:"sources"`
	Objective      string    `json:"objective"`
	Variant        string    `json:"variant"`
	Ell            int       `json:"ell"`
	K              int       `json:"k"`
	D              int       `json:"d"`
	Budget         int       `json:"budget"`
	KnownLatencies bool      `json:"known_latencies"`
	MaxInPerRound  int       `json:"max_in_per_round"`
	FaultTolerant  bool      `json:"fault_tolerant"`
	LBTimeout      int       `json:"lb_timeout"`
	SkipCheck      bool      `json:"skip_check"`
	SuspectAfter   int       `json:"suspect_after"`
	StableRounds   int       `json:"stable_rounds"`
}

// graphSpec maps the canonical graph onto the generator's spec — the one
// place the request form meets graphgen.
func (c canonical) graphSpec() graphgen.Spec {
	return graphgen.Spec{
		Family:  c.Graph.Family,
		N:       c.Graph.N,
		Latency: c.Graph.Latency,
		P:       c.Graph.P,
		Layers:  c.Graph.Layers,
		Seed:    c.Seed,
	}
}

// job is a validated, normalized simulation request ready to execute.
type job struct {
	can canonical
	key string
	// transport is the execution fabric: "" = the calendar engine,
	// "chan" = a real goroutine mesh (nondeterministic; bypasses the
	// cache in both directions).
	transport string
	workers   int
	shards    int
	timeout   time.Duration
	points    int // progress_points: serve-time curve sampling cap
	spec      *adversity.Spec
}

// objectives maps the request-level objective names onto the registry's
// completion criteria.
var objectives = map[string]gossip.Objective{
	"broadcast":       gossip.Broadcast,
	"all-to-all":      gossip.AllToAll,
	"local-broadcast": gossip.LocalBroadcast,
}

func objectiveNames() []string {
	out := make([]string, 0, len(objectives))
	for k := range objectives {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// validate checks a request against the server limits and the driver's
// options schema, returning the normalized job or a field-level error.
// It never panics on any input (the fault-spec DSL parse included).
func (s *Server) validate(req Request) (*job, *FieldError) {
	d, ok := gossip.Lookup(req.Driver)
	if !ok {
		return nil, fieldErrf("driver", "unknown driver %q (have %s)",
			req.Driver, strings.Join(gossip.Names(), ", "))
	}

	g := req.Graph
	g.Family = strings.ToLower(strings.TrimSpace(g.Family))
	if !knownFamily(g.Family) {
		return nil, fieldErrf("graph.family", "unknown family %q (have %s)",
			req.Graph.Family, strings.Join(graphgen.Families(), ", "))
	}
	if g.N < 2 || g.N > s.cfg.MaxN {
		return nil, fieldErrf("graph.n", "n %d outside [2, %d]", g.N, s.cfg.MaxN)
	}
	if g.Latency < 0 || g.Latency > 1<<20 {
		return nil, fieldErrf("graph.latency", "latency %d outside [0, 2^20]", g.Latency)
	}
	if g.Latency == 0 {
		g.Latency = 1
	}
	if g.P < 0 || g.P > 1 {
		return nil, fieldErrf("graph.p", "p %v outside [0, 1]", g.P)
	}
	if g.Layers < 0 || g.Layers > 64 {
		return nil, fieldErrf("graph.layers", "layers %d outside [0, 64]", g.Layers)
	}
	// Zero the parameters the family ignores so the canonical form (and
	// therefore the cache key) does not split on irrelevant fields.
	switch g.Family {
	case "er", "gadget":
		if g.P == 0 {
			g.P = 0.3
		}
	default:
		g.P = 0
	}
	if g.Family == "ring" {
		if g.Layers == 0 {
			g.Layers = 6
		}
	} else {
		g.Layers = 0
	}
	// Bound what the family actually builds, not just the n parameter:
	// a ring multiplies n by layers, a dumbbell doubles it.
	if built := graphSpecNodes(g); built > s.cfg.MaxN {
		return nil, fieldErrf("graph.n", "%s with n=%d builds %d nodes, over the server cap %d",
			g.Family, g.N, built, s.cfg.MaxN)
	}

	if req.Workers < 0 || req.Workers > maxWorkers {
		return nil, fieldErrf("workers", "workers %d outside [0, %d]", req.Workers, maxWorkers)
	}
	if req.MaxRounds < 0 || req.MaxRounds > maxRoundsCap {
		return nil, fieldErrf("max_rounds", "max_rounds %d outside [0, %d]", req.MaxRounds, maxRoundsCap)
	}

	timeout := s.cfg.DefaultTimeout
	if req.TimeoutMS != nil {
		if *req.TimeoutMS <= 0 {
			return nil, fieldErrf("timeout_ms", "timeout_ms %d must be positive (omit it for the server default)", *req.TimeoutMS)
		}
		timeout = time.Duration(*req.TimeoutMS) * time.Millisecond
		if timeout > s.cfg.MaxTimeout {
			timeout = s.cfg.MaxTimeout
		}
	}

	points := defaultProgressPoints
	if req.ProgressPoints != nil {
		if *req.ProgressPoints < 2 || *req.ProgressPoints > maxProgressPoints {
			return nil, fieldErrf("progress_points", "progress_points %d outside [2, %d]", *req.ProgressPoints, maxProgressPoints)
		}
		points = *req.ProgressPoints
	}

	var spec *adversity.Spec
	faultSpec := ""
	if strings.TrimSpace(req.FaultSpec) != "" {
		parsed, err := adversity.ParseSpec(req.FaultSpec)
		if err != nil {
			return nil, fieldErrf("fault_spec", "%v", err)
		}
		if !parsed.Empty() {
			spec = parsed
			faultSpec = parsed.String() // normalized DSL rendering
		}
	}

	can := canonical{
		Driver:    d.Name,
		Graph:     g,
		Seed:      req.Seed,
		MaxRounds: req.MaxRounds,
		FaultSpec: faultSpec,
	}
	if ferr := applyDriverFields(d, req, &can); ferr != nil {
		return nil, ferr
	}

	if req.Shards != 0 {
		if req.Shards < 2 {
			return nil, fieldErrf("shards", "shards %d must be 0 (run in-process) or >= 2", req.Shards)
		}
		workers := s.shardWorkers()
		if len(workers) == 0 {
			return nil, fieldErrf("shards", "distributed execution needs a fleet (start gossipd with -peers/-advertise)")
		}
		if req.Shards > len(workers) {
			return nil, fieldErrf("shards", "shards %d exceeds the fleet's %d workers", req.Shards, len(workers))
		}
		if !d.Distributable {
			return nil, fieldErrf("shards", "driver %q does not support distributed execution (distributable: %s)", d.Name, strings.Join(gossip.DistributableNames(), ", "))
		}
		if can.MaxInPerRound > 0 {
			return nil, fieldErrf("shards", "distributed execution does not support max_in_per_round")
		}
	}

	// The transport knob is execution-only, like workers and shards: it
	// never reaches the canonical form. "chan" runs the job for real
	// (gossip.RunNet), which supports exactly what the net mode supports
	// — a real-transport driver, a benign schedule, one process.
	transport := strings.ToLower(strings.TrimSpace(req.Transport))
	switch transport {
	case "", "sim":
		transport = ""
	case "chan":
		if _, err := gossip.RealTransport(d.Name); err != nil {
			return nil, fieldErrf("transport", "%v", err)
		}
		if req.Shards != 0 {
			return nil, fieldErrf("transport", "transport \"chan\" runs in one process; it cannot be combined with shards")
		}
		if spec != nil {
			return nil, fieldErrf("transport", "transport \"chan\" does not support fault_spec (the real fabric supplies its own adversity)")
		}
		if can.MaxInPerRound > 0 {
			return nil, fieldErrf("transport", "transport \"chan\" does not support max_in_per_round")
		}
		if can.Objective != "" && can.Objective != "broadcast" {
			return nil, fieldErrf("transport", "transport \"chan\" completion is broadcast-only, not %q", can.Objective)
		}
	default:
		return nil, fieldErrf("transport", "unknown transport %q (have sim, chan)", req.Transport)
	}

	jb := &job{can: can, transport: transport, workers: req.Workers, shards: req.Shards, timeout: timeout, points: points, spec: spec}
	jb.key = hashKey(can)
	return jb, nil
}

// inProcessOnly rejects the execution knobs that pick a fabric other
// than this process's calendar engine. Sweeps and estimates fork and
// resume in-process; accepting shards or transport there would silently
// ignore them.
func inProcessOnly(jb *job, prefix string) *FieldError {
	if jb.shards != 0 {
		return fieldErrf(prefix+".shards", "sweeps and estimates run in-process on the calendar engine; shards is not supported")
	}
	if jb.transport != "" {
		return fieldErrf(prefix+".transport", "sweeps and estimates run in-process on the calendar engine; transport %q is not supported", jb.transport)
	}
	return nil
}

// applyDriverFields moves the driver-specific request fields into the
// canonical form, rejecting any field the driver's schema does not
// declare and any out-of-range value. Node ids are bounded by the
// family's built node count (graphgen.Spec.MinNodes — e.g. a dumbbell
// with n=8 has 16 nodes), not the raw n parameter.
func applyDriverFields(d *gossip.Driver, req Request, can *canonical) *FieldError {
	reject := func(field string) *FieldError {
		return fieldErrf(field, "driver %q does not accept %q (accepted keys: %s)",
			d.Name, field, strings.Join(d.RequestKeys(), ", "))
	}
	nonNeg := func(field string, set *int, dst *int) *FieldError {
		if set == nil {
			return nil
		}
		if !d.AcceptsKey(field) {
			return reject(field)
		}
		if *set < 0 {
			return fieldErrf(field, "%s %d must be >= 0", field, *set)
		}
		*dst = *set
		return nil
	}
	nodes := graphSpecNodes(can.Graph)
	if req.Source != nil {
		if !d.AcceptsKey("source") {
			return reject("source")
		}
		if *req.Source < 0 || *req.Source >= nodes {
			return fieldErrf("source", "source %d outside [0, %d) (%s with n=%d builds %d nodes)",
				*req.Source, nodes, can.Graph.Family, can.Graph.N, nodes)
		}
		can.Source = *req.Source
	}
	if len(req.Sources) > 0 {
		if !d.AcceptsKey("sources") {
			return reject("sources")
		}
		for _, s := range req.Sources {
			if s < 0 || s >= nodes {
				return fieldErrf("sources", "source %d outside [0, %d)", s, nodes)
			}
		}
		can.Sources = append([]int(nil), req.Sources...)
	}
	if req.Objective != nil {
		if !d.AcceptsKey("objective") {
			return reject("objective")
		}
		if _, ok := objectives[*req.Objective]; !ok {
			return fieldErrf("objective", "unknown objective %q (have %s)",
				*req.Objective, strings.Join(objectiveNames(), ", "))
		}
		can.Objective = *req.Objective
	}
	if req.Variant != nil {
		if !d.AcceptsKey("variant") {
			return reject("variant")
		}
		if !slices.Contains(d.Variants, *req.Variant) {
			return fieldErrf("variant", "driver %q has no variant %q (have %s)",
				d.Name, *req.Variant, strings.Join(d.Variants, ", "))
		}
		can.Variant = *req.Variant
	}
	if ferr := nonNeg("ell", req.Ell, &can.Ell); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("k", req.K, &can.K); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("d", req.D, &can.D); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("budget", req.Budget, &can.Budget); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("max_in_per_round", req.MaxInPerRound, &can.MaxInPerRound); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("lb_timeout", req.LBTimeout, &can.LBTimeout); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("suspect_after", req.SuspectAfter, &can.SuspectAfter); ferr != nil {
		return ferr
	}
	if ferr := nonNeg("stable_rounds", req.StableRounds, &can.StableRounds); ferr != nil {
		return ferr
	}
	if req.KnownLatencies != nil {
		if !d.AcceptsKey("known_latencies") {
			return reject("known_latencies")
		}
		can.KnownLatencies = *req.KnownLatencies
	}
	if req.FaultTolerant != nil {
		if !d.AcceptsKey("fault_tolerant") {
			return reject("fault_tolerant")
		}
		can.FaultTolerant = *req.FaultTolerant
	}
	if req.SkipCheck != nil {
		if !d.AcceptsKey("skip_check") {
			return reject("skip_check")
		}
		can.SkipCheck = *req.SkipCheck
	}
	return nil
}

// graphSpecNodes is the built node count of a normalized GraphSpec (a
// lower bound only for gadget; see graphgen.Spec.MinNodes).
func graphSpecNodes(g GraphSpec) int {
	return canonical{Graph: g}.graphSpec().MinNodes()
}

func knownFamily(name string) bool {
	for _, f := range graphgen.Families() {
		if f == name {
			return true
		}
	}
	return false
}

// bodyVersionSalt folds the rendered-body generation into every cache
// key. The disk store persists bodies across restarts, so when the body
// format changes incompatibly (schema 2 moved error events to the
// structured form and caches curves at full resolution), salting the
// keys retires the previous generation's entries instead of replaying
// them in the old shape. Bump the suffix alongside api.SchemaVersion.
const bodyVersionSalt = "gossipd-body-v2\n"

// hashKey hashes key material — the canonical form of a simulation, a
// sweep, a sweep variant or an estimate — into the memoization key
// surfaced to clients as request_key. Struct field order makes the JSON
// — and so the key — deterministic.
func hashKey(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// key material contains only marshalable scalar fields
		panic(fmt.Sprintf("server: canonical key marshal: %v", err))
	}
	sum := sha256.Sum256(append([]byte(bodyVersionSalt), b...))
	return hex.EncodeToString(sum[:16])
}

// driverOptions maps the job onto the registry's option surface.
func (j *job) driverOptions() gossip.DriverOptions {
	return gossip.DriverOptions{
		Source:         j.can.Source,
		Sources:        j.can.Sources,
		Objective:      objectives[j.can.Objective], // "" maps to the zero value, Broadcast
		Variant:        j.can.Variant,
		Seed:           j.can.Seed,
		MaxRounds:      j.can.MaxRounds,
		Ell:            j.can.Ell,
		K:              j.can.K,
		D:              j.can.D,
		Budget:         j.can.Budget,
		KnownLatencies: j.can.KnownLatencies,
		MaxInPerRound:  j.can.MaxInPerRound,
		FaultTolerant:  j.can.FaultTolerant,
		LBTimeout:      j.can.LBTimeout,
		SkipCheck:      j.can.SkipCheck,
		SuspectAfter:   j.can.SuspectAfter,
		StableRounds:   j.can.StableRounds,
		ExecOptions: gossip.ExecOptions{
			Adversity: j.spec,
			Workers:   j.workers,
		},
	}
}
