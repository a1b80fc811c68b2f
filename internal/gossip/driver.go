package gossip

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// Objective selects what a dissemination run must achieve before it may
// stop.
type Objective int

const (
	// Broadcast is one-to-all: every node (or every survivor, under a
	// failure schedule) holds the source rumor. The default.
	Broadcast Objective = iota
	// AllToAll: every node holds every rumor.
	AllToAll
	// LocalBroadcast: every node holds each graph neighbor's rumor.
	LocalBroadcast
)

// Variant names a driver-specific protocol ablation. The empty string is
// always the driver's canonical form.
const (
	// VariantBlocking makes push-pull wait for each exchange to complete
	// before the next initiation (the footnote-3 ablation).
	VariantBlocking = "blocking"
	// VariantNonBlocking makes flood initiate every round instead of
	// store-and-forward waiting on each exchange.
	VariantNonBlocking = "nonblocking"
)

// ExecOptions is the execution surface of a run — engine knobs
// orthogonal to any protocol choice. It is embedded in DriverOptions, so
// a pipeline hands the whole surface to a phase (or rebases part of it)
// as one value; Go field promotion keeps opts.Workers / opts.Adversity /
// opts.CSR reads working.
type ExecOptions struct {
	// Workers shards intra-round simulation across goroutines (see
	// sim.Config.Workers); results are bit-identical for any value.
	Workers int
	// Adversity attaches a declarative fault schedule — message loss,
	// churn, link flaps, crash batches (see package adversity and
	// sim.Config.Adversity). Every registered driver accepts it; the
	// multi-phase pipelines rebase it between phases by the rounds
	// already consumed (Spec.Shift). It is the one failure model: when it
	// takes nodes down, completion is judged over survivors — nodes it
	// never permanently removes, including temporarily-churned nodes,
	// which must be informed after rejoining.
	Adversity *adversity.Spec
	// CSR is the topology, the only one anything below the registry sees.
	// A caller holding a CSR (the million-node path, where the
	// adjacency-map form is never materialized) sets it here; the entry
	// points that also accept a graph (Dispatch, PrepareDist) fill it in
	// with that graph's one CSR when it is nil, so dispatching on one
	// graph again converts and validates nothing again, and a pipeline
	// hands the one CSR to all of its phases.
	CSR *graph.CSR
}

// DriverOptions is the one option surface shared by every registered
// driver. Each driver documents (Driver.Options) which fields it reads;
// the rest are ignored. The zero value is a valid configuration for every
// driver: one-to-all from node 0 with defaulted horizons.
type DriverOptions struct {
	ExecOptions
	// Source is the rumor source for Broadcast objectives.
	Source graph.NodeID
	// Sources seeds several simultaneous sources (Broadcast objective
	// only); completion is judged against all of them.
	Sources []graph.NodeID
	// Objective selects the completion criterion (single-phase drivers).
	Objective Objective
	// Variant selects a protocol ablation; see the Variant* constants.
	Variant string
	// Seed drives all per-node randomness.
	Seed uint64
	// MaxRounds is the horizon (multi-phase pipelines: per phase).
	MaxRounds int
	// KnownLatencies selects the Section 4 model.
	KnownLatencies bool
	// D is the known weighted diameter; 0 engages guess-and-double in
	// the spanner/pattern pipelines.
	D int
	// Ell is the latency filter for dtg/superstep (0 = no filter).
	Ell int
	// K is the rr edge filter and budget parameter (0 = driver default).
	K int
	// Budget overrides the rr round budget when positive.
	Budget int
	// Spanner supplies rr's out-edge orientation; nil builds a default
	// Baswana-Sen spanner from Seed.
	Spanner *spanner.Spanner
	// MaxInPerRound caps accepted incoming initiations per node per
	// round (0 = unbounded).
	MaxInPerRound int
	// FaultTolerant switches the spanner pipeline to the Superstep
	// primitive with timeouts.
	FaultTolerant bool
	// LBTimeout is the superstep abandonment timer (0 = driver default
	// where fault tolerance demands one, else disabled).
	LBTimeout int
	// SkipCheck drops the Termination_Check accounting phase of the
	// spanner/pattern pipelines when D is known.
	SkipCheck bool
	// SuspectAfter is the election staleness window: rounds without
	// evidence of the leader before a node suspects it (0 = graph-derived
	// default).
	SuspectAfter int
	// StableRounds is the election decision window: rounds a node's
	// leader choice must survive unchanged to count as decided (0 =
	// graph-derived default).
	StableRounds int
	// Stop, when non-nil, additionally ends single-phase runs early.
	Stop sim.StopFunc
}

// DriverResult is the normalized outcome every driver reports: the
// union of sim.Result and BroadcastResult surfaced through one shape.
type DriverResult struct {
	// Rounds until the driver's completion criterion held.
	Rounds int
	// Completed is false when a horizon was hit first.
	Completed bool
	// Exchanges / Messages / Dropped / Delivered / RumorPayload are the
	// transport totals (multi-phase pipelines report Exchanges,
	// Dropped, Delivered and RumorPayload summed across phases;
	// Messages only where tracked).
	Exchanges    int64
	Messages     int64
	Dropped      int64
	Delivered    int64
	RumorPayload int64
	// InformedAt[u] is the first round u held the watched rumor, or -1;
	// nil for multi-phase pipelines, which have no single watched rumor.
	InformedAt []int
	// Winner names the faster arm of the auto/unified driver.
	Winner string
	// Sim is the underlying single-phase result, when there is one.
	Sim *sim.Result
	// Broadcast is the underlying multi-phase result, when there is one.
	Broadcast *BroadcastResult
}

// OptionDoc documents one DriverOptions field a driver consumes — the
// driver's options schema, rendered by CLI help and exposed as
// machine-readable request keys by gossipd.
type OptionDoc struct {
	Name string
	Doc  string
	// Keys are the machine-readable request-field names (snake_case, as
	// they appear in gossipd simulation requests) this option answers to.
	// Register validates them against RequestKeyVocabulary; an option
	// with no Keys is internal-only (e.g. Spanner) and cannot be set
	// through a request.
	Keys []string
}

// RequestKeyVocabulary is every machine-readable option key a driver may
// declare — the closed request-field namespace gossipd validates against.
// Keys here name DriverOptions fields one-to-one; "seed", "max_rounds"
// and "workers" are additionally accepted by every driver (the universal
// execution surface) and need not be re-declared.
func RequestKeyVocabulary() []string {
	out := make([]string, 0, len(requestKeyVocab))
	for k := range requestKeyVocab {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

var requestKeyVocab = map[string]bool{
	"source":           true,
	"sources":          true,
	"objective":        true,
	"variant":          true,
	"ell":              true,
	"k":                true,
	"d":                true,
	"budget":           true,
	"known_latencies":  true,
	"fault_spec":       true,
	"max_in_per_round": true,
	"fault_tolerant":   true,
	"lb_timeout":       true,
	"skip_check":       true,
	"suspect_after":    true,
	"stable_rounds":    true,
	"seed":             true,
	"max_rounds":       true,
	"workers":          true,
}

// universalRequestKeys are accepted by every driver without declaration:
// the execution knobs the engine itself consumes.
var universalRequestKeys = map[string]bool{
	"seed":       true,
	"max_rounds": true,
	"workers":    true,
}

// RequestKeys returns the sorted machine-readable request keys this
// driver accepts, including the universal execution keys.
func (d *Driver) RequestKeys() []string {
	set := map[string]bool{}
	for k := range universalRequestKeys {
		set[k] = true
	}
	for _, o := range d.Options {
		for _, k := range o.Keys {
			set[k] = true
		}
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// AcceptsKey reports whether the driver consumes the machine-readable
// request key — the request-validation question gossipd asks before
// forwarding a field into DriverOptions.
func (d *Driver) AcceptsKey(key string) bool {
	if universalRequestKeys[key] {
		return true
	}
	for _, o := range d.Options {
		for _, k := range o.Keys {
			if k == key {
				return true
			}
		}
	}
	return false
}

// Driver is one named dissemination protocol: a factory for its per-node
// protocol instances, its stop condition, and its options schema, behind
// a uniform Run. The root package's Disseminate, internal/experiments and
// the CLIs all select protocols through this registry.
type Driver struct {
	// Name is the canonical registry key.
	Name string
	// Aliases are accepted alternate spellings.
	Aliases []string
	// Description is a one-line summary for CLI help.
	Description string
	// Options is the schema: the DriverOptions fields this driver reads.
	Options []OptionDoc
	// Variants lists the admissible DriverOptions.Variant values besides
	// "", the canonical form.
	Variants []string
	// Distributable marks a driver whose runs may be sharded across
	// processes: single-phase (one Prepare, no pipeline state hand-off),
	// with a stop condition evaluable from replicated data and exchange
	// metadata limited to []int32 — the shape the shard wire format ships.
	Distributable bool
	// RealTransport marks a driver RunNet can execute on a real mesh: its
	// protocol spreads the source rumor with journal exchanges alone and
	// is complete when every node holds that rumor.
	RealTransport bool
	// Run executes the protocol on opts.CSR. Drivers that supply Prepare
	// may leave Run nil; Register derives it.
	Run func(opts DriverOptions) (DriverResult, error)
	// Prepare expands the options into the single sim.Run invocation the
	// driver amounts to, without executing it. Only single-phase drivers
	// have one; multi-phase pipelines (spanner, pattern, auto) leave it
	// nil. A non-nil Prepare is what makes a driver warm-startable: Fork
	// captures an engine snapshot from the prepared run and Resume
	// re-prepares a variant's factory/stop against the frozen state.
	Prepare func(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error)
}

// WarmStart reports whether the driver supports snapshot forking
// (Fork/Resume); equivalently, whether it is a single sim.Run.
func (d *Driver) WarmStart() bool { return d.Prepare != nil }

var drivers = map[string]*Driver{}

// Register adds d under its name and aliases; duplicate names and option
// keys outside RequestKeyVocabulary panic (registration is an init-time
// programming error, not a runtime state).
func Register(d *Driver) {
	for _, o := range d.Options {
		for _, k := range o.Keys {
			if !requestKeyVocab[k] {
				panic(fmt.Sprintf("gossip: driver %q option %q declares key %q outside the request vocabulary", d.Name, o.Name, k))
			}
		}
	}
	if d.Run == nil && d.Prepare != nil {
		d.Run = func(opts DriverOptions) (DriverResult, error) {
			cfg, factory, stop, err := d.Prepare(opts)
			if err != nil {
				return DriverResult{}, err
			}
			return fromSimResult(sim.Run(cfg, factory, stop))
		}
	}
	for _, name := range append([]string{d.Name}, d.Aliases...) {
		key := strings.ToLower(name)
		if _, dup := drivers[key]; dup {
			panic(fmt.Sprintf("gossip: duplicate driver %q", key))
		}
		drivers[key] = d
	}
}

// Lookup resolves a driver by name or alias (case-insensitive).
func Lookup(name string) (*Driver, bool) {
	d, ok := drivers[strings.ToLower(strings.TrimSpace(name))]
	return d, ok
}

// Names returns the sorted canonical driver names.
func Names() []string { return namesWhere(func(*Driver) bool { return true }) }

// namesWhere returns the sorted canonical names of the drivers keep
// accepts — the list a capability's refusal message quotes.
func namesWhere(keep func(*Driver) bool) []string {
	var out []string
	for key, d := range drivers {
		if key == strings.ToLower(d.Name) && keep(d) {
			out = append(out, d.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Dispatch runs the named driver on opts.CSR when it is set, otherwise on
// g converted once; with a CSR, g may be nil for every driver.
func Dispatch(name string, g *graph.Graph, opts DriverOptions) (DriverResult, error) {
	if err := topology(g, &opts); err != nil {
		return DriverResult{}, err
	}
	return run(name, opts)
}

// run is Dispatch below the registry, where opts.CSR is the topology:
// what a pipeline calls for each of its phases.
func run(name string, opts DriverOptions) (DriverResult, error) {
	d, ok := Lookup(name)
	if !ok {
		return DriverResult{}, fmt.Errorf("gossip: unknown driver %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return d.Run(opts)
}

var errNoTopology = errors.New("gossip: no topology (pass a graph or set ExecOptions.CSR)")

// topology is the one precedence rule of the entry points that accept a
// graph beside the options (Dispatch, PrepareDist): opts.CSR wins when
// set, otherwise it becomes g's one CSR.
func topology(g *graph.Graph, opts *DriverOptions) error {
	if opts.CSR == nil {
		if g == nil {
			return errNoTopology
		}
		opts.CSR = g.CSR()
	}
	return nil
}

// fromSimResult normalizes a single-phase simulation outcome.
func fromSimResult(res sim.Result, err error) (DriverResult, error) {
	if err != nil {
		return DriverResult{}, err
	}
	return DriverResult{
		Rounds:       res.Rounds,
		Completed:    res.Completed,
		Exchanges:    res.Exchanges,
		Messages:     res.Messages,
		Dropped:      res.Dropped,
		Delivered:    res.Delivered,
		RumorPayload: res.RumorPayload,
		InformedAt:   res.InformedAt,
		Sim:          &res,
	}, nil
}

// fromBroadcastResult normalizes a multi-phase pipeline outcome.
func fromBroadcastResult(res BroadcastResult, err error) (DriverResult, error) {
	if err != nil {
		return DriverResult{}, err
	}
	return DriverResult{
		Rounds:       res.Rounds,
		Completed:    res.Completed,
		Exchanges:    res.Exchanges,
		Dropped:      res.Dropped,
		Delivered:    res.Delivered,
		RumorPayload: res.RumorPayload,
		Broadcast:    &res,
	}, nil
}

// broadcastStop picks the stop condition for a Broadcast-objective run.
// Under a schedule that takes nodes down, completion is judged over
// survivors: crashes are permanent, but churn intervals can end, so the
// run must also inform every node that will rejoin — the same
// never-returns semantics the multi-phase pipelines use, keeping
// identical fault schedules comparable across drivers.
func broadcastStop(opts DriverOptions) sim.StopFunc {
	stopFor := func(s graph.NodeID) sim.StopFunc {
		if opts.Adversity.HasFailures() {
			return sim.StopAllSurvivorsInformed(s, opts.Adversity)
		}
		return sim.StopAllInformed(s)
	}
	if len(opts.Sources) > 0 {
		stops := make([]sim.StopFunc, len(opts.Sources))
		for i, s := range opts.Sources {
			stops[i] = stopFor(s)
		}
		return sim.StopAnd(stops...)
	}
	return stopFor(opts.Source)
}

// objectiveStop maps an Objective to its stop condition, composing any
// caller-supplied early stop.
func objectiveStop(opts DriverOptions) sim.StopFunc {
	var stop sim.StopFunc
	switch opts.Objective {
	case AllToAll:
		stop = sim.StopAllHaveAll()
	case LocalBroadcast:
		stop = sim.StopLocalBroadcast()
	default:
		stop = broadcastStop(opts)
	}
	if opts.Stop != nil {
		stop = sim.StopOr(opts.Stop, stop)
	}
	return stop
}

// objectiveMode maps an Objective to the rumor seeding mode.
func objectiveMode(opts DriverOptions) sim.RumorMode {
	if opts.Objective == Broadcast {
		return sim.OneToAll
	}
	return sim.AllToAll
}

func init() {
	Register(&Driver{
		Name:        "push-pull",
		Aliases:     []string{"pushpull"},
		Description: "random phone-call gossip: exchange with a uniform random neighbor every round (Theorem 29)",
		Options: []OptionDoc{
			{"Source/Sources", "watched rumor origin(s) for the Broadcast objective", []string{"source", "sources"}},
			{"Objective", "Broadcast (default), AllToAll or LocalBroadcast", []string{"objective"}},
			{"Variant", "\"blocking\" waits out each exchange before the next", []string{"variant"}},
			{"Adversity", "fault schedule: loss, churn, flaps, crash batches", []string{"fault_spec"}},
			{"MaxInPerRound", "bounded in-degree model of Daum et al.", []string{"max_in_per_round"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Variants: []string{VariantBlocking}, Distributable: true, RealTransport: true,
		Prepare: func(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
			// Slab-allocate the per-node protocol structs: one allocation
			// for the whole run instead of n — measurable at n=10⁶.
			var factory sim.Factory
			if opts.Variant == VariantBlocking {
				slab := make([]blockingPushPull, opts.CSR.N())
				factory = func(nv *sim.NodeView) sim.Protocol {
					p := &slab[nv.ID()]
					*p = blockingPushPull{PushPull: PushPull{nv: nv}}
					return p
				}
			} else {
				slab := make([]PushPull, opts.CSR.N())
				factory = func(nv *sim.NodeView) sim.Protocol {
					p := &slab[nv.ID()]
					*p = PushPull{nv: nv}
					return p
				}
			}
			// Push-pull reads no latency, so the model is always the known
			// one: it only spares the engine its discovery table.
			return sim.Config{
				CSR:            opts.CSR,
				Workers:        opts.Workers,
				Seed:           opts.Seed,
				MaxRounds:      opts.MaxRounds,
				KnownLatencies: true,
				Mode:           objectiveMode(opts),
				Source:         opts.Source,
				Sources:        opts.Sources,
				Adversity:      opts.Adversity,
				MaxInPerRound:  opts.MaxInPerRound,
			}, factory, objectiveStop(opts), nil
		},
	})
	Register(&Driver{
		Name:        "flood",
		Description: "push-only store-and-forward baseline of footnote 3 (blocking unless Variant=\"nonblocking\")",
		Options: []OptionDoc{
			{"Source", "rumor origin; only informed nodes act", []string{"source"}},
			{"Variant", "\"nonblocking\" initiates every round", []string{"variant"}},
			{"Adversity", "fault schedule: loss, churn, flaps, crash batches", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Variants: []string{VariantNonBlocking}, Distributable: true, RealTransport: true,
		Prepare: func(opts DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
			blocking := opts.Variant != VariantNonBlocking
			return sim.Config{
					CSR:       opts.CSR,
					Workers:   opts.Workers,
					Seed:      opts.Seed,
					MaxRounds: opts.MaxRounds,
					Mode:      sim.OneToAll,
					Source:    opts.Source,
					Adversity: opts.Adversity,
				}, func(nv *sim.NodeView) sim.Protocol {
					return NewFlood(nv, opts.Source, blocking)
				}, broadcastStop(opts), nil
		},
	})
	Register(&Driver{
		Name:        "dtg",
		Description: "ℓ-DTG deterministic tree gossip local broadcast (Algorithm 6), run to quiescence",
		Options: []OptionDoc{
			{"Ell", "latency filter defining G_ℓ (0 = all edges)", []string{"ell"}},
			{"Adversity", "fault schedule (DTG stalls on lost exchanges)", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Distributable: true,
		Prepare:       prepareDTG,
	})
	Register(&Driver{
		Name:        "superstep",
		Description: "randomized local broadcast primitive, optionally timeout-hardened (Section 7 extension)",
		Options: []OptionDoc{
			{"Ell", "latency filter defining G_ℓ (0 = all edges)", []string{"ell"}},
			{"LBTimeout", "abandon stalled exchanges after this many rounds", []string{"lb_timeout"}},
			{"Adversity", "fault schedule; timeouts recover from losses", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Distributable: true,
		Prepare:       prepareSuperstep,
	})
	Register(&Driver{
		Name:        "rr",
		Description: "round-robin broadcast over directed spanner out-edges (Algorithm 1 / Lemma 21)",
		Options: []OptionDoc{
			{"Spanner", "out-edge orientation (nil = build Baswana-Sen from Seed)", nil},
			{"K", "latency filter on out-edges; drives the Lemma 21 budget", []string{"k"}},
			{"Budget", "override the K·Δout + K budget", []string{"budget"}},
			{"Adversity/Stop", "failures, early stop", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Prepare: prepareRR,
	})
	Register(&Driver{
		Name:        "spanner",
		Description: "DTG + Baswana-Sen spanner + RR pipeline (Theorem 25), guess-and-double when D unknown",
		Options: []OptionDoc{
			{"D", "known weighted diameter (0 = guess-and-double)", []string{"d"}},
			{"KnownLatencies", "Section 4 model; else discovery phases are prepended", []string{"known_latencies"}},
			{"FaultTolerant/LBTimeout", "swap DTG for timeout-hardened Superstep", []string{"fault_tolerant", "lb_timeout"}},
			{"SkipCheck", "drop the Termination_Check phase for known D", []string{"skip_check"}},
			{"Adversity", "fault schedule, rebased per phase", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and per-phase horizon", nil},
		},
		Run: func(opts DriverOptions) (DriverResult, error) {
			return fromBroadcastResult(spannerBroadcast(opts, new(sim.Pipeline)))
		},
	})
	Register(&Driver{
		Name:        "pattern",
		Description: "deterministic T(k) schedule of ℓ-DTG phases (Algorithm 5 / Lemma 28)",
		Options: []OptionDoc{
			{"D", "known weighted diameter (0 = guess-and-double)", []string{"d"}},
			{"SkipCheck", "drop the Termination_Check pass for known D", []string{"skip_check"}},
			{"Adversity", "fault schedule, rebased per phase", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and per-phase horizon", nil},
		},
		Run: func(opts DriverOptions) (DriverResult, error) {
			return fromBroadcastResult(patternBroadcast(opts, new(sim.Pipeline)))
		},
	})
	Register(&Driver{
		Name:        "auto",
		Aliases:     []string{"unified"},
		Description: "Theorem 31 combination: push-pull and the spanner pipeline side by side, faster arm wins",
		Options: []OptionDoc{
			{"Source", "rumor origin of the push-pull arm", []string{"source"}},
			{"D/KnownLatencies", "spanner arm model selection", []string{"d", "known_latencies"}},
			{"Adversity", "fault schedule applied to both arms", []string{"fault_spec"}},
			{"Seed/MaxRounds", "determinism and horizon", nil},
		},
		Run: func(opts DriverOptions) (DriverResult, error) {
			res, err := Unified(opts)
			if err != nil {
				return DriverResult{}, err
			}
			return DriverResult{
				Rounds:       res.Rounds,
				Completed:    res.Rounds >= 0,
				Exchanges:    res.PushPull.Exchanges + res.Spanner.Exchanges,
				Dropped:      res.PushPull.Dropped + res.Spanner.Dropped,
				Delivered:    res.PushPull.Delivered + res.Spanner.Delivered,
				RumorPayload: res.PushPull.RumorPayload + res.Spanner.RumorPayload,
				Winner:       res.Winner,
			}, nil
		},
	})
}
