package gossip

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

// freshPhases is the reference phase runner: every phase on a fresh
// engine, seeded with the previous phase's FinalRumors through
// Config.InitialRumors — the path the pipelines took before they kept
// one engine. It remembers the last phase's result.
type freshPhases struct{ last *sim.Result }

func (f *freshPhases) Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error) {
	if f.last != nil {
		cfg.InitialRumors = f.last.FinalRumors()
	}
	res, err := sim.Run(cfg, factory, stop)
	f.last = &res
	return res, err
}

// lastPhase wraps a runner and remembers the last phase's result, so a
// test can read the final rumor sets a pipeline left.
type lastPhase struct {
	phaseRunner
	last sim.Result
}

func (l *lastPhase) Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error) {
	res, err := l.phaseRunner.Run(cfg, factory, stop)
	l.last = res
	return res, err
}

// runDiscovery runs one discovery phase on its own engine.
func runDiscovery(opts DriverOptions) (DriverResult, error) {
	return newPipeline(opts, new(sim.Pipeline)).discover(opts)
}

// pipelineReport is everything a pipeline run reports, plus the final
// rumor sets its last phase left.
type pipelineReport struct {
	Broadcast BroadcastResult
	Rounds    int
	Winner    string
	PushPull  [5]int64 // rounds, exchanges, delivered, dropped, payload
	Final     []string
}

// runPipeline runs the named pipeline driver's body on ph.
func runPipeline(t *testing.T, name string, opts DriverOptions, ph phaseRunner) pipelineReport {
	t.Helper()
	lp := &lastPhase{phaseRunner: ph}
	var rep pipelineReport
	var err error
	switch name {
	case "spanner":
		rep.Broadcast, err = spannerBroadcast(opts, lp)
	case "pattern":
		rep.Broadcast, err = patternBroadcast(opts, lp)
	case "auto":
		var u UnifiedResult
		u, err = unified(opts, lp)
		rep.Broadcast, rep.Rounds, rep.Winner = u.Spanner, u.Rounds, u.Winner
		pp := u.PushPull
		rep.PushPull = [5]int64{int64(pp.Rounds), pp.Exchanges, pp.Delivered, pp.Dropped, pp.RumorPayload}
	}
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, s := range lp.last.FinalRumors() {
		rep.Final = append(rep.Final, s.String())
	}
	return rep
}

// freshDTGs is the reference for the DTG state a pipeline reuses: one
// engine, as the pipelines run, but every phase's DTG instances built
// from the zero value, the state a fresh slab gives the dtg driver's one
// phase. The factory runs twice per DTG node: once to find the instance,
// then, after it is zeroed, to build it. Other protocols pass through.
type freshDTGs struct{ sim.Pipeline }

func (f *freshDTGs) Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error) {
	return f.Pipeline.Run(cfg, func(nv *sim.NodeView) sim.Protocol {
		p := factory(nv)
		if d, ok := p.(*DTG); ok {
			*d = DTG{}
			return factory(nv)
		}
		return p
	}, stop)
}

// TestPipelineMatchesFreshEngines is the bit-identity gate of one engine
// and one DTG slab per pipeline where the goldens do not reach: spanner
// (known and unknown latencies, DTG and Superstep gathering), pattern and
// auto, benign, under amnesic churn with a crash, and under loss, at one
// and four workers, must report every phase row, every total and the
// final rumor sets exactly as two references do: a fresh engine per
// phase, and the one engine with fresh DTG instances every phase. D is
// unknown, so on the dumbbell, whose slow bridge takes several guesses,
// the spanner's guesses change ℓ and the first repetition of each must
// rebuild the eligible lists.
func TestPipelineMatchesFreshEngines(t *testing.T) {
	ring, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 6, Layers: 4, Latency: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	graphs := map[string]*graph.Graph{"ring": ring, "dumbbell": graphgen.Dumbbell(5, 6)}
	specs := map[string]*adversity.Spec{
		"benign": nil,
		"churn":  adversity.MustParseSpec("churn=1:4-30:amnesia;churn=7:2-12;crash=6:2"),
		"loss":   adversity.MustParseSpec("loss=0.1"),
	}
	variants := []struct {
		name, driver string
		opts         DriverOptions
	}{
		{"spanner", "spanner", DriverOptions{KnownLatencies: true}},
		{"spanner/discover", "spanner", DriverOptions{}},
		{"spanner/superstep", "spanner", DriverOptions{KnownLatencies: true, FaultTolerant: true}},
		{"pattern", "pattern", DriverOptions{}},
		{"auto", "auto", DriverOptions{KnownLatencies: true}},
	}
	for gname, g := range graphs {
		for sname, spec := range specs {
			for _, v := range variants {
				for _, workers := range []int{1, 4} {
					label := fmt.Sprintf("%s/%s/%s/workers=%d", gname, sname, v.name, workers)
					opts := v.opts
					opts.Seed, opts.MaxRounds = 5, 4096
					opts.ExecOptions = ExecOptions{CSR: g.CSR(), Adversity: spec, Workers: workers}
					got := runPipeline(t, v.driver, opts, new(sim.Pipeline))
					if want := runPipeline(t, v.driver, opts, new(freshPhases)); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: one engine diverges from fresh engines:\n got  %+v\n want %+v", label, got, want)
					}
					if want := runPipeline(t, v.driver, opts, new(freshDTGs)); !reflect.DeepEqual(got, want) {
						t.Errorf("%s: reused DTG state diverges from fresh instances:\n got  %+v\n want %+v", label, got, want)
					}
					if gname == "dumbbell" && sname == "benign" && v.name == "spanner" {
						ells := map[string]bool{}
						for _, ph := range got.Broadcast.Phases {
							if strings.HasPrefix(ph.Name, "dtg(") {
								ells[strings.Split(ph.Name, ",")[0]] = true
							}
						}
						if len(ells) < 2 {
							t.Errorf("%s: the guesses gathered at %d value(s) of ℓ, want several", label, len(ells))
						}
					}
				}
			}
		}
	}
}

// TestPipelineRejectsCarriedSeeds: a later phase of a sim.Pipeline
// carries the previous phase's sets, so handing it InitialRumors is an
// error, as is a second topology.
func TestPipelineRejectsCarriedSeeds(t *testing.T) {
	csr := graphgen.Clique(4, 1).CSR()
	cfg, factory, stop, err := prepareDTG(DriverOptions{Seed: 1, MaxRounds: 100, ExecOptions: ExecOptions{CSR: csr}})
	if err != nil {
		t.Fatal(err)
	}
	var p sim.Pipeline
	first, err := p.Run(cfg, factory, stop)
	if err != nil {
		t.Fatal(err)
	}
	seeded := cfg
	seeded.InitialRumors = first.FinalRumors()
	if _, err := p.Run(seeded, factory, stop); err == nil {
		t.Error("a carried phase accepted InitialRumors")
	}
	other := cfg
	other.CSR = graphgen.Clique(4, 1).CSR()
	var q sim.Pipeline
	if _, err := q.Run(cfg, factory, stop); err != nil {
		t.Fatal(err)
	}
	if _, err := q.Run(other, factory, stop); err == nil {
		t.Error("a pipeline accepted a second topology")
	}
}

// The survivor checks as they were before the pipeline computed its
// survivors once: a NeverReturns probe inside the n² loop, over
// materialized rumor sets or the live world.

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

// TestSurvivorChecksAgree: on an all-to-all run under churn (amnesic and
// retaining, with a permanent leave and a crash), the pipeline's survivor
// checks agree with the per-probe originals at every stop evaluation —
// the rr stop on the live world, the completion check on the
// materialized sets — through partial states to the complete one.
func TestSurvivorChecksAgree(t *testing.T) {
	g := graphgen.Dumbbell(6, 5)
	for _, fs := range []string{
		"churn=1:3-20:amnesia;churn=4:2-inf;crash=9:2",
		"churn=2:1-9;churn=8:5-40:amnesia",
		"loss=0.2",
	} {
		spec := adversity.MustParseSpec(fs)
		opts := DriverOptions{ExecOptions: ExecOptions{CSR: g.CSR(), Adversity: spec}}
		p := newPipeline(opts, nil)
		checks, agreed := 0, 0
		stop := func(w *sim.World) bool {
			old := stopAliveHaveAlive(spec)(w)
			p.world = w
			sets := make([]*bitset.Set, len(w.Views))
			for u, nv := range w.Views {
				sets[u] = bitset.New(len(w.Views))
				for v := range w.Views {
					if nv.Knows(v) {
						sets[u].Add(v)
					}
				}
			}
			checks++
			if p.survivorsInformed(w) == old && p.complete() == rumorsFullAlive(sets, spec) {
				agreed++
			}
			return old
		}
		res, err := sim.Run(sim.Config{CSR: g.CSR(), Seed: 3, Mode: sim.AllToAll, MaxRounds: 4096, Adversity: spec},
			func(nv *sim.NodeView) sim.Protocol { return &PushPull{nv: nv} }, stop)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Completed || checks < 3 || agreed != checks {
			t.Errorf("%s: %d of %d checks agree (completed %v)", fs, agreed, checks, res.Completed)
		}
	}
}

// TestPipelineAllocBudget pins what one engine per pipeline, the word
// path, the no-op heard-set merge, typed exchange metadata and reused
// ℓ-DTG state save: one auto run on a ring of 16 nodes × 8 layers
// with latency-16 slow links. Before the first three this run made
// 39 748 allocations (a fresh engine and a copy of every rumor set per
// phase, a rewritten heard set per merge, one DTG object per node per
// phase); with them it made 21 889, and boxing each heard-set snapshot
// and election pair once per change instead of once per exchange brought
// it to 16 083. One DTG slab per pipeline, whose instances keep their
// eligible lists and heard logs across repetitions, and snapshots that
// box a log version instead of copying it brought it to about 6 440, and
// it measured 5 999 before heard sets of ⌈n/32⌉ ids or more became
// bitmaps, 5 987 after. Metadata as []int32 interned once per version
// into an engine table, instead of boxed into an interface, brought it to
// 2 768 with the arms side by side, and rumor sets as bitset.NodeSets,
// whose first room all nodes share in one engine arena, to 2 399. Each
// guess's spanner built on a goroutine beside its gather, and the one
// listing full nodes' journals share, made it 2 407. The bound is 3 000.
func TestPipelineAllocBudget(t *testing.T) {
	g, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 16, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DriverOptions{KnownLatencies: true, Seed: 3, ExecOptions: ExecOptions{CSR: g.CSR()}}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Dispatch("auto", nil, opts); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 3000
	t.Logf("%.0f allocations per auto run (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("one auto run made %.0f allocations, bound %d", allocs, bound)
	}
}

// BenchmarkAutoOp is sim-latency's op at the layer below the benchmark
// binary: one auto run (both arms, side by side) on the 64 × 8 ring with
// latency-16 slow links, dispatched with the adjacency-map graph as the
// workload dispatches it, so each op pays the graph's conversion too.
func BenchmarkAutoOp(b *testing.B) {
	g, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Dispatch("auto", g, DriverOptions{KnownLatencies: true, Seed: uint64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
