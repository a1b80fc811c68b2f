package gossip

import (
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
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
// phase, so every repetition runs live and none replays. The factory
// runs twice per DTG node: once to find the instance, then, after it is
// zeroed, to build it. Other protocols pass through.
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

// pipelineGraphs are the graphs the pipeline gates run on: a small
// layered ring with latency-8 slow links, and a dumbbell whose latency-6
// bridge takes several diameter guesses.
func pipelineGraphs(t testing.TB) map[string]*graph.Graph {
	ring, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 6, Layers: 4, Latency: 8, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*graph.Graph{"ring": ring, "dumbbell": graphgen.Dumbbell(5, 6)}
}

// pipelineSpecs are the fault schedules the pipeline gates run under.
var pipelineSpecs = map[string]*adversity.Spec{
	"benign": nil,
	"churn":  adversity.MustParseSpec("churn=1:4-30:amnesia;churn=7:2-12;crash=6:2"),
	"loss":   adversity.MustParseSpec("loss=0.1"),
}

// pipelineVariants are the pipeline drivers and options the gates run.
var pipelineVariants = []struct {
	name, driver string
	opts         DriverOptions
}{
	{"spanner", "spanner", DriverOptions{KnownLatencies: true}},
	{"spanner/discover", "spanner", DriverOptions{}},
	{"spanner/superstep", "spanner", DriverOptions{KnownLatencies: true, FaultTolerant: true}},
	{"pattern", "pattern", DriverOptions{}},
	{"auto", "auto", DriverOptions{KnownLatencies: true}},
}

// TestPipelineMatchesFreshEngines is the bit-identity gate of one engine
// and one DTG slab per pipeline where the goldens do not reach: spanner
// (known and unknown latencies, DTG and Superstep gathering), pattern and
// auto, benign, under amnesic churn with a crash, and under loss, at one
// and four workers, must report every phase row, every total and the
// final rumor sets exactly as two references do: a fresh engine per
// phase, and the one engine with fresh DTG instances every phase (which
// never replay, so the benign rows check replayed repetitions). D is
// unknown, so on the dumbbell, whose slow bridge takes several guesses,
// the spanner's guesses change ℓ and the first repetition of each must
// rebuild the eligible lists.
func TestPipelineMatchesFreshEngines(t *testing.T) {
	for gname, g := range pipelineGraphs(t) {
		for sname, spec := range pipelineSpecs {
			for _, v := range pipelineVariants {
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

// replayCount runs every phase on one engine, as the pipelines do, and
// counts the ℓ-DTG phases and those that replayed the last one's links.
// A phase whose DTG instances disagree on replaying fails the test.
type replayCount struct {
	sim.Pipeline
	t                *testing.T
	phases, replayed int
}

func (r *replayCount) Run(cfg sim.Config, factory sim.Factory, stop sim.StopFunc) (sim.Result, error) {
	var dtgs, replays atomic.Int64
	res, err := r.Pipeline.Run(cfg, func(nv *sim.NodeView) sim.Protocol {
		p := factory(nv)
		if d, ok := p.(*DTG); ok {
			dtgs.Add(1)
			if d.replay {
				replays.Add(1)
			}
		}
		return p
	}, stop)
	if n := dtgs.Load(); n > 0 {
		r.phases++
		switch replays.Load() {
		case 0:
		case n:
			r.replayed++
		default:
			r.t.Errorf("%d of %d DTG instances of one phase replay", replays.Load(), n)
		}
	}
	return res, err
}

// TestDTGReplayGate pins which ℓ-DTG repetitions replay: under
// TestPipelineMatchesFreshEngines' churn and loss schedules none does,
// benign runs replay some, and the spanner arm of an auto op on
// sim-latency's graph (a 64 × 8 ring with latency-16 slow links) gathers
// at ℓ = 1 in nine repetitions, of which the last eight replay, with the
// result of nine live ones.
func TestDTGReplayGate(t *testing.T) {
	for gname, g := range pipelineGraphs(t) {
		for sname, spec := range pipelineSpecs {
			for _, v := range pipelineVariants {
				opts := v.opts
				opts.Seed, opts.MaxRounds = 5, 4096
				opts.ExecOptions = ExecOptions{CSR: g.CSR(), Adversity: spec, Workers: 1}
				rc := &replayCount{t: t}
				runPipeline(t, v.driver, opts, rc)
				label := fmt.Sprintf("%s/%s/%s", gname, sname, v.name)
				switch {
				case spec != nil && rc.replayed != 0:
					t.Errorf("%s: %d of %d DTG phases replayed under a fault schedule", label, rc.replayed, rc.phases)
				case spec == nil && !opts.FaultTolerant && rc.replayed == 0:
					t.Errorf("%s: none of %d benign DTG phases replayed", label, rc.phases)
				}
			}
		}
	}
	g, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	opts := DriverOptions{KnownLatencies: true, Seed: 3, ExecOptions: ExecOptions{CSR: g.CSR(), Workers: 1}}
	rc := &replayCount{t: t}
	got := runPipeline(t, "spanner", opts, rc)
	if rc.phases != 9 || rc.replayed != 8 {
		t.Errorf("sim-latency's spanner arm: %d of %d DTG phases replayed, want 8 of 9", rc.replayed, rc.phases)
	}
	if want := runPipeline(t, "spanner", opts, new(freshDTGs)); !reflect.DeepEqual(got, want) {
		t.Errorf("sim-latency's spanner arm diverges from live repetitions:\n got  %+v\n want %+v", got, want)
	}
}

// dtgStep is one ℓ-DTG phase of a hand-built pipeline: its ℓ, its
// MaxRounds and its fault schedule.
type dtgStep struct {
	ell, maxRounds int
	spec           *adversity.Spec
}

// runDTGSteps runs steps as the ℓ-DTG phases of one pipeline on ph and
// reports each phase's rounds, completion and counters, and the final
// rumor sets. Unlike the registered pipelines it may change MaxRounds
// and the fault schedule from one phase to the next.
func runDTGSteps(t *testing.T, csr *graph.CSR, seed uint64, workers int, steps []dtgStep, ph phaseRunner) ([][6]int64, []string) {
	t.Helper()
	lp := &lastPhase{phaseRunner: ph}
	p := newPipeline(DriverOptions{ExecOptions: ExecOptions{CSR: csr}}, lp)
	var rows [][6]int64
	for i, st := range steps {
		res, err := p.phase(p.prepareDTG(DriverOptions{
			Ell:         st.ell,
			Seed:        seed + uint64(i),
			MaxRounds:   st.maxRounds,
			ExecOptions: ExecOptions{CSR: csr, Workers: workers, Adversity: st.spec},
		}))
		if err != nil {
			t.Fatal(err)
		}
		completed := int64(0)
		if res.Completed {
			completed = 1
		}
		rows = append(rows, [6]int64{int64(res.Rounds), completed, res.Exchanges, res.Delivered, res.Dropped, res.RumorPayload})
	}
	var final []string
	for _, r := range lp.last.FinalRumors() {
		final = append(final, r.String())
	}
	return rows, final
}

// FuzzDTGReplay is the differential fence of replayed ℓ-DTG repetitions.
// It draws a graph as FuzzCSRBuilder does (n from the first byte, then
// (u, v, latency) triples; self-loops and duplicates are skipped, and
// consecutive nodes in different components are joined), a seed, the
// diameter D (0: unknown, so the guesses change ℓ), the per-phase
// MaxRounds (small caps cut phases short) and a fault schedule (none,
// loss, or amnesic churn) with known or discovered latencies. The spanner
// pipeline on one engine and one DTG slab must report every phase row,
// Delivered, Dropped and the final rumor sets exactly as with fresh DTG
// instances every phase, which never replay, at one and four workers. A
// registered pipeline keeps one MaxRounds and one schedule for all its
// phases, so steps also draws a hand-built sequence of up to eight ℓ-DTG
// phases, each byte one phase's ℓ (1, 2, 4 or 8), cap (the drawn
// MaxRounds or 4096) and schedule, held to the same reference; such
// sequences also stand for the pattern pipeline's ℓ schedules, whose
// guess doubling is too slow to fuzz when a drawn cap or schedule keeps
// it from completing.
func FuzzDTGReplay(f *testing.F) {
	// A 7-node path of latency-1 links, and an 8-node ring of latency-5
	// links.
	path := []byte{5, 0, 1, 0, 1, 2, 0, 2, 3, 0, 3, 4, 0, 4, 5, 0, 5, 6, 0}
	ring := []byte{6, 0, 1, 4, 1, 2, 4, 2, 3, 4, 3, 4, 4, 4, 5, 4, 5, 6, 4, 6, 7, 4, 7, 0, 4}
	f.Add([]byte{9, 0, 1, 1, 1, 2, 1, 2, 3, 4, 3, 4, 1, 4, 5, 1, 5, 6, 9, 6, 7, 1, 7, 8, 1}, []byte{0, 1, 0}, uint64(1), uint8(0), uint16(4000), uint8(0))
	f.Add([]byte{12, 0, 5, 2, 3, 7, 1, 2, 9, 16, 11, 4, 1}, []byte{}, uint64(7), uint8(3), uint16(4000), uint8(3))
	f.Add([]byte{8, 0, 2, 1, 1, 3, 30, 4, 6, 2}, []byte{0, 16, 0}, uint64(4), uint8(0), uint16(4000), uint8(2))
	f.Add(ring, []byte{7, 3}, uint64(2), uint8(0), uint16(0), uint8(0))    // a phase cut by MaxRounds, then a full one at its ℓ
	f.Add(path, []byte{0, 8}, uint64(0), uint8(1), uint16(4000), uint8(0)) // a lossy phase after a completed benign one
	f.Add(ring, []byte{0, 1, 2, 3, 3}, uint64(5), uint8(0), uint16(4000), uint8(0))
	specs := []*adversity.Spec{nil, adversity.MustParseSpec("loss=0.3"), adversity.MustParseSpec("churn=1:3-20:amnesia")}
	f.Fuzz(func(t *testing.T, data, steps []byte, seed uint64, d uint8, maxRounds uint16, fault uint8) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%24 + 2
		g := graph.New(n)
		for i := 1; i+2 < len(data); i += 3 {
			_ = g.AddEdge(int(data[i])%n, int(data[i+1])%n, int(data[i+2])%32+1)
		}
		comp := make([]int, n)
		for u := range comp {
			comp[u] = u
		}
		var find func(int) int
		find = func(u int) int {
			if comp[u] != u {
				comp[u] = find(comp[u])
			}
			return comp[u]
		}
		for _, e := range g.Edges() {
			comp[find(int(e.U))] = find(int(e.V))
		}
		for v := 1; v < n; v++ {
			if find(v) != find(v-1) {
				g.MustAddEdge(v-1, v, v%8+1)
				comp[find(v)] = find(v - 1)
			}
		}
		csr := g.CSR()
		opts := DriverOptions{
			D:              int(d) % 24,
			KnownLatencies: fault/3%2 == 0,
			Seed:           seed,
			MaxRounds:      4 + int(maxRounds)%4096,
			ExecOptions:    ExecOptions{CSR: csr, Adversity: specs[fault%3]},
		}
		seq := make([]dtgStep, 0, 8)
		for _, b := range steps[:min(len(steps), 8)] {
			st := dtgStep{ell: 1 << (b & 3), maxRounds: 4096, spec: specs[int(b>>3)%3]}
			if b&4 != 0 {
				st.maxRounds = opts.MaxRounds
			}
			seq = append(seq, st)
		}
		for _, workers := range []int{1, 4} {
			opts.Workers = workers
			got := runPipeline(t, "spanner", opts, new(sim.Pipeline))
			if want := runPipeline(t, "spanner", opts, new(freshDTGs)); !reflect.DeepEqual(got, want) {
				t.Fatalf("spanner at %d workers (n=%d, %+v): replayed repetitions diverge from live ones:\n got  %+v\n want %+v",
					workers, n, opts, got, want)
			}
			if len(seq) == 0 {
				continue
			}
			gotRows, gotFinal := runDTGSteps(t, csr, seed, workers, seq, new(sim.Pipeline))
			wantRows, wantFinal := runDTGSteps(t, csr, seed, workers, seq, new(freshDTGs))
			if !reflect.DeepEqual(gotRows, wantRows) || !reflect.DeepEqual(gotFinal, wantFinal) {
				t.Fatalf("steps %v at %d workers (n=%d): replayed phases diverge from live ones:\n got  %v %v\n want %v %v",
					steps, workers, n, gotRows, gotFinal, wantRows, wantFinal)
			}
		}
	})
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
// listing full nodes' journals share, made it 2 407, and benign ℓ-DTG
// repetitions that replay the last one's links (no heard-set merges, no
// metadata interned) 2 273. The bound was 3 000 and is 2 800.
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
	const bound = 2800
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
