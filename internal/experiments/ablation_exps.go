package experiments

import (
	"context"
	"fmt"

	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/sim"
	"gossip/internal/viz"
)

// expE17LocalBroadcast compares the two local broadcast primitives the
// paper names in Section 4.1.1: Haeupler's deterministic DTG and the
// randomized Superstep of Censor-Hillel et al.
var expE17LocalBroadcast = Experiment{
	ID:     "E17",
	Title:  "local broadcast primitives: DTG vs Superstep",
	Source: "Section 4.1.1 ([5] and [20])",
	Claim:  "both primitives solve ℓ-local broadcast in O(ℓ·polylog n) (Section 4.1.1)",
	Run:    runE17,
}

func runE17(ctx context.Context, cfg Config) (*Table, error) {
	rng := graphgen.NewRand(cfg.Seed)
	er, err := graphgen.ErdosRenyi(24, 0.3, 1, rng)
	if err != nil {
		return nil, err
	}
	graphgen.AssignRandomLatencies(er, 1, 8, rng)
	cases := []struct {
		name string
		c    *graph.CSR
		ell  int
	}{
		{"clique(32,ℓ=1)", graphgen.Clique(32, 1).CSR(), 1},
		{"star(32,ℓ=2)", graphgen.Star(32, 2).CSR(), 2},
		{"grid(6x6,ℓ=2)", graphgen.Grid(6, 6, 2).CSR(), 2},
		{"er(24,rand ℓ≤8)", er.CSR(), 8},
	}
	names := cellNames(len(cases), func(i int) string { return cases[i].name })
	cells, err := runGrid(ctx, cfg, "E17", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			cse := cases[c.CellIndex]
			opts := gossip.DriverOptions{Ell: cse.ell, Seed: seed, MaxRounds: 1 << 19}
			d, err := dispatch("dtg", cse.c, opts)
			if err != nil {
				return runner.Sample{}, err
			}
			s, err := dispatch("superstep", cse.c, opts)
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"dtg_rounds": float64(d.Rounds),
				"dtg_exch":   float64(d.Exchanges),
				"ss_rounds":  float64(s.Rounds),
				"ss_exch":    float64(s.Exchanges),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"graph", "ℓ", "DTG rounds", "DTG exch", "Superstep rounds", "SS exch"}}
	for i, cse := range cases {
		c := &cells[i]
		tbl.AddRow(cse.name, cse.ell, c.Mean("dtg_rounds"), c.Mean("dtg_exch"),
			c.Mean("ss_rounds"), c.Mean("ss_exch"))
	}
	tbl.AddNote("DTG is deterministic and pipelines aggressively; Superstep trades determinism for simplicity and supports timeouts (see E22)")
	return tbl, nil
}

// expE18Blocking ablates the model's non-blocking initiation rule
// (Section 1: "each node can initiate a new exchange in every round,
// even if previous messages have not yet been delivered").
var expE18Blocking = Experiment{
	ID:     "E18",
	Title:  "non-blocking vs blocking push-pull",
	Source: "Section 1 (model; non-blocking footnote)",
	Claim:  "non-blocking initiation pipelines slow edges; blocking pays them serially",
	Run:    runE18,
}

func runE18(ctx context.Context, cfg Config) (*Table, error) {
	cases := []struct {
		name string
		c    *graph.CSR
	}{
		{"clique(24,ℓ=1)", graphgen.Clique(24, 1).CSR()},
		{"clique(24,ℓ=16)", graphgen.Clique(24, 16).CSR()},
		{"dumbbell(10,ℓ=64)", graphgen.Dumbbell(10, 64).CSR()},
	}
	names := cellNames(len(cases), func(i int) string { return cases[i].name })
	cells, err := runGrid(ctx, cfg, "E18", names, cfg.Trials*2,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			g := cases[c.CellIndex].c
			a, err := dispatch("push-pull", g, gossip.DriverOptions{Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				return runner.Sample{}, err
			}
			b, err := dispatch("push-pull", g, gossip.DriverOptions{Variant: gossip.VariantBlocking, Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"nb": float64(a.Rounds),
				"bl": float64(b.Rounds),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"graph", "non-blocking", "blocking", "blocking/non-blocking"}}
	for i, cse := range cases {
		c := &cells[i]
		mn, mb := c.Mean("nb"), c.Mean("bl")
		tbl.AddRow(cse.name, mn, mb, mb/mn)
	}
	tbl.AddNote("with unit latencies the variants coincide; with slow edges blocking wastes the latency window — the reason the model allows pipelined initiations")
	return tbl, nil
}

// expE19Curves renders the spreading curves (informed nodes per round) of
// push-pull on contrasting topologies — the figure-style view of how the
// weighted bottleneck shapes the epidemic.
var expE19Curves = Experiment{
	ID:     "E19",
	Title:  "spreading curves across topologies",
	Source: "Section 1 (motivation) / Theorem 29 dynamics",
	Claim:  "the bottleneck (φ*, ℓ*) shapes the epidemic: exponential on expanders, plateau at slow cuts",
	Run:    runE19,
}

func runE19(ctx context.Context, cfg Config) (*Table, error) {
	rng := graphgen.NewRand(cfg.Seed)
	ring, err := graphgen.NewRingNetwork(8, 4, 32, rng)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		c    *graph.CSR
	}{
		{"clique(64,ℓ=1)", graphgen.Clique(64, 1).CSR()},
		{"dumbbell(32,ℓ=64)", graphgen.Dumbbell(32, 64).CSR()},
		{"ring(8,4,ℓ=32)", ring.Graph.CSR()},
	}
	names := cellNames(len(cases), func(i int) string { return cases[i].name })
	cells, err := runGrid(ctx, cfg, "E19", names, 1,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			res, err := dispatch("push-pull", cases[c.CellIndex].c, gossip.DriverOptions{Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				return runner.Sample{}, err
			}
			ht := res.Sim.HalfTime()
			return runner.Sample{
				Values: map[string]float64{
					"rounds":   float64(res.Rounds),
					"halftime": float64(ht),
				},
				Labels: map[string]string{
					"curve": viz.SparklineInts(downsampleInts(res.Sim.SpreadCurve(), 24)),
				},
			}, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"graph", "rounds", "half-time", "half/total", "curve"}}
	for i := range cells {
		c := &cells[i]
		rounds, ht := c.Mean("rounds"), c.Mean("halftime")
		tbl.AddRow(c.Name, int(rounds), int(ht), ht/rounds, c.Label("curve"))
	}
	tbl.AddNote("the clique saturates almost immediately after half-time (S-curve); the dumbbell plateaus at n/2 until the latency-ℓ* bridge delivers — the ℓ*/φ* bottleneck made visible")
	return tbl, nil
}

func downsampleInts(xs []int, width int) []int {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	ds := viz.Downsample(fs, width)
	out := make([]int, len(ds))
	for i, f := range ds {
		out[i] = int(f)
	}
	return out
}

// expE20Bandwidth contrasts the rumor-payload cost of push-pull and the
// spanner pipeline: Section 6 notes push-pull works with small messages
// while the spanner algorithm relies on DTG's large exchanges.
var expE20Bandwidth = Experiment{
	ID:     "E20",
	Title:  "bandwidth: rumor payload of push-pull vs spanner pipeline",
	Source: "Section 6 (message size discussion)",
	Claim:  "push-pull works with small messages; the spanner pipeline ships far more rumor payload (Section 6)",
	Run:    runE20,
}

func runE20(ctx context.Context, cfg Config) (*Table, error) {
	cases := []struct {
		name string
		c    *graph.CSR
	}{
		{"grid(5x5,ℓ=2)", graphgen.Grid(5, 5, 2).CSR()},
		{"clique(24,ℓ=2)", graphgen.Clique(24, 2).CSR()},
	}
	names := cellNames(len(cases), func(i int) string { return cases[i].name })
	cells, err := runGrid(ctx, cfg, "E20", names, 1,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			g := cases[c.CellIndex].c
			pp, err := dispatch("push-pull", g, gossip.DriverOptions{Objective: gossip.AllToAll, Seed: seed, MaxRounds: 1 << 20})
			if err != nil {
				return runner.Sample{}, err
			}
			sp, err := gossip.Dispatch("spanner", nil, gossip.DriverOptions{
				KnownLatencies: true, Seed: seed + 1, SkipCheck: true,
				D: int(g.WeightedDiameter()), ExecOptions: gossip.ExecOptions{CSR: g},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"pp_rounds":  float64(pp.Rounds),
				"pp_payload": float64(pp.RumorPayload),
				"sp_rounds":  float64(sp.Rounds),
				"sp_payload": float64(sp.RumorPayload),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"graph", "pp rounds", "pp payload", "sp rounds", "sp payload", "payload ratio",
	}}
	for i := range cells {
		c := &cells[i]
		tbl.AddRow(c.Name, int(c.Mean("pp_rounds")), int(c.Mean("pp_payload")),
			int(c.Mean("sp_rounds")), int(c.Mean("sp_payload")),
			c.Mean("sp_payload")/c.Mean("pp_payload"))
	}
	tbl.AddNote("payload counts rumor units actually carried by delivered exchanges; the pipeline's repeated DTG phases dominate push-pull's bandwidth")
	return tbl, nil
}

// expE21Jitter perturbs realized latencies (footnote 2: nodes cannot
// predict link latency) and checks which algorithms degrade.
var expE21Jitter = Experiment{
	ID:     "E21",
	Title:  "latency jitter: planning with stale information",
	Source: "Section 1, footnote 2",
	Claim:  "push-pull is oblivious to jitter; latency-planned schedules degrade gracefully (footnote 2)",
	Run:    runE21,
}

func runE21(ctx context.Context, cfg Config) (*Table, error) {
	csr := graphgen.Grid(5, 5, 4).CSR()
	jitters := []float64{0, 0.2, 0.5}
	names := cellNames(len(jitters), func(i int) string { return fmt.Sprintf("jitter=%g", jitters[i]) })
	cells, err := runGrid(ctx, cfg, "E21", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			jitter := jitters[c.CellIndex]
			pp, err := sim.Run(sim.Config{
				CSR: csr, Seed: seed, MaxRounds: 1 << 19,
				Mode: sim.OneToAll, Source: 0, LatencyJitter: jitter,
			}, func(nv *sim.NodeView) sim.Protocol { return gossip.NewPushPull(nv) },
				sim.StopAllInformed(0))
			if err != nil {
				return runner.Sample{}, err
			}
			dtg, err := sim.Run(sim.Config{
				CSR: csr, Seed: seed, MaxRounds: 1 << 19, KnownLatencies: true,
				Mode: sim.AllToAll, LatencyJitter: jitter,
			}, func(nv *sim.NodeView) sim.Protocol { return gossip.NewDTG(nv, 8) },
				sim.StopAllDone())
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"pp":     float64(pp.Rounds),
				"dtg":    float64(dtg.Rounds),
				"dtg_ok": b2f(dtg.Completed),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"jitter", "push-pull rounds", "dtg rounds", "dtg complete"}}
	for i, jitter := range jitters {
		c := &cells[i]
		tbl.AddRow(jitter, c.Mean("pp"), c.Mean("dtg"), c.Min("dtg_ok") == 1)
	}
	tbl.AddNote("nominal latencies stay within the ℓ filter under these jitter levels, so DTG still completes; its waits simply stretch with the realized round trips")
	return tbl, nil
}

// expE22FaultTolerant evaluates this repository's extension of the
// paper's future-work direction (Section 7: "development of reliable
// robust fault-tolerant algorithms"): the Superstep primitive with
// timeouts inside the spanner pipeline, under mid-run crashes.
var expE22FaultTolerant = Experiment{
	ID:     "E22",
	Title:  "fault-tolerant pipeline: Superstep+timeout vs plain DTG",
	Source: "Section 7 (future work), extension",
	Claim:  "timeout-based abandonment restores progress under crashes (Section 7 future work)",
	Run:    runE22,
}

func runE22(ctx context.Context, cfg Config) (*Table, error) {
	n := 24
	crashCounts := []int{0, 2, 4}
	names := cellNames(len(crashCounts), func(i int) string { return fmt.Sprintf("crashed=%d", crashCounts[i]) })
	cells, err := runGrid(ctx, cfg, "E22", names, 1,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			exec := gossip.ExecOptions{Adversity: crashLowIDs(crashCounts[c.CellIndex], 5), CSR: graphgen.Clique(n, 2).CSR()}
			plain, err := gossip.Dispatch("spanner", nil, gossip.DriverOptions{
				KnownLatencies: true, Seed: seed, MaxRounds: 4096, ExecOptions: exec,
			})
			if err != nil {
				return runner.Sample{}, err
			}
			robust, err := gossip.Dispatch("spanner", nil, gossip.DriverOptions{
				KnownLatencies: true, Seed: seed, MaxRounds: 4096,
				FaultTolerant: true, LBTimeout: 8, ExecOptions: exec,
			})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"plain":     float64(plain.Rounds),
				"plain_ok":  b2f(plain.Completed),
				"robust":    float64(robust.Rounds),
				"robust_ok": b2f(robust.Completed),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"crashed@5", "dtg rounds", "dtg complete", "ss+timeout rounds", "ss complete",
	}}
	for i, crashes := range crashCounts {
		c := &cells[i]
		tbl.AddRow(crashes, int(c.Mean("plain")), c.Min("plain_ok") == 1,
			int(c.Mean("robust")), c.Min("robust_ok") == 1)
	}
	tbl.AddNote("the plain pipeline leans on RR redundancy to finish despite stalled DTG phases; the timeout variant keeps the local-broadcast phases themselves healthy")
	return tbl, nil
}
