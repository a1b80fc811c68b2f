// Benchmarks: one testing.B target per experiment in DESIGN.md's index
// (E1-E13), each regenerating its paper table at Quick scale, plus
// ablation benches for the design choices DESIGN.md calls out and
// microbenchmarks of the hot substrate paths.
//
// Round counts (the paper's metric) are attached to each benchmark via
// b.ReportMetric as "rounds"; wall-clock ns/op measures the simulator.
package gossip_test

import (
	"context"
	"runtime"
	"strconv"
	"testing"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/conductance"
	"gossip/internal/experiments"
	proto "gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/guessing"
	"gossip/internal/spanner"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.Get(id)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunOne(ctx, experiments.Config{Quick: true, Trials: 1, Seed: uint64(i + 1)}, e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationGridWorkers pits the parallel runner against its own
// serial schedule on the E18 ablation grid (the trial-heaviest ablation):
// the workers=N variant should approach N× on idle multicore hardware,
// with byte-identical results (see experiments.TestWorkerCountDeterminism).
func BenchmarkAblationGridWorkers(b *testing.B) {
	e, err := experiments.Get("E18")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, workers := range []int{1, 8} {
		b.Run(benchName("workers", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				cfg := experiments.Config{Quick: true, Trials: 2, Seed: 1, Workers: workers}
				if _, err := experiments.RunOne(ctx, cfg, e); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkE1Theorem5(b *testing.B)         { benchExperiment(b, "E1") }
func BenchmarkE2GuessSingleton(b *testing.B)   { benchExperiment(b, "E2") }
func BenchmarkE3GuessRandom(b *testing.B)      { benchExperiment(b, "E3") }
func BenchmarkE4DeltaLower(b *testing.B)       { benchExperiment(b, "E4") }
func BenchmarkE5ConductanceLower(b *testing.B) { benchExperiment(b, "E5") }
func BenchmarkE6Tradeoff(b *testing.B)         { benchExperiment(b, "E6") }
func BenchmarkE7PushPullUpper(b *testing.B)    { benchExperiment(b, "E7") }
func BenchmarkE8Spanner(b *testing.B)          { benchExperiment(b, "E8") }
func BenchmarkE9Pattern(b *testing.B)          { benchExperiment(b, "E9") }
func BenchmarkE10Unified(b *testing.B)         { benchExperiment(b, "E10") }
func BenchmarkE11DTG(b *testing.B)             { benchExperiment(b, "E11") }
func BenchmarkE12RR(b *testing.B)              { benchExperiment(b, "E12") }
func BenchmarkE13NoPull(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14Robustness(b *testing.B)      { benchExperiment(b, "E14") }
func BenchmarkE15Messages(b *testing.B)        { benchExperiment(b, "E15") }
func BenchmarkE16BoundedIn(b *testing.B)       { benchExperiment(b, "E16") }
func BenchmarkE17LocalBroadcast(b *testing.B)  { benchExperiment(b, "E17") }
func BenchmarkE18Blocking(b *testing.B)        { benchExperiment(b, "E18") }
func BenchmarkE19Curves(b *testing.B)          { benchExperiment(b, "E19") }
func BenchmarkE20Bandwidth(b *testing.B)       { benchExperiment(b, "E20") }
func BenchmarkE21Jitter(b *testing.B)          { benchExperiment(b, "E21") }
func BenchmarkE22FaultTolerant(b *testing.B)   { benchExperiment(b, "E22") }

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationSpannerK varies the clustering depth k: small k keeps
// more edges (small stretch, large out-degree), large k sparsifies harder.
func BenchmarkAblationSpannerK(b *testing.B) {
	g := graphgen.Clique(128, 1)
	for _, k := range []int{2, 4, 7, 14} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var edges, outdeg int
			for i := 0; i < b.N; i++ {
				sp, err := spanner.Build(g, spanner.Options{K: k, Seed: uint64(i + 1)})
				if err != nil {
					b.Fatal(err)
				}
				edges, outdeg = sp.NumEdges(), sp.MaxOutDegree()
			}
			b.ReportMetric(float64(edges), "edges")
			b.ReportMetric(float64(outdeg), "outdeg")
		})
	}
}

// BenchmarkAblationRRFilter compares RR Broadcast with and without the
// latency-<=k edge filter on a dumbbell whose bridge is slow: filtering
// avoids burning rounds on the slow edge when k excludes it.
func BenchmarkAblationRRFilter(b *testing.B) {
	g := graphgen.Dumbbell(12, 40)
	sp, err := spanner.Build(g, spanner.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range []int{10, 200} {
		b.Run(benchName("k", k), func(b *testing.B) {
			var rounds int
			for i := 0; i < b.N; i++ {
				res, err := proto.Dispatch("rr", g, proto.DriverOptions{
					Spanner: sp, K: k, Seed: uint64(i + 1), MaxRounds: 1 << 19,
				})
				if err != nil {
					b.Fatal(err)
				}
				rounds = res.Rounds
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkAblationGuessStrategy quantifies the Lemma 8 log m gap between
// the adaptive fresh strategy and the push-pull-like random strategy.
func BenchmarkAblationGuessStrategy(b *testing.B) {
	const m = 96
	p := 6.0 / m
	strategies := map[string]func(i int) guessing.Strategy{
		"fresh": func(i int) guessing.Strategy {
			return guessing.NewFreshStrategy(m, graphgen.NewRand(uint64(i+1)))
		},
		"random": func(i int) guessing.Strategy {
			return guessing.NewRandomStrategy(m, graphgen.NewRand(uint64(i+1)))
		},
	}
	for name, mk := range strategies {
		b.Run(name, func(b *testing.B) {
			total := 0
			for i := 0; i < b.N; i++ {
				rng := graphgen.NewRand(uint64(i + 77))
				game, err := guessing.NewGame(m, guessing.RandomTarget(m, p, rng))
				if err != nil {
					b.Fatal(err)
				}
				rounds, _, err := guessing.Play(game, mk(i), 1000*m)
				if err != nil {
					b.Fatal(err)
				}
				total += rounds
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds")
		})
	}
}

// BenchmarkAblationPushPullVsUnified measures the Theorem 31 combination
// overhead versus bare push-pull on a topology where push-pull wins.
func BenchmarkAblationPushPullVsUnified(b *testing.B) {
	g := graphgen.Clique(64, 1)
	b.Run("push-pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proto.Dispatch("push-pull", g, proto.DriverOptions{Seed: uint64(i + 1), MaxRounds: 1 << 18}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("unified", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := proto.Dispatch("auto", g, proto.DriverOptions{
				Source: 0, KnownLatencies: true, Seed: uint64(i + 1), MaxRounds: 1 << 18,
			}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Substrate microbenchmarks -------------------------------------------

func BenchmarkSimPushPullRound(b *testing.B) {
	g := graphgen.Clique(256, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := proto.Dispatch("push-pull", g, proto.DriverOptions{Seed: uint64(i + 1), MaxRounds: 1 << 16}); err != nil {
			b.Fatal(err)
		}
	}
}

// slowBridgeDumbbell builds a sparse dumbbell: two (n/2)-node unit-latency
// cycles joined by one bridge edge of the given latency. Unlike
// graphgen.Dumbbell (clique sides, O(n²) edges) it stays O(n) edges, the
// regime the event engine targets.
func slowBridgeDumbbell(n, bridgeLatency int) *graph.Graph {
	half := n / 2
	g := graph.New(n)
	for side := 0; side < 2; side++ {
		base := side * half
		for i := 0; i < half; i++ {
			g.MustAddEdge(base+i, base+(i+1)%half, 1)
		}
	}
	g.MustAddEdge(0, half, bridgeLatency)
	return g
}

// BenchmarkSimLargeScale exercises the event engine at n=10⁴ — scales the
// old per-round-scan engine could not touch in a bench-smoke job:
//
//   - slow-bridge-dtg: DTG on a sparse dumbbell whose bridge has latency
//     10⁴. The run spans ~10⁵ simulated rounds, nearly all idle while the
//     bridge exchanges crawl; the activation calendar makes it O(events)
//     where the old engine would burn ~10⁹ no-op Activate scans.
//   - sparse-random-push-pull: push-pull on a random 4-regular graph; the
//     journal/delta transport replaces ~10⁶ full 10⁴-bit snapshot clones.
func BenchmarkSimLargeScale(b *testing.B) {
	const n = 10_000
	b.Run("slow-bridge-dtg", func(b *testing.B) {
		g := slowBridgeDumbbell(n, 10_000)
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := proto.Dispatch("dtg", g, proto.DriverOptions{Seed: uint64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("dtg incomplete: %+v", res)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("sparse-random-push-pull", func(b *testing.B) {
		rng := graphgen.NewRand(7)
		g, err := graphgen.RandomRegular(n, 4, 1, rng)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := proto.Dispatch("push-pull", g, proto.DriverOptions{Seed: uint64(i + 1), MaxRounds: 1 << 18})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("push-pull incomplete: %+v", res)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

// BenchmarkSimMillionNode is the substrate's n=10⁶ gate — infeasible on
// the pre-CSR engine (per-node dense rumor bitsets alone were n²/8 =
// 125 GB; the adjacency-map graph and pointer-heavy state added more):
//
//   - sparse-push-pull: push-pull to full dissemination on a streamed
//     ring+matching expander (degree <= 3, diameter O(log n)). Exercises
//     the CSR adjacency slices, the list-or-bitmap rumor sets and the
//     O(1) bucket calendar at ~10⁶ exchanges per round.
//   - slow-bridge-dtg: DTG local broadcast on two 5·10⁵-node rings
//     joined by a latency-250k bridge. The run spans ~10⁶ simulated
//     rounds, nearly all idle while the bridge exchanges crawl; the
//     activation calendar plus sparse heard sets make it O(events).
//
// Worker count: GOMAXPROCS shards (1 on a single-core CI runner — the
// determinism contract makes the results identical either way).
func BenchmarkSimMillionNode(b *testing.B) {
	const n = 1 << 20
	workers := runtime.GOMAXPROCS(0)
	b.Run("sparse-push-pull", func(b *testing.B) {
		csr, err := graphgen.RingMatchingExpanderCSR(n, 1, graphgen.NewRand(7))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := proto.Dispatch("push-pull", nil, proto.DriverOptions{
				Source: 0, Seed: uint64(i + 1), MaxRounds: 1 << 12,
				ExecOptions: proto.ExecOptions{CSR: csr, Workers: workers},
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("push-pull incomplete: %+v", res)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
	b.Run("slow-bridge-dtg", func(b *testing.B) {
		csr, err := graphgen.SlowBridgeRingCSR(n, 250_000)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		var rounds int
		for i := 0; i < b.N; i++ {
			res, err := proto.Dispatch("dtg", nil, proto.DriverOptions{
				Seed:        uint64(i + 1),
				ExecOptions: proto.ExecOptions{CSR: csr, Workers: workers},
			})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Completed {
				b.Fatalf("dtg incomplete: %+v", res)
			}
			rounds = res.Rounds
		}
		b.ReportMetric(float64(rounds), "rounds")
	})
}

func BenchmarkE23Scaling(b *testing.B)   { benchExperiment(b, "E23") }
func BenchmarkE24LossSweep(b *testing.B) { benchExperiment(b, "E24") }
func BenchmarkE25Churn(b *testing.B)     { benchExperiment(b, "E25") }

// BenchmarkSimLossyPushPull is the adversity substrate gate: push-pull
// one-to-all at n=10⁴ with 10% per-exchange loss. Versus the benign
// BenchmarkSimLargeScale/sparse-random-push-pull it pays the loss draws
// (one per initiation from the per-node adversity streams) and the
// extra rounds lossy spread needs; the delta-window transport stays on
// because drop fates are fixed at initiation.
func BenchmarkSimLossyPushPull(b *testing.B) {
	const n = 10_000
	rng := graphgen.NewRand(7)
	g, err := graphgen.RandomRegular(n, 4, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	spec := &adversity.Spec{Loss: 0.1}
	b.ReportAllocs()
	var rounds int
	for i := 0; i < b.N; i++ {
		res, err := proto.Dispatch("push-pull", g, proto.DriverOptions{
			Source: 0, Seed: uint64(i + 1), MaxRounds: 1 << 18,
			ExecOptions: proto.ExecOptions{Adversity: spec},
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Completed {
			b.Fatalf("lossy push-pull incomplete: %+v", res)
		}
		if res.Dropped == 0 {
			b.Fatal("no losses recorded at 10% loss")
		}
		rounds = res.Rounds
	}
	b.ReportMetric(float64(rounds), "rounds")
}

func BenchmarkConductanceExact(b *testing.B) {
	rng := graphgen.NewRand(1)
	g, err := graphgen.ErdosRenyi(16, 0.4, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 16, rng)
	c := g.CSR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conductance.Exact(c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkConductanceEstimate(b *testing.B) {
	rng := graphgen.NewRand(2)
	g, err := graphgen.ErdosRenyi(200, 0.05, 1, rng)
	if err != nil {
		b.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 32, rng)
	c := g.CSR()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := conductance.Estimate(c, conductance.EstimateOptions{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpannerBuild(b *testing.B) {
	g := graphgen.Clique(256, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spanner.Build(g, spanner.Options{Seed: uint64(i + 1)}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepWarmStart is the warm-start payoff gate: a 16-variant
// sweep sharing one prefix forked near the end of the base run, timed
// against the cold baseline that replays the prefix for every variant
// (exactly what POST /v1/sweeps avoids). The benchmark enforces its own
// floor — warm must be at least 5x faster than cold — because the
// bench-compare gate only diffs same-name benchmarks across artifacts
// and cannot relate two different ones. Correctness is asserted outside
// the timer: the control variant must equal the cold run bit-for-bit.
func BenchmarkSweepWarmStart(b *testing.B) {
	const variants = 16
	base := proto.DriverOptions{Source: 0, Seed: 11, MaxRounds: 1 << 14,
		ExecOptions: proto.ExecOptions{CSR: graphgen.Grid(32, 32, 2).CSR()}}
	cold, err := proto.Dispatch("push-pull", nil, base)
	if err != nil {
		b.Fatal(err)
	}
	forkAt := cold.Rounds - 2 // long shared prefix, short divergent tails
	opts := make([]proto.DriverOptions, variants)
	for i := range opts {
		opts[i] = base
		if i > 0 {
			opts[i].Adversity = adversity.MustParseSpec(
				"loss=0." + strconv.Itoa(10+i))
		}
	}

	// Untimed: determinism contract behind the speedup claim.
	prefix, err := proto.Fork("push-pull", base, forkAt)
	if err != nil {
		b.Fatal(err)
	}
	warmCtl, err := prefix.Resume(base)
	if err != nil {
		b.Fatal(err)
	}
	if warmCtl.Rounds != cold.Rounds || warmCtl.Exchanges != cold.Exchanges {
		b.Fatalf("warm control diverged: %d/%d rounds, %d/%d exchanges",
			warmCtl.Rounds, cold.Rounds, warmCtl.Exchanges, cold.Exchanges)
	}

	// Cold baseline: every variant re-runs the prefix before diverging.
	coldStart := time.Now()
	for _, o := range opts {
		w, err := proto.Fork("push-pull", base, forkAt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := w.Resume(o); err != nil {
			b.Fatal(err)
		}
	}
	coldNs := float64(time.Since(coldStart))

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := proto.Fork("push-pull", base, forkAt)
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range opts {
			if _, err := w.Resume(o); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	warmNs := float64(b.Elapsed()) / float64(b.N)
	speedup := coldNs / warmNs
	b.ReportMetric(speedup, "speedup")
	b.ReportMetric(float64(forkAt), "fork_round")
	if speedup < 5 {
		b.Fatalf("warm sweep only %.2fx faster than cold replay (floor 5x): warm %.0fns cold %.0fns",
			speedup, warmNs, coldNs)
	}
}

func benchName(key string, v int) string {
	return key + "=" + strconv.Itoa(v)
}
