package experiments

import (
	"context"
	"fmt"
	"math"

	"gossip/internal/graphgen"
	"gossip/internal/guessing"
	"gossip/internal/runner"
	"gossip/internal/stats"
)

// expE2GuessSingleton measures the Lemma 7 shape: with a singleton
// target, the number of rounds grows linearly in m even for the adaptive
// fresh-pair strategy.
var expE2GuessSingleton = Experiment{
	ID:     "E2",
	Title:  "guessing game, singleton target",
	Source: "Lemma 7",
	Claim:  "any ε-error protocol needs Ω(m) rounds (Lemma 7)",
	Run:    runE2,
}

func runE2(ctx context.Context, cfg Config) (*Table, error) {
	ms := []int{8, 16, 32, 64, 128}
	if cfg.Quick {
		ms = []int{8, 16, 32}
	}
	names := cellNames(len(ms), func(i int) string { return fmt.Sprintf("m=%d", ms[i]) })
	cells, err := runGrid(ctx, cfg, "E2", names, cfg.Trials*4,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			m := ms[c.CellIndex]
			rng := graphgen.NewRand(seed)
			game, err := guessing.NewGame(m, guessing.SingletonTarget(m, rng))
			if err != nil {
				return runner.Sample{}, err
			}
			r, solved, err := guessing.Play(game, guessing.NewFreshStrategy(m, rng), 10*m)
			if err != nil {
				return runner.Sample{}, err
			}
			if !solved {
				r = 10 * m
			}
			return runner.V(map[string]float64{"rounds": float64(r)}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"m", "mean rounds", "rounds/m", "worst-case m/2"}}
	var xs, ys []float64
	for i, m := range ms {
		mean := cells[i].Mean("rounds")
		tbl.AddRow(m, mean, mean/float64(m), float64(m)/2)
		xs = append(xs, float64(m))
		ys = append(ys, mean)
	}
	if exp, _, r2, err := stats.PowerLawFit(xs, ys); err == nil {
		tbl.AddNote("fitted rounds ~ m^%.2f (R²=%.3f); Lemma 7 predicts exponent 1", exp, r2)
	}
	return tbl, nil
}

// expE3GuessRandom measures the Lemma 8 gap: for Random_p targets the
// adaptive fresh strategy needs Θ(1/p) rounds while the random
// (push-pull-like) strategy needs Θ(log m / p).
var expE3GuessRandom = Experiment{
	ID:     "E3",
	Title:  "guessing game, Random_p target",
	Source: "Lemma 8 (a) and (b)",
	Claim:  "general protocols need Ω(1/p); random guessing needs Ω(log m/p) (Lemma 8)",
	Run:    runE3,
}

func runE3(ctx context.Context, cfg Config) (*Table, error) {
	m := 128
	if cfg.Quick {
		m = 48
	}
	cs := []float64{4, 8, 16, 32}
	names := cellNames(len(cs), func(i int) string { return fmt.Sprintf("p=%g/m", cs[i]) })
	cells, err := runGrid(ctx, cfg, "E3", names, cfg.Trials*2,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			p := cs[c.CellIndex] / float64(m)
			rng := graphgen.NewRand(seed)
			target := guessing.RandomTarget(m, p, rng)
			gameF, err := guessing.NewGame(m, clonePairs(target))
			if err != nil {
				return runner.Sample{}, err
			}
			rF, okF, err := guessing.Play(gameF, guessing.NewFreshStrategy(m, rng), 500*m)
			if err != nil {
				return runner.Sample{}, err
			}
			gameR, err := guessing.NewGame(m, clonePairs(target))
			if err != nil {
				return runner.Sample{}, err
			}
			rR, okR, err := guessing.Play(gameR, guessing.NewRandomStrategy(m, rng), 500*m)
			if err != nil {
				return runner.Sample{}, err
			}
			s := runner.Sample{Values: map[string]float64{}}
			if okF {
				s.Values["fresh"] = float64(rF)
			}
			if okR {
				s.Values["random"] = float64(rR)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"m", "p", "fresh rounds", "1/p", "fresh·p", "random rounds", "ln(m)/p", "random/fresh",
	}}
	var invP, freshMeans, randMeans []float64
	for i, c := range cs {
		p := c / float64(m)
		fm := cells[i].Mean("fresh")
		rm := cells[i].Mean("random")
		tbl.AddRow(m, p, fm, 1/p, fm*p, rm, math.Log(float64(m))/p, rm/fm)
		invP = append(invP, 1/p)
		freshMeans = append(freshMeans, fm)
		randMeans = append(randMeans, rm)
	}
	if exp, _, r2, err := stats.PowerLawFit(invP, freshMeans); err == nil {
		tbl.AddNote("fresh rounds ~ (1/p)^%.2f (R²=%.3f); Lemma 8a predicts exponent 1", exp, r2)
	}
	if exp, _, r2, err := stats.PowerLawFit(invP, randMeans); err == nil {
		tbl.AddNote("random rounds ~ (1/p)^%.2f (R²=%.3f); Lemma 8b predicts exponent 1 with a log m factor", exp, r2)
	}
	return tbl, nil
}

func clonePairs(t map[guessing.Pair]bool) map[guessing.Pair]bool {
	out := make(map[guessing.Pair]bool, len(t))
	for k, v := range t {
		out[k] = v
	}
	return out
}
