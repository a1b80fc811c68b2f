package experiments

import (
	"context"
	"fmt"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/stats"
)

// expE24LossSweep measures push-pull one-to-all under uniform
// per-exchange message loss: rumor spreading is an epidemic process, so
// dropping each delivery independently with probability p thins the
// effective contact rate by (1-p) and the spread time should grow by
// roughly 1/(1-p) — the removal/attrition dynamics the epidemic
// literature (Lega 2020; Pandey et al. 2020, see PAPERS.md) studies.
// Every trial re-runs 8-way sharded and must match the serial run
// exactly: a continuously-executed proof that fault schedules preserve
// the engine's worker-count determinism.
var expE24LossSweep = Experiment{
	ID:     "E24",
	Title:  "push-pull under message loss (4-regular random graph)",
	Source: "engineering extension of Theorem 29; epidemic attrition per PAPERS.md",
	Claim:  "per-exchange loss p thins the epidemic contact rate: spread time grows smoothly, staying near the 1/(1-p) slowdown",
	Run:    runE24,
}

func runE24(ctx context.Context, cfg Config) (*Table, error) {
	n := 256
	if cfg.Quick {
		n = 64
	}
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	names := cellNames(len(losses), func(i int) string {
		return fmt.Sprintf("loss=%.0f%%", losses[i]*100)
	})
	cells, err := runGrid(ctx, cfg, "E24", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			g, err := graphgen.RandomRegular(n, 4, 1, graphgen.NewRand(seed))
			if err != nil {
				return runner.Sample{}, err
			}
			var spec *adversity.Spec
			if p := losses[c.CellIndex]; p > 0 {
				spec = &adversity.Spec{Loss: p}
			}
			serial, err := dispatchSharded("push-pull", g.CSR(), gossip.DriverOptions{
				Source: 0, Seed: seed, MaxRounds: 1 << 14, ExecOptions: gossip.ExecOptions{Adversity: spec},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			if !serial.Completed {
				return runner.Sample{}, fmt.Errorf("incomplete at loss=%v", losses[c.CellIndex])
			}
			dropFrac := 0.0
			if serial.Exchanges > 0 {
				dropFrac = float64(serial.Dropped) / float64(serial.Exchanges)
			}
			return runner.V(map[string]float64{
				"rounds":    float64(serial.Rounds),
				"exchanges": float64(serial.Exchanges),
				"dropfrac":  dropFrac,
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"loss", "mean rounds", "p90", "slowdown", "1/(1-p)", "measured drop frac",
	}}
	base := stats.Summarize(cells[0].Values("rounds")).Mean
	for i, name := range names {
		sum := stats.Summarize(cells[i].Values("rounds"))
		slowdown := 0.0
		if base > 0 {
			slowdown = sum.Mean / base
		}
		tbl.AddRow(name, sum.Mean, sum.P90, slowdown, 1/(1-losses[i]), cells[i].Mean("dropfrac"))
	}
	tbl.AddNote("every trial re-ran with Workers=8 under the same loss schedule and matched the serial run exactly")
	tbl.AddNote("measured drop fraction tracks the configured probability: losses hit delivered exchanges only, per the adversity accounting")
	return tbl, nil
}

// expE25Churn measures broadcast resilience under node churn: a
// fraction of nodes leaves early and rejoins mid-run, either retaining
// their rumor state or rejoining amnesic. Push-pull routes around the
// absences; amnesia forces re-dissemination, so it can only be slower
// than retention. Completion is judged over survivors (a node away
// mid-run must be informed after it rejoins), and every trial asserts
// serial/sharded equality.
var expE25Churn = Experiment{
	ID:     "E25",
	Title:  "churn resilience (push-pull, 4-regular random graph)",
	Source: "engineering extension of Section 6 (robustness discussion)",
	Claim:  "push-pull completes through leave/rejoin churn; amnesia rejoins cost extra rounds over retention",
	Run:    runE25,
}

func runE25(ctx context.Context, cfg Config) (*Table, error) {
	n := 64
	if cfg.Quick {
		n = 32
	}
	churned := []int{0, n / 16, n / 8, n / 4}
	type variant struct {
		name    string
		amnesia bool
	}
	variants := []variant{{"retention", false}, {"amnesia", true}}
	var names []string
	for _, v := range variants {
		for _, k := range churned {
			names = append(names, fmt.Sprintf("%s churned=%d", v.name, k))
		}
	}
	cellCase := func(idx int) (variant, int) {
		return variants[idx/len(churned)], churned[idx%len(churned)]
	}
	cells, err := runGrid(ctx, cfg, "E25", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			v, k := cellCase(c.CellIndex)
			g, err := graphgen.RandomRegular(n, 4, 1, graphgen.NewRand(seed))
			if err != nil {
				return runner.Sample{}, err
			}
			var spec *adversity.Spec
			if k > 0 {
				spec = &adversity.Spec{}
				for i := 0; i < k; i++ {
					// Nodes 1..k (never the source) leave at round 3,
					// staggered rejoins from round 12.
					spec.Churn = append(spec.Churn, adversity.Churn{
						Node: 1 + i, Leave: 3, Rejoin: 12 + i%5, Amnesia: v.amnesia,
					})
				}
			}
			serial, err := dispatchSharded("push-pull", g.CSR(), gossip.DriverOptions{
				Source: 0, Seed: seed, MaxRounds: 1 << 14, ExecOptions: gossip.ExecOptions{Adversity: spec},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"rounds":  float64(serial.Rounds),
				"ok":      b2f(serial.Completed),
				"dropped": float64(serial.Dropped),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"variant", "churned", "mean rounds", "p90", "mean dropped", "all complete",
	}}
	for i := range cells {
		v, k := cellCase(i)
		sum := stats.Summarize(cells[i].Values("rounds"))
		tbl.AddRow(v.name, k, sum.Mean, sum.P90, cells[i].Mean("dropped"), cells[i].Min("ok") == 1)
	}
	tbl.AddNote("exchanges in flight across a node's down interval are dropped (the node neither responds nor forwards); completion is judged over currently-alive nodes")
	tbl.AddNote("every trial re-ran with Workers=8 under the same churn schedule and matched the serial run exactly")
	return tbl, nil
}
