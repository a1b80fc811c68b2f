package experiments

import (
	"context"
	"fmt"
	"reflect"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
)

// expE27WarmSweep measures what warm-start forking buys a parameter
// sweep: one shared prefix (gossip.Fork at half the base run) resumed
// once per loss-rate variant, against the cold baseline that replays
// the prefix for every variant. Cost is reported in simulated rounds —
// a deterministic counter, like every experiment table; wall-clock
// speedup belongs to BenchmarkSweepWarmStart, where the regression gate
// can see it. The table doubles as a correctness record: the control
// variant must reproduce the cold run bit-for-bit, and a diverged
// variant resumed twice must agree with itself.
var expE27WarmSweep = Experiment{
	ID:     "E27",
	Title:  "warm-start sweep scaling (shared prefix vs per-variant cold replay)",
	Source: "engineering extension (snapshot/restore under the Theorem 29 engine)",
	Claim:  "forking one engine snapshot across a sweep removes the shared prefix from every variant but the first, while the control variant stays bit-identical to the cold run",
	Run:    runE27,
}

func runE27(ctx context.Context, cfg Config) (*Table, error) {
	fanouts := []int{4, 8, 16}
	side := 16
	if cfg.Quick {
		fanouts = []int{4, 8}
		side = 8
	}
	names := cellNames(len(fanouts), func(i int) string {
		return fmt.Sprintf("sweep(variants=%d)", fanouts[i])
	})
	cells, err := runGrid(ctx, cfg, "E27", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			variants := fanouts[c.CellIndex]
			base := gossip.DriverOptions{Source: 0, Seed: seed, MaxRounds: 1 << 14,
				ExecOptions: gossip.ExecOptions{CSR: graphgen.Grid(side, side, 2).CSR()}}

			cold, err := gossip.Dispatch("push-pull", nil, base)
			if err != nil {
				return runner.Sample{}, err
			}
			w, err := gossip.Fork("push-pull", base, cold.Rounds/2)
			if err != nil {
				return runner.Sample{}, err
			}
			fork := w.Round()

			agree := 1.0
			coldRounds, warmRounds := 0.0, float64(fork)
			for v := 0; v < variants; v++ {
				opts := base
				if v > 0 {
					// Diverge on the fault schedule from the fork round on:
					// loss rates fanning out over the variants.
					loss := 0.5 * float64(v) / float64(variants)
					opts.Adversity = adversity.MustParseSpec(fmt.Sprintf("loss=%.3f", loss))
				}
				res, err := w.Resume(opts)
				if err != nil {
					return runner.Sample{}, err
				}
				// Cold baseline cost: replaying the prefix per variant means
				// each variant simulates all of its rounds from round 0.
				coldRounds += float64(res.Rounds)
				warmRounds += float64(res.Rounds - fork)
				if v == 0 && !reflect.DeepEqual(res.InformedAt, cold.InformedAt) {
					agree = 0 // control variant must equal the cold run
				}
				if v == 1 {
					again, err := w.Resume(opts)
					if err != nil {
						return runner.Sample{}, err
					}
					if !reflect.DeepEqual(again.InformedAt, res.InformedAt) ||
						again.Exchanges != res.Exchanges {
						agree = 0 // diverged resumes must be deterministic
					}
				}
			}
			return runner.V(map[string]float64{
				"fork":  float64(fork),
				"cold":  coldRounds,
				"warm":  warmRounds,
				"saved": 1 - warmRounds/coldRounds,
				"agree": agree,
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"sweep", "fork round", "cold rounds", "warm rounds", "rounds saved", "warm ≡ cold",
	}}
	for i, name := range names {
		cell := &cells[i]
		tbl.AddRow(name, cell.Mean("fork"), cell.Mean("cold"),
			cell.Mean("warm"), cell.Mean("saved"), cell.Min("agree") == 1)
	}
	tbl.AddNote("cost unit is simulated rounds summed over variants, prefix included; wall-clock speedup is gated by BenchmarkSweepWarmStart")
	tbl.AddNote("variant 0 is the undiverged control (must equal the cold run); variants 1+ diverge on message-loss rate from the fork round")
	return tbl, nil
}
