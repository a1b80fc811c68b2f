package experiments

import (
	"context"
	"fmt"
	"reflect"

	"gossip/internal/curve"
	"gossip/internal/estimate"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
)

// expE29Estimate closes the loop on the service's inverse problem: a
// ground-truth fault configuration simulates an observed informed-count
// curve, and the coarse-to-fine ICC fit (the machinery behind POST
// /v1/estimates) must hand the configuration back. Three graph families
// cross three fault regimes; every truth sits on the coarse lattice, so
// its cold evaluation reproduces the observed curve bit-for-bit, exact
// recovery is the expected outcome, and "recovered" is a sharp 0/1
// metric rather than a tolerance band. Each trial also re-runs the fit
// with an 8-way concurrent batch evaluator and requires the result to
// be bit-identical to the serial fit — the determinism contract
// extended through the estimator.
var expE29Estimate = Experiment{
	ID:     "E29",
	Title:  "inverse parameter estimation (coarse-to-fine ICC fit vs planted ground truth)",
	Source: "engineering extension (inverse problem per Lega's ICC parameter estimation)",
	Claim:  "for truths on the coarse lattice the fit recovers the planted loss and churn exactly (ICC residual 0) on every family and regime, bit-identically at any batch concurrency",
	Run:    runE29,
}

// e29Regime is one planted ground truth.
type e29Regime struct {
	name  string
	truth estimate.Candidate
}

func runE29(ctx context.Context, cfg Config) (*Table, error) {
	families := []graphgen.Spec{
		{Family: "dumbbell", N: 12, Latency: 2},
		{Family: "grid", N: 25, Latency: 1},
		{Family: "er", N: 24, Latency: 1, P: 0.25},
	}
	// The planted faults are the strong ends of their axes: weaker ones
	// (loss 0.15, churn 2) are occasionally invisible in InformedAt at
	// these scales — the fault perturbs no first-delivery — which makes
	// the inverse problem genuinely unidentifiable for that seed, not
	// merely hard.
	regimes := []e29Regime{
		{"benign", estimate.Candidate{Scale: 1}},
		{"lossy", estimate.Candidate{Loss: 0.3, Scale: 1}},
		{"churny", estimate.Candidate{Churn: 4, Scale: 1}},
	}
	if cfg.Quick {
		families = families[:2]
	}
	// The lattice contains every planted truth: loss 0/0.15/0.3, churn
	// 0/4, scale 1. The churn axis is deliberately two-step: at these
	// scales churn 2 and churn 4 occasionally produce ICC-identical
	// curves, and a coarse lattice with both would sometimes return the
	// equally-consistent smaller intensity. Refinement still explores
	// intermediate intensities, but the strict-improvement cold verify
	// cannot displace the coarse truth on a tie.
	grid := estimate.Grid{LossMax: 0.3, LossSteps: 3, ChurnMax: 4, ChurnSteps: 2, Scales: []int{1}}

	names := cellNames(len(families)*len(regimes), func(i int) string {
		return fmt.Sprintf("%s/%s", families[i/len(regimes)].Family, regimes[i%len(regimes)].name)
	})
	cells, err := runGrid(ctx, cfg, "E29", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			spec := families[c.CellIndex/len(regimes)]
			regime := regimes[c.CellIndex%len(regimes)]
			spec.Seed = seed
			g, err := graphgen.BuildCSR(spec)
			if err != nil {
				return runner.Sample{}, err
			}
			n := g.N()
			base := gossip.DriverOptions{Source: 0, Seed: seed, MaxRounds: 1 << 14, ExecOptions: gossip.ExecOptions{CSR: g}}

			evalCold := func(cand estimate.Candidate) (curve.Curve, error) {
				opts := base
				opts.Adversity = cand.Spec(n, base.Source)
				res, err := gossip.Dispatch("push-pull", nil, opts)
				if err != nil {
					return nil, err
				}
				return curve.FromInformedAt(res.InformedAt), nil
			}
			// Warm refinement scoring: one prefix forked at the churn
			// leave round, resumed per candidate — the same continuation
			// the service uses.
			w, err := gossip.Fork("push-pull", base, estimate.ChurnLeave)
			if err != nil {
				return runner.Sample{}, err
			}
			evalWarm := func(cand estimate.Candidate) (curve.Curve, error) {
				opts := base
				opts.Adversity = cand.Spec(n, base.Source)
				res, err := w.Resume(opts)
				if err != nil {
					return nil, err
				}
				return curve.FromInformedAt(res.InformedAt), nil
			}

			observed, err := evalCold(regime.truth)
			if err != nil {
				return runner.Sample{}, err
			}
			fit := func(batch func(string, []estimate.Candidate, func(estimate.Candidate) (curve.Curve, error)) ([]estimate.BatchOut, error)) (*estimate.Result, error) {
				return estimate.Fit(estimate.Config{
					Observed: observed,
					Grid:     grid,
					Refine:   1,
					EvalCold: evalCold,
					EvalWarm: evalWarm,
					Batch:    batch,
				})
			}
			serial, err := fit(nil)
			if err != nil {
				return runner.Sample{}, err
			}
			concurrent, err := fit(concurrentBatch(8))
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"loss":      serial.Best.Loss,
				"churn":     float64(serial.Best.Churn),
				"score":     serial.Score,
				"evals":     float64(serial.Evaluated),
				"recovered": b2f(serial.Best == regime.truth && serial.Score == 0),
				"agree":     b2f(reflect.DeepEqual(serial, concurrent)),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"cell", "fitted loss", "fitted churn", "residual", "evals", "exact recovery", "serial ≡ 8-way",
	}}
	for i, name := range names {
		cell := &cells[i]
		tbl.AddRow(name, cell.Mean("loss"), cell.Mean("churn"), cell.Mean("score"),
			cell.Mean("evals"), cell.Min("recovered") == 1, cell.Min("agree") == 1)
	}
	tbl.AddNote("lattice: loss {0, 0.15, 0.3} × churn {0, 4} × scale {1}, one warm refinement pass, cold-verified winner")
	tbl.AddNote("exact recovery holds because an on-lattice truth reproduces its own observation bit-for-bit (residual 0) and score ties break benign-first")
	return tbl, nil
}

// concurrentBatch evaluates a fit stage with up to width goroutines,
// outcomes in index order — the experiment's stand-in for the service's
// pool fan-out.
func concurrentBatch(width int) func(string, []estimate.Candidate, func(estimate.Candidate) (curve.Curve, error)) ([]estimate.BatchOut, error) {
	return func(_ string, cands []estimate.Candidate, eval func(estimate.Candidate) (curve.Curve, error)) ([]estimate.BatchOut, error) {
		outs := make([]estimate.BatchOut, len(cands))
		sem := make(chan struct{}, width)
		done := make(chan int)
		for i := range cands {
			go func(i int) {
				sem <- struct{}{}
				cv, err := eval(cands[i])
				outs[i] = estimate.BatchOut{Curve: cv, Err: err}
				<-sem
				done <- i
			}(i)
		}
		for range cands {
			<-done
		}
		return outs, nil
	}
}
