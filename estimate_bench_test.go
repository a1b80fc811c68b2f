// Estimate benchmark: one full coarse-to-fine inverse fit (the
// machinery behind POST /v1/estimates) per iteration — cold grid pass,
// one warm-start refinement pass over a forked prefix, cold
// verification of the incumbent. In the bench-json artifact and the CI
// bench-regression gate; correctness (exact recovery of the planted
// truth) is asserted inside the loop so a regression can never hide
// behind a faster wrong answer.
package gossip_test

import (
	"testing"

	"gossip/internal/curve"
	"gossip/internal/estimate"
	proto "gossip/internal/gossip"
	"gossip/internal/graphgen"
)

// BenchmarkEstimateFit plants loss=0.3 on the E29 grid family and times
// the full fit. The evals metric is the number of candidate simulations
// per fit (grid + refinement + verify) — the quantity the warm-start
// refinement keeps cheap.
func BenchmarkEstimateFit(b *testing.B) {
	g, err := graphgen.BuildCSR(graphgen.Spec{Family: "grid", N: 25, Latency: 1, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	n := g.N()
	base := proto.DriverOptions{Source: 0, Seed: 7, MaxRounds: 1 << 14, ExecOptions: proto.ExecOptions{CSR: g}}
	truth := estimate.Candidate{Loss: 0.3, Scale: 1}
	grid := estimate.Grid{LossMax: 0.3, LossSteps: 3, ChurnMax: 4, ChurnSteps: 2, Scales: []int{1}}

	evalCold := func(cand estimate.Candidate) (curve.Curve, error) {
		opts := base
		opts.Adversity = cand.Spec(n, base.Source)
		res, err := proto.Dispatch("push-pull", nil, opts)
		if err != nil {
			return nil, err
		}
		return curve.FromInformedAt(res.InformedAt), nil
	}
	observed, err := evalCold(truth)
	if err != nil {
		b.Fatal(err)
	}

	b.ReportAllocs()
	var evals int
	for i := 0; i < b.N; i++ {
		w, err := proto.Fork("push-pull", base, estimate.ChurnLeave)
		if err != nil {
			b.Fatal(err)
		}
		res, err := estimate.Fit(estimate.Config{
			Observed: observed,
			Grid:     grid,
			Refine:   1,
			EvalCold: evalCold,
			EvalWarm: func(cand estimate.Candidate) (curve.Curve, error) {
				opts := base
				opts.Adversity = cand.Spec(n, base.Source)
				r, err := w.Resume(opts)
				if err != nil {
					return nil, err
				}
				return curve.FromInformedAt(r.InformedAt), nil
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Best != truth || res.Score != 0 {
			b.Fatalf("fit missed planted truth: best %+v score %g", res.Best, res.Score)
		}
		evals = res.Evaluated
	}
	b.ReportMetric(float64(evals), "evals")
}
