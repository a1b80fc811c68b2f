package experiments

import (
	"context"
	"gossip/internal/conductance"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
)

// expE1Theorem5 verifies the Theorem 5 sandwich
// φ*/2ℓ* <= φavg <= L·φ*/ℓ* across structurally different families.
var expE1Theorem5 = Experiment{
	ID:     "E1",
	Title:  "critical vs average weighted conductance",
	Source: "Theorem 5",
	Claim:  "φ*/2ℓ* ≤ φavg ≤ L·φ*/ℓ*  (Theorem 5)",
	Run:    runE1,
}

func runE1(ctx context.Context, cfg Config) (*Table, error) {
	rng := graphgen.NewRand(cfg.Seed)
	er, err := graphgen.ErdosRenyi(14, 0.4, 1, rng)
	if err != nil {
		return nil, err
	}
	graphgen.AssignRandomLatencies(er, 1, 32, rng)
	ring, err := graphgen.NewRingNetwork(4, 4, 12, rng)
	if err != nil {
		return nil, err
	}
	cases := []struct {
		name string
		c    *graph.CSR
	}{
		{"clique(10,ℓ=1)", graphgen.Clique(10, 1).CSR()},
		{"clique(10,ℓ=7)", graphgen.Clique(10, 7).CSR()},
		{"dumbbell(8,ℓ=32)", graphgen.Dumbbell(8, 32).CSR()},
		{"star(14,ℓ=5)", graphgen.Star(14, 5).CSR()},
		{"cycle(14,ℓ=3)", graphgen.Cycle(14, 3).CSR()},
		{"grid(4x4,ℓ=2)", graphgen.Grid(4, 4, 2).CSR()},
		{"er(14,rand ℓ≤32)", er.CSR()},
		{"ring(k=4,s=4,ℓ=12)", ring.Graph.CSR()},
	}
	names := cellNames(len(cases), func(i int) string { return cases[i].name })
	// Exact cut enumeration is deterministic, so one trial per cell; the
	// runner still fans the eight enumerations across cores.
	cells, err := runGrid(ctx, cfg, "E1", names, 1,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			res, err := conductance.Exact(cases[c.CellIndex].c)
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"phiStar": res.PhiStar,
				"ellStar": float64(res.EllStar),
				"classes": float64(res.NonEmptyClasses),
				"phiAvg":  res.PhiAvg,
				"holds":   b2f(res.CheckTheorem5() == nil),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"graph", "φ*", "ℓ*", "L", "φavg", "φ*/2ℓ*", "Lφ*/ℓ*", "holds"}}
	violations := 0
	for i := range cells {
		c := &cells[i]
		phiStar, ellStar := c.Mean("phiStar"), c.Mean("ellStar")
		lower := phiStar / (2 * ellStar)
		upper := c.Mean("classes") * phiStar / ellStar
		holds := c.Min("holds") == 1
		if !holds {
			violations++
		}
		tbl.AddRow(c.Name, phiStar, int(ellStar), int(c.Mean("classes")),
			c.Mean("phiAvg"), lower, upper, holds)
	}
	if violations == 0 {
		tbl.AddNote("Theorem 5 holds on all %d families (exact cut enumeration)", len(cases))
	} else {
		tbl.AddNote("VIOLATIONS: %d (investigate)", violations)
	}
	return tbl, nil
}
