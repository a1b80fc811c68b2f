package conductance

import (
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// The dumbbell's critical cut must separate the two cliques.
func TestExactCriticalCutIsBridgeCut(t *testing.T) {
	g := graphgen.Dumbbell(5, 20)
	res, err := Exact(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCut == nil {
		t.Fatal("no critical cut recorded")
	}
	// Verify the recorded cut actually attains φ_{ℓ*}.
	got := WeightLCutConductance(g.CSR(), Cut{InU: res.CriticalCut}, res.EllStar)
	if diff := got - res.PhiL[res.EllStar]; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("recorded cut has φ = %v, want %v", got, res.PhiL[res.EllStar])
	}
	// All of clique A on one side, clique B on the other.
	side0 := res.CriticalCut[0]
	for u := 1; u < 5; u++ {
		if res.CriticalCut[u] != side0 {
			t.Fatalf("clique A split by critical cut: %v", res.CriticalCut)
		}
	}
	for u := 5; u < 10; u++ {
		if res.CriticalCut[u] == side0 {
			t.Fatalf("clique B not separated: %v", res.CriticalCut)
		}
	}
}

// minCutConductance enumerates every cut of g (n ≤ 20) and returns the
// least value of f over them.
func minCutConductance(g *graph.CSR, f func(Cut) float64) float64 {
	n := g.N()
	best := math.Inf(1)
	for mask := 1; mask < 1<<(n-1); mask++ {
		c := Cut{InU: make([]bool, n)}
		for u := 0; u < n-1; u++ {
			c.InU[u] = mask&(1<<u) != 0
		}
		best = math.Min(best, f(c))
	}
	return best
}

// Exact's φavg is the per-class sum Σᵢ φ_{2^i}/2^i, each φ_{2^i}
// enumerated here straight from Definition 1 at the threshold 2^i.
func TestExactPhiAvgIsClassSum(t *testing.T) {
	rng := graphgen.NewRand(19)
	g, err := graphgen.ErdosRenyi(12, 0.5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 20, rng)
	c := g.CSR()
	res, err := Exact(c)
	if err != nil {
		t.Fatal(err)
	}
	want, classes := 0.0, map[int]bool{}
	c.ForEachEdge(func(_, _, l int) { classes[LatencyClass(l)] = true })
	for class := range classes {
		bound := 1 << class
		phi := minCutConductance(c, func(cut Cut) float64 { return WeightLCutConductance(c, cut, bound) })
		want += phi / float64(bound)
	}
	if math.Abs(res.PhiAvg-want) > 1e-12 || res.NonEmptyClasses != len(classes) {
		t.Fatalf("φavg = %v over %d classes, want %v over %d", res.PhiAvg, res.NonEmptyClasses, want, len(classes))
	}
}

// The estimator's φavg is the same per-class sum, over its own φℓ upper
// bounds.
func TestEstimateCutsConsistent(t *testing.T) {
	c := graphgen.Dumbbell(14, 40).CSR() // 28 nodes: estimation path
	res, err := Estimate(c, EstimateOptions{Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if res.CriticalCut != nil {
		got := WeightLCutConductance(c, Cut{InU: res.CriticalCut}, res.EllStar)
		if diff := got - res.PhiL[res.EllStar]; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("estimator critical cut φ = %v, reported %v", got, res.PhiL[res.EllStar])
		}
	}
	want := 0.0
	for class := 1; class <= res.Classes(); class++ {
		below := 0 // the largest distinct latency ≤ 2^class in the class
		for l := range res.PhiL {
			if LatencyClass(l) == class && l > below {
				below = l
			}
		}
		if below > 0 {
			want += res.PhiL[below] / float64(int(1)<<class)
		}
	}
	if diff := res.PhiAvg - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("estimator φavg = %v, per-class sum of its φℓ = %v", res.PhiAvg, want)
	}
}

// fourCliques is four K₄ (latency 1) in two halves, each half's pair
// joined by a latency-1 bridge, and a latency-8 perfect matching across
// the halves.
func fourCliques() *graph.CSR {
	g := graph.New(16)
	for k := 0; k < 4; k++ {
		for u := 4 * k; u < 4*k+4; u++ {
			for v := u + 1; v < 4*k+4; v++ {
				g.MustAddEdge(u, v, 1)
			}
		}
	}
	g.MustAddEdge(0, 4, 1)
	g.MustAddEdge(8, 12, 1)
	for u := 0; u < 8; u++ {
		g.MustAddEdge(u, u+8, 8)
	}
	return g.CSR()
}

// Theorem 5's φavg is the per-class sum, not the one cut minimizing the
// class-weighted crossing count over its smaller volume: on these two
// graphs that single-cut value breaks the theorem's upper half
// φavg ≤ L·φ*/ℓ*, while Result.PhiAvg keeps both halves.
func TestPhiAvgIsNotOneCut(t *testing.T) {
	rng := graphgen.NewRand(0xd4ba3c732fb3931a) // as TestQuickTheorem5 draws it
	er, err := graphgen.ErdosRenyi(6+int(uint64(0xd4ba3c732fb3931a)%7), 0.5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 40, rng)
	for _, tc := range []struct {
		name string
		c    *graph.CSR
		// ratio is the one-cut value over Lφ*/ℓ*.
		ratio float64
	}{{"seed 0xd4ba3c732fb3931a", er.CSR(), 1.09375}, {"four K4", fourCliques(), 2}} {
		name, c := tc.name, tc.c
		res, err := Exact(c)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.CheckTheorem5(); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		oneCut := minCutConductance(c, func(cut Cut) float64 { return AvgCutConductance(c, cut) })
		upper := float64(res.NonEmptyClasses) * res.PhiStar / float64(res.EllStar)
		if math.Abs(oneCut/upper-tc.ratio) > 1e-12 {
			t.Errorf("%s: the one-cut φavg is %v·Lφ*/ℓ*, want %v·Lφ*/ℓ*", name, oneCut/upper, tc.ratio)
		}
	}
}

func TestEstimateDisconnectedWitness(t *testing.T) {
	g := graphgen.Dumbbell(13, 50) // estimation path; G_1 disconnected
	res, err := Estimate(g.CSR(), EstimateOptions{Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	if res.PhiL[1] != 0 {
		t.Fatalf("φ_1 = %v", res.PhiL[1])
	}
	if res.EllStar == 1 {
		t.Fatal("ℓ* should not be the zero-conductance class")
	}
}
