package conductance

import (
	"math"
	"testing"
	"testing/quick"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

func TestLatencyClass(t *testing.T) {
	tests := []struct{ lat, want int }{
		{1, 1}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4}, {16, 4}, {17, 5}, {1024, 10},
	}
	for _, tt := range tests {
		if got := LatencyClass(tt.lat); got != tt.want {
			t.Fatalf("LatencyClass(%d) = %d, want %d", tt.lat, got, tt.want)
		}
	}
}

func TestLatencyClassPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	LatencyClass(0)
}

// Unit-latency clique: φ* must equal the classical conductance and ℓ*=1.
// For K_n (n even), the minimum cut conductance is the half split:
// (n/2)² / (n/2·(n-1)).
func TestCliqueUnitLatency(t *testing.T) {
	g := graphgen.Clique(8, 1)
	res, err := Exact(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	want := 16.0 / (4 * 7)
	if math.Abs(res.PhiStar-want) > 1e-9 {
		t.Fatalf("φ* = %v, want %v", res.PhiStar, want)
	}
	if res.EllStar != 1 {
		t.Fatalf("ℓ* = %d, want 1", res.EllStar)
	}
	// Definition 4 remark: with unit latencies φavg is exactly half of
	// the classical conductance.
	if math.Abs(res.PhiAvg-want/2) > 1e-9 {
		t.Fatalf("φavg = %v, want %v", res.PhiAvg, want/2)
	}
	if res.NonEmptyClasses != 1 {
		t.Fatalf("L = %d, want 1", res.NonEmptyClasses)
	}
	if err := res.CheckTheorem5(); err != nil {
		t.Fatal(err)
	}
}

// Dumbbell: the bottleneck cut is the bridge. φ_ℓ for ℓ >= bridge latency
// is 1/Vol(half) and φ_1 = 0 (no latency-1 edge crosses the middle...
// actually φ_1 counts only the latency<=1 cut edges on every cut; the
// bridge cut has none).
func TestDumbbellConductance(t *testing.T) {
	g := graphgen.Dumbbell(4, 16)
	res, err := Exact(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	// Bridge cut: one side = clique of 4 with vol 4*3+1 = 13.
	wantPhi16 := 1.0 / 13.0
	if math.Abs(res.PhiL[16]-wantPhi16) > 1e-9 {
		t.Fatalf("φ_16 = %v, want %v", res.PhiL[16], wantPhi16)
	}
	if res.PhiL[1] != 0 {
		t.Fatalf("φ_1 = %v, want 0 (bridge cut has no fast edge)", res.PhiL[1])
	}
	// φ*/ℓ* maximization: φ_16/16 vs φ_1/1=0 → ℓ*=16.
	if res.EllStar != 16 {
		t.Fatalf("ℓ* = %d, want 16", res.EllStar)
	}
	if err := res.CheckTheorem5(); err != nil {
		t.Fatal(err)
	}
}

func TestWeightLCutConductance(t *testing.T) {
	g := graphgen.Dumbbell(3, 10)
	cut := NewCut(g.N(), []graph.NodeID{0, 1, 2})
	// One cut edge (the bridge, latency 10); min volume = 3*2+1 = 7.
	if got := WeightLCutConductance(g.CSR(), cut, 10); math.Abs(got-1.0/7) > 1e-9 {
		t.Fatalf("φ_10(C) = %v, want 1/7", got)
	}
	if got := WeightLCutConductance(g.CSR(), cut, 9); got != 0 {
		t.Fatalf("φ_9(C) = %v, want 0", got)
	}
}

func TestAvgCutConductance(t *testing.T) {
	g := graphgen.Dumbbell(3, 10)
	cut := NewCut(g.N(), []graph.NodeID{0, 1, 2})
	// Bridge latency 10 is in class 4 (2^3 < 10 <= 2^4): weight 1/16.
	want := (1.0 / 16) / 7
	if got := AvgCutConductance(g.CSR(), cut); math.Abs(got-want) > 1e-12 {
		t.Fatalf("φavg(C) = %v, want %v", got, want)
	}
}

func TestCutPanicsOnEmptySide(t *testing.T) {
	g := graphgen.Clique(3, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	WeightLCutConductance(g.CSR(), NewCut(3, nil), 1)
}

func TestExactErrors(t *testing.T) {
	big := graphgen.Path(MaxExactN+1, 1)
	if _, err := Exact(big.CSR()); err == nil {
		t.Fatal("oversized graph should error")
	}
}

// φℓ must be monotone non-decreasing in ℓ.
func TestPhiLMonotone(t *testing.T) {
	rng := graphgen.NewRand(31)
	g, err := graphgen.ErdosRenyi(12, 0.4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 12, rng)
	res, err := Exact(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	lats := g.CSR().DistinctLatencies()
	for i := 1; i < len(lats); i++ {
		if res.PhiL[lats[i]] < res.PhiL[lats[i-1]]-1e-12 {
			t.Fatalf("φ_%d = %v < φ_%d = %v", lats[i], res.PhiL[lats[i]], lats[i-1], res.PhiL[lats[i-1]])
		}
	}
}

// Theorem 5 must hold on random weighted graphs (property-based).
func TestQuickTheorem5(t *testing.T) {
	f := func(seed uint64) bool {
		rng := graphgen.NewRand(seed)
		n := 6 + int(seed%7)
		g, err := graphgen.ErdosRenyi(n, 0.5, 1, rng)
		if err != nil {
			return true // resampling failed; skip
		}
		graphgen.AssignRandomLatencies(g, 1, 40, rng)
		res, err := Exact(g.CSR())
		if err != nil {
			return false
		}
		return res.CheckTheorem5() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Scaling all latencies by a constant must leave φ* unchanged while
// scaling ℓ* (conductance is a structural quantity; the critical ratio
// φ*/ℓ* scales inversely).
func TestCriticalScaling(t *testing.T) {
	rng := graphgen.NewRand(77)
	g, err := graphgen.ErdosRenyi(10, 0.5, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 6, rng)
	res1, err := Exact(g.CSR())
	if err != nil {
		t.Fatal(err)
	}
	scaled := graph.New(g.N())
	for _, e := range g.Edges() {
		scaled.MustAddEdge(e.U, e.V, e.Latency*3)
	}
	res3, err := Exact(scaled.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res1.PhiStar-res3.PhiStar) > 1e-9 {
		t.Fatalf("φ* changed under scaling: %v -> %v", res1.PhiStar, res3.PhiStar)
	}
	if res3.EllStar != 3*res1.EllStar {
		t.Fatalf("ℓ* = %d after scaling, want %d", res3.EllStar, 3*res1.EllStar)
	}
}

func TestResultClasses(t *testing.T) {
	r := Result{MaxLatency: 10}
	if r.Classes() != 4 {
		t.Fatalf("Classes() = %d, want 4", r.Classes())
	}
	r.MaxLatency = 2
	if r.Classes() != 1 {
		t.Fatalf("Classes() = %d, want 1", r.Classes())
	}
}
