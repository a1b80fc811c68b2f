package conductance

import (
	"math"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// The Theorem 13 ring construction comes with exact analytic claims
// (Observation 14, Lemmas 15-17, Corollary 18). Small instances fit
// inside the exact cut enumeration, so we can check them directly.

// halfRingCut builds the cut of Lemma 15: the ring split into two equal
// halves of consecutive layers, no intra-clique edges cut.
func halfRingCut(r *graphgen.RingNetwork) Cut {
	var side []graph.NodeID
	for layer := 0; layer < r.Layers/2; layer++ {
		for j := 0; j < r.Size; j++ {
			side = append(side, r.Node(layer, j))
		}
	}
	return NewCut(r.Graph.N(), side)
}

// Lemma 15: φℓ(C) = α for the half-ring cut, with
// α = 2s² / ((k/2)·s·(3s-1)).
func TestLemma15HalfRingCut(t *testing.T) {
	rng := graphgen.NewRand(3)
	for _, tc := range []struct{ k, s, ell int }{
		{4, 2, 9}, {4, 3, 16}, {6, 3, 25},
	} {
		r, err := graphgen.NewRingNetwork(tc.k, tc.s, tc.ell, rng)
		if err != nil {
			t.Fatal(err)
		}
		cut := halfRingCut(r)
		got := WeightLCutConductance(r.Graph.CSR(), cut, tc.ell)
		want := r.Alpha()
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("k=%d s=%d: φℓ(C) = %v, want α = %v", tc.k, tc.s, got, want)
		}
	}
}

// Observation 14 + Lemma 16: the exact φℓ of the whole ring is Θ(α); the
// half-ring cut is in fact the minimizer for these small instances.
func TestLemma16ExactRingConductance(t *testing.T) {
	rng := graphgen.NewRand(5)
	r, err := graphgen.NewRingNetwork(4, 2, 9, rng) // 8 nodes: exact is cheap
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(r.Graph.CSR())
	if err != nil {
		t.Fatal(err)
	}
	alpha := r.Alpha()
	phi := res.PhiL[9]
	if phi > alpha+1e-9 {
		t.Fatalf("exact φℓ = %v exceeds the half-ring cut value α = %v", phi, alpha)
	}
	if phi < alpha/8 {
		t.Fatalf("exact φℓ = %v far below Θ(α) = %v", phi, alpha)
	}
}

// Lemma 17: for ℓ = O((cnα)²) the critical latency is ℓ itself (the
// slow-edge class is the critical one).
func TestLemma17CriticalLatency(t *testing.T) {
	rng := graphgen.NewRand(7)
	// s=3 → s² = 9; pick ℓ < ~9·constant.
	r, err := graphgen.NewRingNetwork(6, 3, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(r.Graph.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if res.EllStar != 8 {
		t.Fatalf("ℓ* = %d, want the slow latency 8 (Lemma 17)", res.EllStar)
	}
}

// The flip side of Lemma 17: when ℓ is far beyond the O((cnα)²) range,
// the fast class wins the φℓ/ℓ maximization and ℓ* = 1.
func TestLemma17BreaksForHugeEll(t *testing.T) {
	rng := graphgen.NewRand(9)
	r, err := graphgen.NewRingNetwork(6, 3, 4096, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(r.Graph.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if res.EllStar != 1 {
		t.Fatalf("ℓ* = %d, want 1 when the slow class is hopeless", res.EllStar)
	}
}

// Corollary 18: with exactly two non-empty latency classes,
// φavg = Θ(φ*/ℓ*) — the Theorem 5 sandwich collapses to a factor 4.
func TestCorollary18TwoClasses(t *testing.T) {
	rng := graphgen.NewRand(11)
	r, err := graphgen.NewRingNetwork(4, 3, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(r.Graph.CSR())
	if err != nil {
		t.Fatal(err)
	}
	if res.NonEmptyClasses != 2 {
		t.Fatalf("L = %d, want 2", res.NonEmptyClasses)
	}
	ratio := res.PhiAvg / (res.PhiStar / float64(res.EllStar))
	if ratio < 0.5-1e-9 || ratio > 2+1e-9 {
		t.Fatalf("φavg/(φ*/ℓ*) = %v, want within [1/2, 2] (Corollary 18)", ratio)
	}
}

// The guessing-game gadget of Theorem 10 (Figure 1a) was designed to have
// φℓ = Θ(φ) at the fast latency: verify exactly on a tiny instance.
func TestTheorem10GadgetExact(t *testing.T) {
	rng := graphgen.NewRand(13)
	net, err := graphgen.NewTheorem10Network(8, 2, 4096, 0.5, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Exact(net.Graph.CSR())
	if err != nil {
		t.Fatal(err)
	}
	phi := res.PhiL[2]
	if phi < 0.5/8 || phi > 0.5*2 {
		t.Fatalf("gadget exact φ_2 = %v, designed Θ(0.5)", phi)
	}
	if err := res.CheckTheorem5(); err != nil {
		t.Fatal(err)
	}
}
