package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		xs   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"pair", []float64{1, 3}, 2},
		{"negative", []float64{-2, 2}, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := Mean(tt.xs); !almostEqual(got, tt.want, 1e-12) {
				t.Fatalf("Mean(%v) = %v, want %v", tt.xs, got, tt.want)
			}
		})
	}
}

func TestStddev(t *testing.T) {
	if got := Stddev([]float64{2, 4, 4, 4, 5, 5, 7, 9}); !almostEqual(got, 2.13809, 1e-4) {
		t.Fatalf("Stddev = %v, want ~2.138", got)
	}
	if Stddev([]float64{1}) != 0 {
		t.Fatal("Stddev of single sample should be 0")
	}
}

func TestPercentile(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	tests := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {1, 5}, {0.5, 3}, {0.25, 2}, {0.125, 1.5},
	}
	for _, tt := range tests {
		if got := Percentile(sorted, tt.p); !almostEqual(got, tt.want, 1e-12) {
			t.Fatalf("Percentile(%v) = %v, want %v", tt.p, got, tt.want)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.N != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("Summarize basics wrong: %+v", s)
	}
	if !almostEqual(s.Mean, 2.5, 1e-12) || !almostEqual(s.Median, 2.5, 1e-12) {
		t.Fatalf("Summarize central tendency wrong: %+v", s)
	}
}

func TestSummarizeEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Summarize(nil)
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{3, 5, 7, 9} // y = 2x+1
	fit, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(fit.Slope, 2, 1e-9) || !almostEqual(fit.Intercept, 1, 1e-9) {
		t.Fatalf("fit = %+v, want slope 2 intercept 1", fit)
	}
	if !almostEqual(fit.R2, 1, 1e-9) {
		t.Fatalf("R2 = %v, want 1", fit.R2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for single point")
	}
	if _, err := LinearFit([]float64{1, 2}, []float64{1}); err == nil {
		t.Fatal("expected error for mismatched lengths")
	}
	if _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("expected error for constant x")
	}
}

func TestPowerLawFit(t *testing.T) {
	// y = 3 x^2
	xs := []float64{1, 2, 4, 8, 16}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3 * x * x
	}
	e, c, r2, err := PowerLawFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(e, 2, 1e-9) || !almostEqual(c, 3, 1e-9) || !almostEqual(r2, 1, 1e-9) {
		t.Fatalf("PowerLawFit = (%v,%v,%v)", e, c, r2)
	}
	if _, _, _, err := PowerLawFit([]float64{0, 1}, []float64{1, 1}); err == nil {
		t.Fatal("expected error for non-positive x")
	}
}

func TestQuickSummaryInvariants(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		s := Summarize(xs)
		if s.Mean < s.Min-1e-9 || s.Mean > s.Max+1e-9 {
			return false
		}
		return s.P10 <= s.Median+1e-9 && s.Median <= s.P90+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
