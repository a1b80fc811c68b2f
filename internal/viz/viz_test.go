package viz

import (
	"strings"
	"testing"
)

func TestSparklineBasics(t *testing.T) {
	if Sparkline(nil) != "" {
		t.Fatal("empty input should render empty")
	}
	s := Sparkline([]float64{0, 1, 2, 3, 4, 5, 6, 7})
	runes := []rune(s)
	if len(runes) != 8 {
		t.Fatalf("len = %d", len(runes))
	}
	if runes[0] != '▁' || runes[7] != '█' {
		t.Fatalf("scale endpoints wrong: %q", s)
	}
	// Monotone input must be monotone in levels.
	for i := 1; i < len(runes); i++ {
		if runes[i] < runes[i-1] {
			t.Fatalf("non-monotone sparkline %q", s)
		}
	}
}

func TestSparklineConstant(t *testing.T) {
	s := Sparkline([]float64{5, 5, 5})
	for _, r := range s {
		if r != '▁' {
			t.Fatalf("constant series should render flat: %q", s)
		}
	}
}

func TestSparklineInts(t *testing.T) {
	if SparklineInts([]int{1, 2}) == "" {
		t.Fatal("empty output for non-empty input")
	}
}

func TestDownsample(t *testing.T) {
	xs := []float64{1, 9, 2, 3, 8, 4}
	out := Downsample(xs, 3)
	if len(out) != 3 {
		t.Fatalf("len = %d", len(out))
	}
	// Bucket maxima: max(1,9)=9, max(2,3)=3, max(8,4)=8.
	if out[0] != 9 || out[1] != 3 || out[2] != 8 {
		t.Fatalf("Downsample = %v", out)
	}
	same := Downsample(xs, 10)
	if len(same) != len(xs) {
		t.Fatal("short input should pass through")
	}
	same[0] = 99
	if xs[0] == 99 {
		t.Fatal("pass-through must copy")
	}
}

func TestCurve(t *testing.T) {
	out := Curve("spread", []int{1, 2, 4, 8}, 20)
	if !strings.Contains(out, "spread") || !strings.Contains(out, "final 8") || !strings.Contains(out, "3 rounds") {
		t.Fatalf("Curve = %q", out)
	}
}
