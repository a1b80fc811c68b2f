// Package viz renders tiny text visualizations — sparklines — used by
// the CLI tools and examples to show spreading curves without any
// plotting dependency.
package viz

import (
	"fmt"
	"strings"
)

// sparkLevels are the eight block characters from lowest to highest.
var sparkLevels = []rune("▁▂▃▄▅▆▇█")

// Sparkline renders xs as a unicode sparkline. Values are scaled to the
// min..max range; an empty input yields an empty string.
func Sparkline(xs []float64) string {
	if len(xs) == 0 {
		return ""
	}
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	var b strings.Builder
	for _, x := range xs {
		idx := 0
		if hi > lo {
			idx = int((x - lo) / (hi - lo) * float64(len(sparkLevels)-1))
		}
		if idx < 0 {
			idx = 0
		}
		if idx >= len(sparkLevels) {
			idx = len(sparkLevels) - 1
		}
		b.WriteRune(sparkLevels[idx])
	}
	return b.String()
}

// SparklineInts is Sparkline for integer series.
func SparklineInts(xs []int) string {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return Sparkline(fs)
}

// Downsample reduces xs to at most width points by taking the maximum of
// each bucket (so peaks survive), preserving order.
func Downsample(xs []float64, width int) []float64 {
	if width <= 0 || len(xs) <= width {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, width)
	for i := 0; i < width; i++ {
		lo := i * len(xs) / width
		hi := (i + 1) * len(xs) / width
		if hi <= lo {
			hi = lo + 1
		}
		max := xs[lo]
		for _, x := range xs[lo:hi] {
			if x > max {
				max = x
			}
		}
		out[i] = max
	}
	return out
}

// Curve renders an integer time series (e.g. a spreading curve) as a
// sparkline with a compact caption: final value and length.
func Curve(name string, xs []int, width int) string {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	ds := Downsample(fs, width)
	last := 0
	if len(xs) > 0 {
		last = xs[len(xs)-1]
	}
	return fmt.Sprintf("%s %s (%d rounds, final %d)", name, Sparkline(ds), len(xs)-1, last)
}
