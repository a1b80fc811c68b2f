// Package stats provides the small statistical toolkit used by the
// experiment harness: summaries over repeated trials, percentiles, and
// least-squares fits (including log-log fits for scaling exponents).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary holds descriptive statistics for a sample.
type Summary struct {
	N      int
	Mean   float64
	Median float64
	Min    float64
	Max    float64
	Stddev float64
	P10    float64
	P90    float64
}

// Summarize computes a Summary for xs. It panics on an empty sample:
// every call site controls its trial count, so an empty sample is a bug.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		panic("stats: empty sample")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	s := Summary{
		N:      len(xs),
		Mean:   Mean(xs),
		Median: Percentile(sorted, 0.5),
		Min:    sorted[0],
		Max:    sorted[len(sorted)-1],
		P10:    Percentile(sorted, 0.10),
		P90:    Percentile(sorted, 0.90),
	}
	s.Stddev = Stddev(xs)
	return s
}

// Mean returns the arithmetic mean of xs (0 for an empty slice).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Stddev returns the sample standard deviation of xs (0 when len < 2).
func Stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	ss := 0.0
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(xs)-1))
}

// Percentile returns the p-quantile (p in [0,1]) of an ascending-sorted
// sample using linear interpolation between order statistics.
func Percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		panic("stats: percentile of empty sample")
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Fit holds a least-squares line y = Slope*x + Intercept and its R².
type Fit struct {
	Slope     float64
	Intercept float64
	R2        float64
}

// LinearFit computes the ordinary least-squares fit of ys on xs.
func LinearFit(xs, ys []float64) (Fit, error) {
	if len(xs) != len(ys) {
		return Fit{}, fmt.Errorf("stats: mismatched lengths %d and %d", len(xs), len(ys))
	}
	if len(xs) < 2 {
		return Fit{}, fmt.Errorf("stats: need at least 2 points, got %d", len(xs))
	}
	mx, my := Mean(xs), Mean(ys)
	var sxx, sxy, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return Fit{}, fmt.Errorf("stats: degenerate fit, all x equal")
	}
	slope := sxy / sxx
	fit := Fit{Slope: slope, Intercept: my - slope*mx}
	if syy == 0 {
		fit.R2 = 1
	} else {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	}
	return fit, nil
}

// PowerLawFit fits y = c * x^e by least squares in log-log space and
// returns the exponent e, the constant c, and the log-space R².
// All xs and ys must be strictly positive.
func PowerLawFit(xs, ys []float64) (exponent, constant, r2 float64, err error) {
	lx := make([]float64, len(xs))
	ly := make([]float64, len(ys))
	for i := range xs {
		if xs[i] <= 0 || i >= len(ys) || ys[i] <= 0 {
			return 0, 0, 0, fmt.Errorf("stats: power-law fit needs positive data (x=%v)", xs[i])
		}
		lx[i] = math.Log(xs[i])
		ly[i] = math.Log(ys[i])
	}
	fit, err := LinearFit(lx, ly)
	if err != nil {
		return 0, 0, 0, err
	}
	return fit.Slope, math.Exp(fit.Intercept), fit.R2, nil
}
