package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// tailPercentile is the highest percentile of n samples that still has
// at least ten samples beyond it, capped at p95. Below 20 samples no
// percentile above the median qualifies and the median is used.
//
// The cap is p95 because p99 did not repeat: on serve-hot it sits where
// the latency distribution turns from scheduling jitter to collector
// stalls (p98 0.12 ms, p99 0.25 ms, p99.5 0.6 ms), so identical runs
// disagreed on it by 17-31 % while agreeing on p95 within 4 %.
func tailPercentile(n int) float64 {
	if n < 20 {
		return 50
	}
	return math.Min(95, 100*float64(n-10)/float64(n))
}

// percentile is the nearest-rank percentile of a sorted slice.
func percentile(sorted []float64, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// calmShare is the percentile of the blocks, counted from the best one,
// that the block-wise metrics report: the fourth best of 32 blocks.
const calmShare = 12.5

// calm is the value of the block calmShare of the way in from the best
// one: a low percentile of the blocks where lower is better, the matching
// high one where higher is. One block is its own percentile.
func calm(blocks []block, value func(block) float64, lowerIsBetter bool) float64 {
	vals := make([]float64, len(blocks))
	for i, b := range blocks {
		vals[i] = value(b)
	}
	sort.Float64s(vals)
	if !lowerIsBetter {
		slices.Reverse(vals)
	}
	return percentile(vals, calmShare)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// residentMB reads the process's current resident set; 0 when /proc is
// unreadable, which report then refuses as a metric that is never 0.
func residentMB() float64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, _ := strconv.ParseFloat(fields[1], 64)
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// sink keeps the host probes' results alive so the loops are not elided.
var sink uint64

// cpuProbe times 2^24 dependent xorshift steps: pure ALU work that fits
// in registers, so it moves only with CPU steal or frequency.
func cpuProbe() time.Duration {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink += x
	return time.Since(t0)
}

// memProbe times 2^21 dependent loads chasing one random cycle through a
// 32 MB table: it moves with memory contention from neighbours, which is
// what the sim-sparse op time tracks on a shared box.
func memProbe() time.Duration {
	const entries = 32 << 20 / 8
	next := make([]uint64, entries)
	for i := range next {
		next[i] = uint64(i)
	}
	// Sattolo's shuffle yields a single cycle, so the chase never revisits
	// an entry within 2^21 steps.
	x := uint64(0x2545f4914f6cdd1d)
	for i := entries - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := x % uint64(i)
		next[i], next[j] = next[j], next[i]
	}
	t0 := time.Now()
	p := uint64(0)
	for i := 0; i < 1<<21; i++ {
		p = next[p]
	}
	d := time.Since(t0)
	sink += p
	return d
}
