package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"testing"
)

// spec mirrors BENCHMARK.json.
type spec struct {
	Command    []string
	Paths      []string
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		t.Fatal(err)
	}
	return s
}

// What the program prints and what BENCHMARK.json lists are the same
// sets, name for name and unit for unit.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	s := readSpec(t)
	if s.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the op lists are sized for %d", s.RunSeconds, refSeconds)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	var got []string
	for _, w := range s.Workloads {
		got = append(got, w.Name)
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !slices.Equal(got, want) {
		t.Errorf("workloads %v, the program has %v", got, want)
	}
	check := func(kind string, listed map[string]string, printed []string) {
		for _, n := range printed {
			if !name.MatchString(n) {
				t.Errorf("%s metric name %q is outside [A-Za-z0-9_.-]", kind, n)
			}
			if unit, ok := listed[n]; !ok {
				t.Errorf("%s metric %s is printed but not listed", kind, n)
			} else if unit != unitOf(n) {
				t.Errorf("%s metric %s is listed in %s and printed in %s", kind, n, unit, unitOf(n))
			}
		}
		if len(listed) != len(printed) {
			t.Errorf("%d %s metrics listed, %d printed", len(listed), kind, len(printed))
		}
	}
	e2e := map[string]string{}
	for _, m := range s.EndToEnd {
		e2e[m.Name] = m.Unit
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	check("end-to-end", e2e, endToEndNames)
	layer := map[string]string{}
	for _, m := range s.PerLayer {
		layer[m.Name] = m.Unit
	}
	check("per-layer", layer, perLayerNames)
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{48, 100 * 38.0 / 48}, {100, 90}, {216, 95}, {54000, 95}, {12, 50}} {
		p := tailPercentile(tc.n)
		if math.Abs(p-tc.want) > 1e-9 {
			t.Errorf("N=%d: percentile %v, want %v", tc.n, p, tc.want)
		}
		sorted := make([]float64, tc.n)
		for i := range sorted {
			sorted[i] = float64(i)
		}
		if beyond := tc.n - 1 - int(percentile(sorted, p)); tc.n >= 20 && beyond < 10 {
			t.Errorf("N=%d: p%.2f leaves %d samples beyond it, want at least 10", tc.n, p, beyond)
		}
	}
}

// A pass is cut into the blocks the README states, a list too short to cut
// is one block whose timings are the whole list's, and the calm block is
// counted from the low end for times and from the high end for rates.
func TestBlocks(t *testing.T) {
	for _, tc := range []struct{ ops, want int }{{80, 2}, {192, 6}, {2*blockOps - 1, 1}, {3*blockOps + 5, 3}, {65700, 32}, {800000, 32}} {
		if got := blockCount(tc.ops); got != tc.want {
			t.Errorf("%d ops: %d blocks, want %d", tc.ops, got, tc.want)
		}
	}
	blocks := make([]block, 32)
	for i := range blocks {
		blocks[i] = block{p50: float64(32 - i), throughput: float64(i + 1)}
	}
	if got := calm(blocks, func(b block) float64 { return b.p50 }, true); got != 4 {
		t.Errorf("the calm time of 1..32 is %v, want 4", got)
	}
	if got := calm(blocks, func(b block) float64 { return b.throughput }, false); got != 29 {
		t.Errorf("the calm rate of 1..32 is %v, want 29", got)
	}

	inst := &instance{op: func(_, i int, _ *tracer, _ int) (opOut, error) {
		var x uint64
		for k := 0; k < 64*(1+i%7); k++ {
			x += uint64(k)
		}
		return opOut{rounds: int64(x & 1)}, nil
	}}
	for _, ops := range []int{blockOps + 9, 3*blockOps + 5} {
		m := measure(inst, 0, ops, 2, nil)
		if len(m.blocks) != blockCount(ops) {
			t.Fatalf("%d ops: %d blocks measured, want %d", ops, len(m.blocks), blockCount(ops))
		}
		for i, b := range m.blocks {
			if !(b.p50 > 0 && b.tail >= b.p50 && b.throughput > 0) || math.IsInf(b.throughput, 0) {
				t.Errorf("%d ops, block %d: %+v", ops, i, b)
			}
		}
		if len(m.blocks) == 1 {
			if b := m.blocks[0]; b.p50 != percentile(m.lat, 50) || b.tail != percentile(m.lat, tailPercentile(ops)) {
				t.Errorf("%d ops: the one block reads %+v, the whole list p50 %v tail %v", ops, b, percentile(m.lat, 50), percentile(m.lat, tailPercentile(ops)))
			}
		}
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread %v, want 1", got)
	}
}

func TestDigestMismatchFailsEveryOp(t *testing.T) {
	if failed, _ := digestVerdict("aa", "bb", 48, 0); failed != 48 {
		t.Errorf("a digest mismatch left %d of 48 ops failed, want all", failed)
	}
	for _, want := range []string{"", "bb"} {
		if failed, _ := digestVerdict(want, "bb", 48, 3); failed != 3 {
			t.Errorf("committed %q, printed bb: %d ops failed, want the 3 that did", want, failed)
		}
	}
	for _, w := range workloads {
		for seed := uint64(1); seed <= 10; seed++ {
			if len(committedDigest(w.name, seed)) != 64 {
				t.Errorf("%s seed %d: no committed digest", w.name, seed)
			}
		}
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "op", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 30, Parent: 0},
		{Name: "b", Start: 20, End: 50, Parent: 0},       // overlaps a: counted once
		{Name: "c", Start: 90, End: 120, Parent: 0},      // clipped to the parent
		{Name: "a.inner", Start: 12, End: 20, Parent: 1}, // a grandchild is a's, not op's
	}
	want := []int64{100 - 40 - 10, 20 - 8, 30, 30, 8}
	if got := selfTimes(spans); !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	shares := opShares(spans)
	if shares["self"] != 0.5 || shares["a"] != 0.2 || shares["a.inner"] != 0 {
		t.Errorf("shares %v", shares)
	}
}

// runTiny sets a workload up at the tiny scale and runs ops [first,
// first+ops) once.
func runTiny(t *testing.T, w workload, seed uint64, first, ops int, tr *tracer) (measured, *instance) {
	t.Helper()
	inst, err := w.setup(seed, tinyScale, first+ops, tr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	m := measure(inst, first, ops, w.clients, tr)
	if m.failed != 0 {
		t.Fatalf("%s: %d of %d ops failed: %v", w.name, m.failed, ops, m.firstErr)
	}
	return m, inst
}

// Two runs on one seed print one digest, another seed prints another, and
// the traced decomposition of an op produces the untraced op's output.
func TestDigests(t *testing.T) {
	for _, w := range workloads {
		ops := w.ops(tinyScale)
		a, _ := runTiny(t, w, 7, 0, ops, nil)
		b, _ := runTiny(t, w, 7, 0, ops, nil)
		c, _ := runTiny(t, w, 8, 0, ops, nil)
		d, _ := runTiny(t, w, 7, 0, ops, newTracer())
		if a.digest != b.digest {
			t.Errorf("%s: two runs on one seed printed digests %s and %s", w.name, a.digest, b.digest)
		}
		if a.digest == c.digest {
			t.Errorf("%s: seeds 7 and 8 printed the same digest", w.name)
		}
		if a.digest != d.digest {
			t.Errorf("%s: the traced run printed digest %s, the untraced %s", w.name, d.digest, a.digest)
		}
		if d.rounds == 0 && w.name != "serve-hot" {
			t.Errorf("%s: the traced run counted no simulated rounds", w.name)
		}
	}
}

// serve-cold is all misses — which the stride of two between passes is
// for — and serve-hot all hits.
func TestCacheOutcomes(t *testing.T) {
	if mixSeed(3, 1)-mixSeed(3, 0) != 2 {
		t.Error("consecutive mix passes must be two seeds apart: job 1 of a pass runs on its seed+1")
	}
	for _, tc := range []struct {
		name         string
		hits, misses func(ops int) int64
	}{
		{"serve-cold", func(int) int64 { return 0 }, func(ops int) int64 { return int64(ops + tinyScale.coldWarm) }},
		{"serve-hot", func(ops int) int64 { return int64(ops + tinyScale.hotWarm) }, func(int) int64 { return int64(tinyScale.hotSeeds * mixJobs) }},
	} {
		w, _ := findWorkload(tc.name)
		ops := w.ops(tinyScale)
		_, inst := runTiny(t, w, 5, 0, ops, nil)
		s := inst.stats()
		if s.CacheHits != tc.hits(ops) || s.CacheMisses != tc.misses(ops) {
			t.Errorf("%s: %d hits and %d misses, want %d and %d", tc.name, s.CacheHits, s.CacheMisses, tc.hits(ops), tc.misses(ops))
		}
	}
}

// Both kinds of run end in a result line whose metrics are exactly the
// listed set, and the traced run writes its span file.
func TestRunOutput(t *testing.T) {
	w, _ := findWorkload("serve-cold")
	ops := w.ops(tinyScale)
	spanFile := filepath.Join(t.TempDir(), "spans.json")
	for _, tc := range []struct {
		names []string
		run   func(out *bytes.Buffer) error
	}{
		{endToEndNames, func(out *bytes.Buffer) error { return endToEnd(out, w, 1, tinyScale, ops, false) }},
		{perLayerNames, func(out *bytes.Buffer) error { return traced(out, w, 1, tinyScale, ops, spanFile) }},
	} {
		var out bytes.Buffer
		if err := tc.run(&out); err != nil {
			t.Fatal(err)
		}
		res, err := lastLine(out.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("result %+v\n%s", res, out.String())
		}
		var got []string
		for name := range res.Metrics {
			got = append(got, name)
		}
		want := slices.Clone(tc.names)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			t.Errorf("metrics %v, want %v", got, want)
		}
	}
	raw, err := os.ReadFile(spanFile)
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Names []string
		Spans [][5]int64
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatalf("span file: %v", err)
	}
	if len(file.Spans) == 0 || !slices.Contains(file.Names, "server.Handler") {
		t.Errorf("span file has %d spans and names %v", len(file.Spans), file.Names)
	}
}
