// Command benchmark is the repository's benchmark: four workloads, one
// per process, each a fixed list of ops, reporting five end-to-end
// metrics (tracing off) or the per-layer metrics of a separate traced run.
// BENCHMARK.json at the repository root names the command, the workloads
// and the metrics with their regression bounds; README.md in this
// directory says what each one means and why it was chosen.
//
//	bash benchmark/run.sh --workload sim-sparse --seed 1 --seconds 23 --trace 0
//	bash benchmark/run.sh --check-stability
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strings"

	"gossip/internal/server"
)

// endToEndNames and perLayerNames are the metric sets BENCHMARK.json
// lists; the package's test holds the two in step.
var endToEndNames = []string{"setup_s", "op_p50_ms", "op_tail_ms", "throughput_ops", "rss_p90_mb"}

var perLayerNames = func() []string {
	names := []string{
		"graphgen.build_ms", "graph.csr_ms", "graph.halfedges",
		"spanner.build_ms", "spanner.edges",
		"gossip.prepare_ms", "gossip.pushpull_arm_ms", "gossip.spanner_arm_ms", "gossip.dtg_ms", "gossip.rr_ms",
		"gossip.rounds_per_op", "gossip.exchanges_per_op",
		"sim.run_ms", "sim.ns_per_exchange", "sim.allocs_per_op", "sim.alloc_mb_per_op",
		"sim.workers2_ms", "sim.shards2_ms", "sim.shards2_wait_share",
		"api.frame_roundtrip_us", "adversity.parse_us", "curve.sample_us",
		"server.handler_miss_us", "server.handler_hit_us", "server.self_miss_us", "server.net_us",
		"server.allocs_per_hit", "server.allocs_per_miss", "server.body_bytes_per_op",
		"server.cache_hits", "server.cache_misses", "server.rounds_simulated", "server.hit_ratio",
		"trace.overhead_ratio",
	}
	for _, driver := range mixDrivers {
		names = append(names, "server.job_ms."+driver)
	}
	return names
}()

// unitOf derives a metric's unit from its name's suffix.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms") || strings.HasPrefix(name, "server.job_ms."):
		return "ms"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_mb") || strings.HasSuffix(name, "_mb_per_op"):
		return "MB"
	case name == "throughput_ops":
		return "1/s"
	case name == "sim.ns_per_exchange":
		return "ns"
	case strings.HasSuffix(name, "_ratio") || strings.HasSuffix(name, "_share"):
		return "ratio"
	case name == "server.body_bytes_per_op":
		return "B"
	default:
		return "count"
	}
}

// committedDigests holds, per workload and seed, the digest of the
// full-scale op list at refSeconds. A run on a listed seed must reproduce
// it; other seeds and other -seconds only print theirs.
//
//go:embed digests.json
var digestsJSON []byte

func committedDigest(workload string, seed uint64) string {
	var table map[string]map[string]string
	if err := json.Unmarshal(digestsJSON, &table); err != nil {
		return ""
	}
	return table[workload][fmt.Sprint(seed)]
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object printed as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report prints every metric by name with its unit, then the result line.
func report(out io.Writer, names []string, values map[string]float64, attempted, failed int) error {
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, name := range names {
		v, ok := values[name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) || (v == 0 && slices.Contains(endToEndNames, name)) {
			return fmt.Errorf("metric %s was not measured", name)
		}
		fmt.Fprintf(out, "%-28s %14.6g %s\n", name, v, unitOf(name))
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// scaledOps sizes a workload's op list for -seconds; refSeconds gives the
// frozen count itself.
func scaledOps(ops, seconds int) int {
	return max(ops*seconds/refSeconds, 8)
}

func commit() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func header(out io.Writer, w workload, seed uint64, ops int) {
	fmt.Fprintf(out, "workload %s seed %d ops %d clients %d\n", w.name, seed, ops, w.clients)
	fmt.Fprintf(out, "commit %s %s GOMAXPROCS %d nproc %d\n", commit(), runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU())
}

// digestVerdict compares a run's digest with the committed one, if there
// is one: a mismatch means the ops computed something else than they did
// when the digest was committed, so every op counts as failed.
func digestVerdict(want, got string, ops, failed int) (int, string) {
	switch want {
	case "":
		return failed, "none committed for this seed and op count"
	case got:
		return failed, "matches the committed digest"
	default:
		return ops, "DIFFERS from the committed " + want + ": every op counts as failed"
	}
}

// endToEnd is the untraced run: set-up timed setupReps times, the whole op
// list once, block by block, and the digest checked against the committed
// one.
func endToEnd(out io.Writer, w workload, seed uint64, sc scale, ops int, checkDigest bool) error {
	header(out, w, seed, ops)
	inst, setupS, err := timedSetup(w, seed, sc, ops)
	if err != nil {
		return err
	}
	m := measure(inst, 0, ops, w.clients, nil)
	inst.close()
	hwm, err := peakRSSMB()
	if err != nil {
		return err
	}
	// The host probes run after the high-water mark is read: their 32 MB
	// table is not the workload's memory.
	fmt.Fprintf(out, "host.cpu_probe_ms %.3f host.mem_probe_ms %.3f VmHWM %.1f MB (informational)\n", ms(cpuProbe()), ms(memProbe()), hwm)

	if m.firstErr != nil {
		fmt.Fprintf(out, "first failure: %v\n", m.firstErr)
	}
	want := ""
	if checkDigest {
		want = committedDigest(w.name, seed)
	}
	failed, note := digestVerdict(want, m.digest, ops, m.failed)
	fmt.Fprintf(out, "digest %s (%s)\n", m.digest, note)
	nb := len(m.blocks)
	fmt.Fprintf(out, "op timings are those of the block %g %% in from the calmest of %d blocks of N=%d ops; op_tail_ms is p%.2f of a block (whole list: p50 %.6g ms, p%.2f %.6g ms)\n",
		calmShare, nb, ops/nb, tailPercentile(ops/nb), percentile(m.lat, 50)/1e6, tailPercentile(ops), percentile(m.lat, tailPercentile(ops))/1e6)
	return report(out, endToEndNames, map[string]float64{
		"setup_s":        setupS,
		"op_p50_ms":      calm(m.blocks, func(b block) float64 { return b.p50 }, true) / 1e6,
		"op_tail_ms":     calm(m.blocks, func(b block) float64 { return b.tail }, true) / 1e6,
		"throughput_ops": calm(m.blocks, func(b block) float64 { return b.throughput }, false),
		"rss_p90_mb":     percentile(m.rss, 90),
	}, ops, failed)
}

// traced is the per-layer run: a quarter of the op list traced and
// decomposed into layer calls, between two untraced eighths so that
// neither side of the overhead ratio is the warmer one, then the layer
// probes. spanFile receives every span.
func traced(out io.Writer, w workload, seed uint64, sc scale, ops int, spanFile string) error {
	quarter := max(ops/4, 8)
	header(out, w, seed, quarter)
	tr := newTracer()
	inst, err := w.setup(seed, sc, 2*quarter, tr)
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	eighth := quarter / 2
	plain := measure(inst, 0, eighth, w.clients, nil)
	// The sim workloads have no server: their counters stay zero.
	var before, after server.Snapshot
	if inst.stats != nil {
		before = inst.stats()
	}
	withSpans := measure(inst, eighth, quarter, w.clients, tr)
	if inst.stats != nil {
		after = inst.stats()
	}
	second := measure(inst, eighth+quarter, quarter-eighth, w.clients, nil)
	plain.lat = append(plain.lat, second.lat...)
	sort.Float64s(plain.lat)
	plain.failed += second.failed
	if plain.firstErr == nil {
		plain.firstErr = second.firstErr
	}
	inst.close()
	runtime.GC()
	workloadSpans := len(tr.spans)

	values, err := runProbes(tr, w.name, seed, sc)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probeMetrics(tr.spans) {
		values[name] = v
	}
	hits, misses := float64(after.CacheHits-before.CacheHits), float64(after.CacheMisses-before.CacheMisses)
	values["server.cache_hits"] = hits
	values["server.cache_misses"] = misses
	values["server.rounds_simulated"] = float64(after.RoundsSimulated - before.RoundsSimulated)
	values["server.hit_ratio"] = hits / math.Max(hits+misses, 1)
	values["gossip.rounds_per_op"] = float64(withSpans.rounds) / float64(quarter)
	values["gossip.exchanges_per_op"] = float64(withSpans.exchanges) / float64(quarter)
	values["trace.overhead_ratio"] = percentile(withSpans.lat, 50) / percentile(plain.lat, 50)
	tr.count("ops.traced", int64(quarter))
	tr.count("ops.failed", int64(plain.failed+withSpans.failed))

	shares := opShares(tr.spans[:workloadSpans])
	names := make([]string, 0, len(shares))
	for name := range shares {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(out, "shares of the traced ops' time (op p50 %.4f ms traced, %.4f ms untraced):\n",
		percentile(withSpans.lat, 50)/1e6, percentile(plain.lat, 50)/1e6)
	for _, name := range names {
		fmt.Fprintf(out, "  %-32s %.4f\n", name, shares[name])
	}
	for _, m := range []measured{plain, withSpans} {
		if m.firstErr != nil {
			fmt.Fprintf(out, "first failure: %v\n", m.firstErr)
		}
	}
	if err := tr.writeFile(spanFile); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(out, "%d spans written to %s\n", len(tr.spans), spanFile)
	return report(out, perLayerNames, values, 2*quarter, plain.failed+withSpans.failed)
}

func run(args []string, out, errOut io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(errOut)
	name := fs.String("workload", "", "one of sim-sparse, sim-latency, serve-cold, serve-hot")
	seed := fs.Uint64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Int("seconds", refSeconds, "measured window the op list is sized for on the reference box")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run, 0 the end-to-end run")
	stability := fs.Bool("check-stability", false, "run two interleaved sets of full runs of every workload and compare their medians")
	runs := fs.Int("runs", 5, "with -check-stability: full runs per set and workload")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *stability {
		if err := checkStability(out, *runs, *seconds); err != nil {
			fmt.Fprintln(errOut, "benchmark:", err)
			return 1
		}
		return 0
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(errOut, "benchmark: need -workload (sim-sparse, sim-latency, serve-cold, serve-hot), -seconds >= 1 and -trace 0 or 1\n")
		return 2
	}
	ops := scaledOps(w.ops(fullScale), *seconds)
	var err error
	if *trace == 1 {
		exe, xerr := os.Executable()
		if xerr != nil {
			fmt.Fprintln(errOut, "benchmark:", xerr)
			return 1
		}
		err = traced(out, w, *seed, fullScale, ops, filepath.Join(filepath.Dir(exe), "trace-"+w.name+".json"))
	} else {
		err = endToEnd(out, w, *seed, fullScale, ops, *seconds == refSeconds)
	}
	if err != nil {
		fmt.Fprintln(errOut, "benchmark:", err)
		return 1
	}
	return 0
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
