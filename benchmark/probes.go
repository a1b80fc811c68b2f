package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/curve"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/loadgen"
	"gossip/internal/server"
	"gossip/internal/server/api"
	"gossip/internal/sim"
	"gossip/internal/spanner"
)

// The layer probes call each layer's public functions alone, on the
// workloads' own inputs, inside spans named "probe:<package>.<Func>".
// A span's op is the repetition, so a metric is the median over
// repetitions of what the layer cost in one of them. The probe suite runs
// in the traced run of every workload; only the topology probe and the
// server counters depend on which workload that is.

// mixFaultSpec is the fault schedule of the mix's adversity job.
const mixFaultSpec = "loss=0.15;churn=2:6-14:amnesia;flap=0-1:3-8;crash=9:5"

// mixDrivers are the drivers of the mix, in the order of their first job.
var mixDrivers = []string{"push-pull", "flood", "dtg", "superstep", "spanner", "auto", "rr"}

// probed runs fn inside a span and names the span in fn's error.
func probed(tr *tracer, name string, parent, rep int, fn func() error) error {
	id := tr.begin(name, parent, rep)
	err := fn()
	tr.end(id)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// buildAndConvert builds one adjacency-map graph and converts it, the two
// steps every engine phase on a legacy graph pays.
func buildAndConvert(tr *tracer, parent, rep int, spec graphgen.Spec) (*graph.Graph, *graph.CSR, error) {
	var g *graph.Graph
	var csr *graph.CSR
	err := probed(tr, "probe:graphgen.Build", parent, rep, func() (err error) {
		g, err = graphgen.Build(spec)
		return err
	})
	if err != nil {
		return nil, nil, err
	}
	_ = probed(tr, "probe:graph.CSR", parent, rep, func() error {
		csr = g.CSR()
		return nil
	})
	return g, csr, nil
}

// topology builds the named workload's graphs once and returns their
// half-edge count.
func topology(tr *tracer, parent, rep int, name string, seed uint64, sc scale) (int, error) {
	switch name {
	case "sim-sparse":
		// Streamed straight into CSR form: there is no conversion step.
		var csr *graph.CSR
		err := probed(tr, "probe:graphgen.Build", parent, rep, func() (err error) {
			csr, err = buildSparse(seed, sc.sparseN)
			return err
		})
		if err != nil {
			return 0, err
		}
		return csr.HalfEdges(), nil
	case "sim-latency":
		_, csr, err := buildAndConvert(tr, parent, rep, ringSpec(seed, sc))
		if err != nil {
			return 0, err
		}
		return csr.HalfEdges(), nil
	default:
		half := 0
		for _, job := range loadgen.DefaultMix(mixSeed(seed, 0)) {
			_, csr, err := buildAndConvert(tr, parent, rep, jobGraph(job))
			if err != nil {
				return 0, err
			}
			half += csr.HalfEdges()
		}
		return half, nil
	}
}

// jobGraph and jobOptions translate a mix job the way the server's
// validation does, for the fields the mix uses; probeServer checks the
// translation against the server's own result.
func jobGraph(job server.Request) graphgen.Spec {
	return graphgen.Spec{Family: job.Graph.Family, N: job.Graph.N, Latency: max(job.Graph.Latency, 1),
		P: job.Graph.P, Layers: job.Graph.Layers, Seed: job.Seed}
}

func jobOptions(job server.Request) (gossip.DriverOptions, error) {
	opts := gossip.DriverOptions{Seed: job.Seed, KnownLatencies: job.KnownLatencies != nil && *job.KnownLatencies}
	if job.FaultSpec != "" {
		spec, err := adversity.ParseSpec(job.FaultSpec)
		if err != nil {
			return opts, err
		}
		opts.Adversity = spec
	}
	return opts, nil
}

// probeRing measures the spanner construction and each driver of the
// spanner route alone on the sim-latency ring.
func probeRing(tr *tracer, root int, seed uint64, sc scale, counts map[string]float64) error {
	g, err := graphgen.Build(ringSpec(seed, sc))
	if err != nil {
		return err
	}
	k := 1
	for 1<<k < g.N() {
		k++
	}
	for rep := 0; rep < 9; rep++ {
		err := probed(tr, "probe:spanner.Build", root, rep, func() error {
			sp, err := spanner.Build(g, spanner.Options{K: k, Seed: uint64(rep)})
			if err == nil {
				counts["spanner.edges"] = float64(sp.NumEdges())
			}
			return err
		})
		if err != nil {
			return err
		}
		for _, driver := range []string{"push-pull", "spanner", "dtg", "rr"} {
			err := probed(tr, "probe:gossip.Dispatch/"+driver, root, rep, func() error {
				res, err := gossip.Dispatch(driver, g, gossip.DriverOptions{KnownLatencies: true, Seed: uint64(rep)})
				if err == nil && !res.Completed {
					err = fmt.Errorf("did not complete")
				}
				return err
			})
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// probeSparse decomposes the sim-sparse op — prepare, then the engine —
// and runs the same op on two workers and on two in-process shards.
func probeSparse(tr *tracer, root int, seed uint64, sc scale, counts map[string]float64) error {
	csr, err := buildSparse(seed, sc.sparseN)
	if err != nil {
		return err
	}
	var perExchange, allocs, allocMB, waitShare []float64
	var ms0, ms1 runtime.MemStats
	for rep := 0; rep < 5; rep++ {
		var cfg sim.Config
		var factory sim.Factory
		var stop sim.StopFunc
		err := probed(tr, "probe:gossip.PrepareDist", root, rep, func() (err error) {
			cfg, factory, stop, err = gossip.PrepareDist("push-pull", nil, sparseOptions(csr, rep, 1))
			return err
		})
		if err != nil {
			return err
		}
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		var res sim.Result
		err = probed(tr, "probe:sim.Run", root, rep, func() (err error) {
			res, err = sim.Run(cfg, factory, stop)
			return err
		})
		if err != nil {
			return err
		}
		took := time.Since(t0)
		runtime.ReadMemStats(&ms1)
		perExchange = append(perExchange, float64(took)/float64(res.Exchanges))
		allocs = append(allocs, float64(ms1.Mallocs-ms0.Mallocs))
		allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
	}
	for rep := 0; rep < 3; rep++ {
		cfg, factory, stop, err := gossip.PrepareDist("push-pull", nil, sparseOptions(csr, rep, 2))
		if err != nil {
			return err
		}
		runtime.GC()
		err = probed(tr, "probe:sim.Run/workers2", root, rep, func() error {
			_, err := sim.Run(cfg, factory, stop)
			return err
		})
		if err != nil {
			return err
		}
		cfg, factory, stop, err = gossip.PrepareDist("push-pull", nil, sparseOptions(csr, rep, 1))
		if err != nil {
			return err
		}
		runtime.GC()
		t0 := time.Now()
		var stats []sim.DistStats
		err = probed(tr, "probe:sim.RunDistLocal/shards2", root, rep, func() (err error) {
			_, stats, err = sim.RunDistLocal(cfg, 2, factory, stop)
			return err
		})
		if err != nil {
			return err
		}
		wall := float64(time.Since(t0))
		var wait float64
		for _, st := range stats {
			wait += float64(st.WaitNS)
		}
		waitShare = append(waitShare, wait/float64(len(stats))/wall)
	}
	counts["sim.ns_per_exchange"] = median(perExchange)
	counts["sim.allocs_per_op"] = median(allocs)
	counts["sim.alloc_mb_per_op"] = median(allocMB)
	counts["sim.shards2_wait_share"] = median(waitShare)
	return nil
}

// probeFrames round-trips one round barrier of two 2048-intent shard
// frames through the wire codec.
func probeFrames(tr *tracer, root int) error {
	const perShard = 2048
	frames := make([]sim.DistFrame, 2)
	for s := range frames {
		f := &frames[s]
		f.Round, f.Shard, f.MinWake, f.SleeperWake, f.NextDeliver, f.Pending = 7, s, 8, sim.WakeOnDelivery, 8, true
		for i := 0; i < perShard; i++ {
			u := int32(s*perShard + i)
			f.Intents = append(f.Intents, sim.DistIntent{U: u, Idx: int32(i % 4), V: u ^ 1, VIdx: int32(i % 4), Lat: int32(1 + i%3), Lost: i%10 == 0})
			f.Gains = append(f.Gains, sim.DistGain{Node: u, Rumor: u ^ 1})
		}
	}
	enc := make([][]byte, 2)
	var decoded sim.DistFrame
	for rep := 0; rep < 256; rep++ {
		err := probed(tr, "probe:api.RoundFrame", root, rep, func() error {
			for s := range frames {
				enc[s] = api.AppendRoundFrame(enc[s][:0], &frames[s])
			}
			for s := range enc {
				if err := api.DecodeRoundFrame(enc[s], &decoded); err != nil {
					return err
				}
				if len(decoded.Intents) != perShard {
					return fmt.Errorf("decoded %d intents, want %d", len(decoded.Intents), perShard)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// serveRecorded drives the handler directly, without a network, and
// returns the cache outcome and the body.
func serveRecorded(h http.Handler, payload []byte) (string, []byte, error) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulations", bytes.NewReader(payload)))
	if rec.Code != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %.200s", rec.Code, rec.Body.Bytes())
	}
	return rec.Header().Get(api.CacheHeader), rec.Body.Bytes(), nil
}

// mallocsPer counts heap allocations per call of fn over n calls.
func mallocsPer(n int, fn func(i int) error) (float64, error) {
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < n; i++ {
		if err := fn(i); err != nil {
			return 0, err
		}
	}
	runtime.ReadMemStats(&ms1)
	return float64(ms1.Mallocs-ms0.Mallocs) / float64(n), nil
}

// probeServer drives the handler on one goroutine through misses and
// hits of the mix, and beside every miss runs that job's graph build,
// dispatch and curve sampling alone, so that the handler's own share —
// validate, canonicalize, key, events, cache put — is what remains.
func probeServer(tr *tracer, root int, seed uint64, counts map[string]float64) error {
	const passes, allocPasses, hits = 40, 20, 2048
	h := server.New(server.Config{}).Handler()
	payloads, err := mixPayloads(seed, 0, passes+allocPasses)
	if err != nil {
		return err
	}
	wantCache := func(want string, payload []byte) ([]byte, error) {
		cache, body, err := serveRecorded(h, payload)
		if err == nil && cache != want {
			err = fmt.Errorf("cache outcome %q, want %s", cache, want)
		}
		return body, err
	}
	var bodyBytes float64
	for pass := 0; pass < passes; pass++ {
		for j, job := range loadgen.DefaultMix(mixSeed(seed, pass)) {
			var body []byte
			err := probed(tr, fmt.Sprintf("probe:server.Handler/miss/%d", j), root, pass, func() (err error) {
				body, err = wantCache("miss", payloads[pass*mixJobs+j])
				return err
			})
			if err != nil {
				return err
			}
			last, err := checkBody(body)
			if err != nil {
				return err
			}
			bodyBytes += float64(len(body))
			var served opOut
			if err := simulated(last, &served); err != nil {
				return err
			}
			// The same job, outside the server.
			var g *graph.Graph
			err = probed(tr, fmt.Sprintf("probe:job/graphgen.Build/%d", j), root, pass, func() (err error) {
				g, err = graphgen.Build(jobGraph(job))
				return err
			})
			if err != nil {
				return err
			}
			opts, err := jobOptions(job)
			if err != nil {
				return err
			}
			var res gossip.DriverResult
			err = probed(tr, fmt.Sprintf("probe:job/gossip.Dispatch/%d", j), root, pass, func() (err error) {
				res, err = gossip.Dispatch(job.Driver, g, opts)
				return err
			})
			if err != nil {
				return err
			}
			_ = probed(tr, fmt.Sprintf("probe:job/curve.Sample/%d", j), root, pass, func() error {
				curve.FromInformedAt(res.InformedAt).Sample(32)
				return nil
			})
			if served.rounds != int64(res.Rounds) || served.exchanges != res.Exchanges {
				return fmt.Errorf("mix job %d: the server simulated %d rounds/%d exchanges, the job run alone %d/%d",
					j, served.rounds, served.exchanges, res.Rounds, res.Exchanges)
			}
		}
	}
	cached := payloads[(passes-1)*mixJobs : passes*mixJobs]
	for rep := 0; rep < hits; rep++ {
		err := probed(tr, "probe:server.Handler/hit", root, rep, func() error {
			_, err := wantCache("hit", cached[rep%mixJobs])
			return err
		})
		if err != nil {
			return err
		}
	}
	// Allocation counts include the recorder and request each call builds.
	counts["server.allocs_per_hit"], err = mallocsPer(hits, func(i int) error {
		_, err := wantCache("hit", cached[i%mixJobs])
		return err
	})
	if err != nil {
		return err
	}
	fresh := payloads[passes*mixJobs:]
	counts["server.allocs_per_miss"], err = mallocsPer(len(fresh), func(i int) error {
		_, err := wantCache("miss", fresh[i])
		return err
	})
	if err != nil {
		return err
	}
	counts["server.body_bytes_per_op"] = bodyBytes / (passes * mixJobs)
	return nil
}

// probeNet replays cached requests over loopback TCP from one client; the
// op span's self time — round trip minus the handler span inside it — is
// the HTTP client and the kernel, the part of a served op that is not the
// server's.
func probeNet(tr *tracer, root int, seed uint64) error {
	l, err := startLocal(1, tr)
	if err != nil {
		return err
	}
	defer l.close()
	payloads, err := mixPayloads(seed, 0, 1)
	if err != nil {
		return err
	}
	for k, payload := range payloads {
		if _, _, err := l.post(0, k, payload, nil, -1); err != nil {
			return err
		}
	}
	for rep := 0; rep < 2048; rep++ {
		id := tr.begin("probe:net.RoundTrip", root, rep)
		cache, _, err := l.post(0, rep, payloads[rep%mixJobs], tr, id)
		tr.end(id)
		if err == nil && cache != "hit" {
			err = fmt.Errorf("cache outcome %q, want hit", cache)
		}
		if err != nil {
			return fmt.Errorf("probe:net.RoundTrip: %w", err)
		}
	}
	return nil
}

// runProbes runs the whole suite under one root span and returns the
// counts that are not span times.
func runProbes(tr *tracer, workloadName string, seed uint64, sc scale) (map[string]float64, error) {
	counts := map[string]float64{}
	root := tr.begin("probes", -1, -1)
	defer tr.end(root)
	for rep := 0; rep < 5; rep++ {
		half, err := topology(tr, root, rep, workloadName, seed, sc)
		if err != nil {
			return nil, err
		}
		counts["graph.halfedges"] = float64(half)
	}
	if err := probeRing(tr, root, seed, sc, counts); err != nil {
		return nil, err
	}
	if err := probeSparse(tr, root, seed, sc, counts); err != nil {
		return nil, err
	}
	if err := probeFrames(tr, root); err != nil {
		return nil, err
	}
	for rep := 0; rep < 512; rep++ {
		err := probed(tr, "probe:adversity.ParseSpec", root, rep, func() error {
			_, err := adversity.ParseSpec(mixFaultSpec)
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	if err := probeServer(tr, root, seed, counts); err != nil {
		return nil, err
	}
	if err := probeNet(tr, root, seed); err != nil {
		return nil, err
	}
	return counts, nil
}

// perOp sums, per op, the durations (or self times) of the spans with the
// given name, and returns the sums ascending.
func perOp(spans []span, values []int64, name string) []float64 {
	byOp := map[int]float64{}
	for i, s := range spans {
		if s.Name == name {
			byOp[s.Op] += float64(values[i])
		}
	}
	out := make([]float64, 0, len(byOp))
	for _, v := range byOp {
		out = append(out, v)
	}
	sort.Float64s(out)
	return out
}

// probeMetrics turns the probe spans into the per-layer time metrics.
func probeMetrics(spans []span) map[string]float64 {
	dur := make([]int64, len(spans))
	for i, s := range spans {
		dur[i] = s.End - s.Start
	}
	self := selfTimes(spans)
	med := func(values []int64, name string) float64 {
		xs := perOp(spans, values, name)
		if len(xs) == 0 {
			return 0
		}
		return percentile(xs, 50)
	}
	const msNS, usNS = 1e6, 1e3
	m := map[string]float64{
		"graphgen.build_ms":      med(dur, "probe:graphgen.Build") / msNS,
		"graph.csr_ms":           med(dur, "probe:graph.CSR") / msNS,
		"spanner.build_ms":       med(dur, "probe:spanner.Build") / msNS,
		"gossip.prepare_ms":      med(dur, "probe:gossip.PrepareDist") / msNS,
		"gossip.pushpull_arm_ms": med(dur, "probe:gossip.Dispatch/push-pull") / msNS,
		"gossip.spanner_arm_ms":  med(dur, "probe:gossip.Dispatch/spanner") / msNS,
		"gossip.dtg_ms":          med(dur, "probe:gossip.Dispatch/dtg") / msNS,
		"gossip.rr_ms":           med(dur, "probe:gossip.Dispatch/rr") / msNS,
		"sim.run_ms":             med(dur, "probe:sim.Run") / msNS,
		"sim.workers2_ms":        med(dur, "probe:sim.Run/workers2") / msNS,
		"sim.shards2_ms":         med(dur, "probe:sim.RunDistLocal/shards2") / msNS,
		"api.frame_roundtrip_us": med(dur, "probe:api.RoundFrame") / usNS,
		"adversity.parse_us":     med(dur, "probe:adversity.ParseSpec") / usNS,
		"server.handler_hit_us":  med(dur, "probe:server.Handler/hit") / usNS,
		"server.net_us":          med(self, "probe:net.RoundTrip") / usNS,
		"server.handler_miss_us": 0,
		"server.self_miss_us":    0,
		"curve.sample_us":        0,
	}
	// The mix-wide server numbers are means over the nine jobs of each
	// job's median, so every job weighs as it does in a pass of the mix.
	byDriver := map[string][]float64{}
	for j, job := range loadgen.DefaultMix(0) {
		handler := med(dur, fmt.Sprintf("probe:server.Handler/miss/%d", j))
		sample := med(dur, fmt.Sprintf("probe:job/curve.Sample/%d", j))
		alone := med(dur, fmt.Sprintf("probe:job/graphgen.Build/%d", j)) + med(dur, fmt.Sprintf("probe:job/gossip.Dispatch/%d", j)) + sample
		m["server.handler_miss_us"] += handler / usNS / mixJobs
		m["server.self_miss_us"] += (handler - alone) / usNS / mixJobs
		m["curve.sample_us"] += sample / usNS / mixJobs
		byDriver[job.Driver] = append(byDriver[job.Driver], handler/msNS)
	}
	for _, driver := range mixDrivers {
		sum := 0.0
		for _, v := range byDriver[driver] {
			sum += v
		}
		m["server.job_ms."+driver] = sum / float64(max(len(byDriver[driver]), 1))
	}
	return m
}

// opShares reports, for the traced ops of a workload, which share of the
// summed op time each layer call took; "self" is what no child span
// covers — the harness itself, or for a served op the HTTP client and TCP.
func opShares(spans []span) map[string]float64 {
	self := selfTimes(spans)
	total := 0.0
	shares := map[string]float64{}
	for i, s := range spans {
		switch {
		case s.Name == "op":
			total += float64(s.End - s.Start)
			shares["self"] += float64(self[i])
		case s.Parent >= 0 && spans[s.Parent].Name == "op":
			shares[s.Name] += float64(s.End - s.Start)
		}
	}
	for name := range shares {
		shares[name] /= total
	}
	return shares
}
