package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"gossip/internal/curve"
	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/server/api"
)

func postEstimate(t *testing.T, url string, req EstimateRequest) (int, string, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/estimates", req)
}

// lossyEstimateReq plants loss=0.2 via a reference job and asks for it
// back on a grid that contains the truth.
func lossyEstimateReq() EstimateRequest {
	ref := pushPullReq()
	ref.FaultSpec = "loss=0.2"
	return EstimateRequest{
		Base:      pushPullReq(),
		Reference: &ref,
		Grid:      &api.EstimateGrid{LossMax: 0.4, LossSteps: 3, ChurnMax: 2, ChurnSteps: 2, Scales: []int{1}},
		Refine:    intp(1),
	}
}

// TestEstimateStreamShapeAndRecovery is the endpoint's happy path: the
// stream is accepted → scored progress events → one estimate terminator,
// and a fault planted via the reference job is recovered exactly (the
// truth sits on the coarse grid, so its cold evaluation reproduces the
// observed curve bit-for-bit and scores an ICC distance of zero).
func TestEstimateStreamShapeAndRecovery(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	status, cache, body := postEstimate(t, ts.URL, lossyEstimateReq())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q, want 200 miss", status, cache)
	}
	events := decodeStream(t, body)
	if events[0]["event"] != "accepted" || events[0]["request_key"] == "" {
		t.Fatalf("bad accepted event: %+v", events[0])
	}
	last := events[len(events)-1]
	if last["event"] != "estimate" {
		t.Fatalf("last event %+v, want estimate", last)
	}
	stages := map[string]int{}
	for _, ev := range events[1 : len(events)-1] {
		if ev["event"] != "progress" {
			t.Fatalf("mid-stream event %+v, want progress", ev)
		}
		if ev["candidate"] == nil || ev["evaluated"].(float64) <= 0 {
			t.Fatalf("unscored progress event: %+v", ev)
		}
		stages[ev["stage"].(string)]++
	}
	if stages["coarse"] != 6 { // 3 loss × 2 churn × 1 scale
		t.Fatalf("stages %+v, want 6 coarse evals", stages)
	}
	if stages["refine-1"] == 0 {
		t.Fatalf("stages %+v, want a refinement pass", stages)
	}
	best := last["best"].(map[string]any)
	if best["loss"] != 0.2 || best["churn"] != 0.0 || best["scale"] != 1.0 {
		t.Fatalf("best %+v, want the planted loss=0.2", best)
	}
	if last["score"] != 0.0 {
		t.Fatalf("planted truth must score 0, got %v", last["score"])
	}
	if last["fault_spec"] == "" {
		t.Fatal("estimate carries no fault_spec rendering")
	}
	res := last["residual"].(map[string]any)
	if res["icc"] != 0.0 || res["final_informed_delta"] != 0.0 || res["rounds_delta"] != 0.0 {
		t.Fatalf("residual %+v, want exact zeros for an on-grid truth", res)
	}
}

// TestEstimateObservedCurve drives the endpoint with a submitted curve
// instead of a reference job: the observed points come from a prior
// /v1/simulations stream, closing the loop the README documents.
func TestEstimateObservedCurve(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	// Simulate the reference out-of-band and feed its curve back in.
	ref := pushPullReq()
	ref.FaultSpec = "loss=0.2"
	status, _, simBody := postJob(t, ts.URL, ref)
	if status != http.StatusOK {
		t.Fatalf("reference simulation status %d", status)
	}
	var observed []api.CurvePoint
	for _, ev := range decodeStream(t, simBody) {
		if ev["event"] == "progress" {
			observed = append(observed, api.CurvePoint{Round: int(ev["round"].(float64)), Informed: ev["informed"].(float64)})
		}
	}
	if len(observed) < 2 {
		t.Fatalf("reference produced %d points", len(observed))
	}

	req := lossyEstimateReq()
	req.Reference = nil
	req.Observed = observed
	status, _, body := postEstimate(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body)
	}
	events := decodeStream(t, body)
	last := events[len(events)-1]
	if last["event"] != "estimate" {
		t.Fatalf("last event %+v, want estimate", last)
	}
	best := last["best"].(map[string]any)
	if best["loss"] != 0.2 || best["churn"] != 0.0 {
		t.Fatalf("best %+v, want the planted loss=0.2", best)
	}
}

// TestEstimateMemoizedAndDeterministic pins the service contract on the
// new surface: identical estimate ⇒ hit ⇒ byte-identical body, and the
// body is byte-identical across execution pool sizes (the estimate
// fan-out is execution machinery, not key material).
func TestEstimateMemoizedAndDeterministic(t *testing.T) {
	var bodies [][]byte
	for _, pool := range []int{1, 8} {
		srv := New(Config{Pool: pool})
		ts := httptest.NewServer(srv.Handler())
		_, cache1, body1 := postEstimate(t, ts.URL, lossyEstimateReq())
		_, cache2, body2 := postEstimate(t, ts.URL, lossyEstimateReq())
		ts.Close()
		if cache1 != "miss" || cache2 != "hit" {
			t.Fatalf("pool %d: cache %q then %q, want miss then hit", pool, cache1, cache2)
		}
		if !bytes.Equal(body1, body2) {
			t.Fatalf("pool %d: cached replay differs", pool)
		}
		if n := srv.Metrics().EstimatesExecuted; n != 1 {
			t.Fatalf("pool %d: %d estimates executed, want 1", pool, n)
		}
		bodies = append(bodies, body1)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("estimate diverges across pool sizes:\n%s\nvs\n%s", bodies[0], bodies[1])
	}
}

// TestEstimateSharesSimulationCache: candidate evaluations publish the
// exact bodies /v1/simulations would, so a direct simulation of an
// evaluated candidate replays from cache without executing.
func TestEstimateSharesSimulationCache(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _, _ := postEstimate(t, ts.URL, lossyEstimateReq()); status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	misses := srv.Metrics().CacheMisses
	// The benign coarse candidate is exactly pushPullReq's canonical job.
	status, cache, _ := postJob(t, ts.URL, pushPullReq())
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("status %d cache %q, want a hit off the estimate's evaluations", status, cache)
	}
	if after := srv.Metrics().CacheMisses; after != misses {
		t.Fatalf("direct simulation of an evaluated candidate executed (misses %d -> %d)", misses, after)
	}
}

func TestEstimateValidation(t *testing.T) {
	ts := httptest.NewServer(fleetMember().Handler())
	defer ts.Close()
	obs := []api.CurvePoint{{Round: 0, Informed: 1}, {Round: 3, Informed: 9}}
	cases := []struct {
		name  string
		mut   func(*EstimateRequest)
		field string
	}{
		{"both observed and reference", func(r *EstimateRequest) { r.Observed = obs }, "observed"},
		{"neither observed nor reference", func(r *EstimateRequest) { r.Reference = nil }, "observed"},
		{"single-point curve", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = obs[:1]
		}, "observed"},
		{"non-increasing rounds", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = []api.CurvePoint{{Round: 3, Informed: 1}, {Round: 3, Informed: 2}}
		}, "observed[1]"},
		{"negative round", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = []api.CurvePoint{{Round: -1, Informed: 1}, {Round: 3, Informed: 2}}
		}, "observed[0]"},
		{"non-positive informed", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = []api.CurvePoint{{Round: 0, Informed: 0}, {Round: 3, Informed: 2}}
		}, "observed[0]"},
		{"decreasing informed", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = []api.CurvePoint{{Round: 0, Informed: 5}, {Round: 3, Informed: 2}}
		}, "observed[1]"},
		{"informed above graph size", func(r *EstimateRequest) {
			r.Reference = nil
			r.Observed = []api.CurvePoint{{Round: 0, Informed: 1}, {Round: 3, Informed: 17}}
		}, "observed[1]"},
		{"faulty base", func(r *EstimateRequest) { r.Base.FaultSpec = "loss=0.1" }, "base.fault_spec"},
		{"unknown base driver", func(r *EstimateRequest) { r.Base.Driver = "nope" }, "base.driver"},
		{"multi-phase base", func(r *EstimateRequest) { r.Base.Driver = "spanner" }, "base.driver"},
		{"sharded base", func(r *EstimateRequest) { r.Base.Shards = 2 }, "base.shards"},
		{"real-transport base", func(r *EstimateRequest) { r.Base.Transport = "chan" }, "base.transport"},
		{"sharded reference", func(r *EstimateRequest) { r.Reference.Shards = 2 }, "reference.shards"},
		{"real-transport reference", func(r *EstimateRequest) {
			r.Reference.FaultSpec = "" // chan itself rejects fault_spec
			r.Reference.Transport = "chan"
		}, "reference.transport"},
		{"bad loss_max", func(r *EstimateRequest) { r.Grid.LossMax = 1.5 }, "grid.loss_max"},
		{"bad loss_steps", func(r *EstimateRequest) { r.Grid.LossSteps = 99 }, "grid.loss_steps"},
		{"churn_max at n", func(r *EstimateRequest) { r.Grid.ChurnMax = 16; r.Grid.ChurnSteps = 2 }, "grid.churn_max"},
		{"non-increasing scales", func(r *EstimateRequest) { r.Grid.Scales = []int{2, 2} }, "grid.scales"},
		{"zero scale", func(r *EstimateRequest) { r.Grid.Scales = []int{0} }, "grid.scales"},
		{"refine out of range", func(r *EstimateRequest) { r.Refine = intp(9) }, "refine"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := lossyEstimateReq()
			tc.mut(&req)
			status, _, body := postEstimate(t, ts.URL, req)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (body %s)", status, body)
			}
			var out map[string]*FieldError
			if err := json.Unmarshal(body, &out); err != nil || out["error"] == nil {
				t.Fatalf("bad 400 body %s: %v", body, err)
			}
			if out["error"].Field != tc.field {
				t.Fatalf("error field %q, want %q (%s)", out["error"].Field, tc.field, out["error"].Message)
			}
		})
	}
}

// TestProgressPointsKnob pins the satellite contract: progress_points
// shapes the served stream but not the cache key, so two requests that
// differ only there share one execution and one cache entry.
func TestProgressPointsKnob(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	req := Request{Driver: "push-pull", Graph: GraphSpec{Family: "er", N: 64, P: 0.2, Latency: 1}, Seed: 7}
	status, cache1, body1 := postJob(t, ts.URL, req)
	if status != http.StatusOK || cache1 != "miss" {
		t.Fatalf("status %d cache %q", status, cache1)
	}
	count := func(body []byte) int {
		n := 0
		for _, ev := range decodeStream(t, body) {
			if ev["event"] == "progress" {
				n++
			}
		}
		return n
	}
	base := count(body1)
	if base < 2 || base > defaultProgressPoints {
		t.Fatalf("default curve has %d points, want 2..%d", base, defaultProgressPoints)
	}

	coarse := req
	coarse.ProgressPoints = intp(2)
	status, cache2, body2 := postJob(t, ts.URL, coarse)
	if status != http.StatusOK || cache2 != "hit" {
		t.Fatalf("resampled request: status %d cache %q, want a hit (execution knob)", status, cache2)
	}
	if got := count(body2); got != 2 {
		t.Fatalf("progress_points=2 served %d points", got)
	}
	// First and last change points survive resampling.
	ev1, ev2 := decodeStream(t, body1), decodeStream(t, body2)
	if ev1[1]["round"] != ev2[1]["round"] {
		t.Fatalf("first change point moved: %+v vs %+v", ev1[1], ev2[1])
	}
	if ev1[len(ev1)-2]["round"] != ev2[len(ev2)-2]["round"] {
		t.Fatal("last change point moved under resampling")
	}
	if n := srv.Metrics().CacheMisses; n != 1 {
		t.Fatalf("%d executions for one canonical job, want 1", n)
	}

	// A wider budget serves more of the cached full-resolution curve.
	fine := req
	fine.ProgressPoints = intp(maxProgressPoints)
	_, cache3, body3 := postJob(t, ts.URL, fine)
	if cache3 != "hit" {
		t.Fatalf("full-resolution request: cache %q, want hit", cache3)
	}
	if got := count(body3); got < base {
		t.Fatalf("progress_points=%d served %d points, want >= default %d", maxProgressPoints, got, base)
	}

	for _, bad := range []int{1, -3, maxProgressPoints + 1} {
		badReq := req
		badReq.ProgressPoints = intp(bad)
		if status, _, _ := postJob(t, ts.URL, badReq); status != http.StatusBadRequest {
			t.Fatalf("progress_points=%d: status %d, want 400", bad, status)
		}
	}
}

// TestGoldenCurveExtraction pins the curve the service streams against
// the one the estimator derives from the same engine run: identical
// change points, identically sampled. This is the contract that lets
// /v1/estimates consume /v1/simulations output as its observed input.
func TestGoldenCurveExtraction(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	req := Request{Driver: "push-pull", Graph: GraphSpec{Family: "er", N: 64, P: 0.2, Latency: 1}, Seed: 7}

	jb, ferr := srv.validate(req)
	if ferr != nil {
		t.Fatal(ferr)
	}
	g, err := graphgen.Build(graphgen.Spec{
		Family: jb.can.Graph.Family, N: jb.can.Graph.N, Latency: jb.can.Graph.Latency,
		P: jb.can.Graph.P, Layers: jb.can.Graph.Layers, Seed: jb.can.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := gossip.Dispatch(jb.can.Driver, g, jb.driverOptions())
	if err != nil {
		t.Fatal(err)
	}
	want := curve.FromInformedAt(res.InformedAt).Sample(defaultProgressPoints)

	_, _, body := postJob(t, ts.URL, req)
	var got curve.Curve
	for _, ev := range decodeStream(t, body) {
		if ev["event"] == "progress" {
			got = append(got, curve.Point{Round: int(ev["round"].(float64)), Informed: ev["informed"].(float64)})
		}
	}
	if len(got) != len(want) {
		t.Fatalf("served %d points, engine curve has %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: served %+v, engine %+v", i, got[i], want[i])
		}
	}
}

// FuzzEstimateValidate: no input reaches a panic through estimate
// validation; rejects are structured field errors.
func FuzzEstimateValidate(f *testing.F) {
	seed, _ := json.Marshal(lossyEstimateReq())
	f.Add(string(seed))
	f.Add(`{"base":{"driver":"push-pull","graph":{"family":"clique","n":8}},"observed":[{"round":0,"informed":1},{"round":2,"informed":8}]}`)
	f.Add(`{"base":{"driver":"push-pull","graph":{"family":"clique","n":8}},"observed":[{"round":0,"informed":1e309}]}`)
	f.Add(`{"base":{},"observed":[{"round":-1,"informed":-5},{"round":-1,"informed":"x"}]}`)
	f.Add(`{"grid":{"scales":[0,0,0]},"refine":-1}`)
	f.Add(`{"base":{"driver":"spanner","graph":{"family":"grid","n":9}},"reference":{"driver":"push-pull","graph":{"family":"grid","n":9}}}`)
	f.Add(`{"base":{"driver":"push-pull","graph":{"family":"clique","n":8},"transport":"chan"},"reference":{"driver":"push-pull","graph":{"family":"clique","n":8},"shards":2,"transport":"chan"}}`)
	srv := New(Config{})
	f.Fuzz(func(t *testing.T, raw string) {
		var req EstimateRequest
		if err := json.Unmarshal([]byte(raw), &req); err != nil {
			return
		}
		ej, ferr := srv.validateEstimate(req)
		if ferr == nil && ej == nil {
			t.Fatal("validateEstimate returned neither a job nor an error")
		}
		if ferr != nil && ferr.Message == "" {
			t.Fatalf("unstructured validation error for %q", raw)
		}
	})
}

// TestEstimateCandidateIsTheKeysExecution reproduces the order behind
// E26's "misses for distinct jobs" alarm: the estimate's benign coarse
// candidate is exactly pushPullReq's canonical job, so when the estimate
// runs first the direct request is a hit that no client ever saw miss.
// The candidate's evaluation must then have been that key's one
// execution, on the execution path a leader takes (the gate sees it),
// and no key may have run twice.
func TestEstimateCandidateIsTheKeysExecution(t *testing.T) {
	var mu sync.Mutex
	runs := map[string]int{}
	srv := New(Config{gate: func(key string) {
		mu.Lock()
		runs[key]++
		mu.Unlock()
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _, _ := postEstimate(t, ts.URL, lossyEstimateReq()); status != http.StatusOK {
		t.Fatalf("estimate status %d", status)
	}
	status, cache, body := postJob(t, ts.URL, pushPullReq())
	if status != http.StatusOK || cache != "hit" {
		t.Fatalf("status %d cache %q, want a hit off the estimate's evaluations", status, cache)
	}
	key := decodeStream(t, body)[0]["request_key"].(string)
	mu.Lock()
	defer mu.Unlock()
	if runs[key] != 1 {
		t.Fatalf("the job served as a hit executed %d times, want once (as the estimate's candidate)", runs[key])
	}
	for k, n := range runs {
		if n > 1 {
			t.Fatalf("key %s executed %d times", k, n)
		}
	}
}

// TestEstimateCandidateLeadsItsFlight: a candidate that executes a
// simulation key leads that key's flight, so a direct request for the
// key arriving meanwhile follows it and replays its body instead of
// running the job a second time.
func TestEstimateCandidateLeadsItsFlight(t *testing.T) {
	jb, ferr := New(Config{}).validate(pushPullReq())
	if ferr != nil {
		t.Fatal(ferr)
	}
	held, open := make(chan struct{}), make(chan struct{})
	var mu sync.Mutex
	runs := map[string]int{}
	srv := New(Config{Pool: 4, gate: func(key string) {
		mu.Lock()
		runs[key]++
		first := key == jb.key && runs[key] == 1
		mu.Unlock()
		if first {
			close(held)
			<-open
		}
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		cache string
		body  []byte
	}
	post := func(path string, payload any, out chan<- reply) {
		raw, _ := json.Marshal(payload)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			out <- reply{}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		out <- reply{resp.Header.Get(CacheHeader), body}
	}
	estimated, direct := make(chan reply, 1), make(chan reply, 1)
	go post("/v1/estimates", lossyEstimateReq(), estimated)
	select {
	case <-held: // the candidate executes the key, held at the gate
	case <-time.After(time.Minute):
		t.Fatal("the estimate never executed the direct job's key")
	}
	go post("/v1/simulations", pushPullReq(), direct)
	// The direct request waits on the candidate's flight, or, finding
	// none, runs the key itself.
	waitFor(t, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return srv.Metrics().InFlight == 2 || runs[jb.key] > 1
	})
	close(open)
	if r := <-direct; r.cache != "hit" {
		t.Fatalf("direct request was a %q while the candidate ran its key, want a coalesced hit", r.cache)
	}
	est := <-estimated

	fresh := httptest.NewServer(New(Config{}).Handler())
	defer fresh.Close()
	if _, _, want := postEstimate(t, fresh.URL, lossyEstimateReq()); !bytes.Equal(est.body, want) {
		t.Fatalf("estimate whose candidate led a flight differs from a fresh one:\n%s\nvs\n%s", est.body, want)
	}
	mu.Lock()
	defer mu.Unlock()
	if runs[jb.key] != 1 || srv.Metrics().Reexecutions != 0 {
		t.Fatalf("key executed %d times, %d re-executions; want once and none", runs[jb.key], srv.Metrics().Reexecutions)
	}
}

// TestEstimateReferenceWaitsWithoutASlot: the reference evaluation can
// follow another request's flight, so it must not hold a pool slot while
// it waits. On one slot, a client's leader for the reference job queues
// for the slot the estimate's leader holds; the estimate has to hand the
// slot back before it waits, or neither job ever runs.
func TestEstimateReferenceWaitsWithoutASlot(t *testing.T) {
	req := lossyEstimateReq()
	ej, ferr := New(Config{}).validateEstimate(req)
	if ferr != nil {
		t.Fatal(ferr)
	}
	held, open := make(chan struct{}), make(chan struct{})
	srv := New(Config{Pool: 1, gate: func(key string) {
		if key == ej.key {
			close(held)
			<-open
		}
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	client := &http.Client{Timeout: 30 * time.Second} // a deadlock fails, not hangs
	post := func(path string, payload any, out chan<- []byte) {
		raw, _ := json.Marshal(payload)
		resp, err := client.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Error(err)
			out <- nil
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Error(err)
		}
		out <- body
	}
	estimated, reference := make(chan []byte, 1), make(chan []byte, 1)
	go post("/v1/estimates", req, estimated)
	<-held // the estimate's leader holds the only slot
	go post("/v1/simulations", *req.Reference, reference)
	waitFor(t, func() bool { return srv.Metrics().Queued == 1 }) // its leader queues for that slot
	close(open)
	if body := <-reference; body == nil || lastEvent(t, body)["event"] != "result" {
		t.Fatalf("reference job did not complete: %s", body)
	}
	if body := <-estimated; body == nil || lastEvent(t, body)["event"] != "estimate" {
		t.Fatalf("estimate did not complete: %s", body)
	}
}
