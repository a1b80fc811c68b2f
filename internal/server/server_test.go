package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"gossip/internal/gossip"
)

// postJSON submits payload to one /v1 endpoint and returns status, cache
// header and body.
func postJSON(t *testing.T, url string, payload any) (int, string, []byte) {
	t.Helper()
	raw, err := json.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get(CacheHeader), body
}

func postJob(t *testing.T, url string, req Request) (int, string, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/simulations", req)
}

// decodeStream parses an NDJSON body into loosely-typed events.
func decodeStream(t *testing.T, body []byte) []map[string]any {
	t.Helper()
	var events []map[string]any
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		var ev map[string]any
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		if ev["schema_version"] != float64(SchemaVersion) {
			t.Fatalf("line without schema_version %d: %q", SchemaVersion, sc.Text())
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return events
}

func pushPullReq() Request {
	return Request{Driver: "push-pull", Graph: GraphSpec{Family: "dumbbell", N: 8, Latency: 12}, Seed: 3}
}

func TestSimulateStreamShape(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	status, cache, body := postJob(t, ts.URL, pushPullReq())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q, want 200 miss", status, cache)
	}
	events := decodeStream(t, body)
	if len(events) < 3 {
		t.Fatalf("stream too short: %d events", len(events))
	}
	if events[0]["event"] != "accepted" || events[0]["driver"] != "push-pull" || events[0]["request_key"] == "" {
		t.Fatalf("bad accepted event: %+v", events[0])
	}
	last := events[len(events)-1]
	if last["event"] != "result" {
		t.Fatalf("last event %+v, want result", last)
	}
	res := last["result"].(map[string]any)
	if res["completed"] != true || res["rounds"].(float64) <= 0 {
		t.Fatalf("bad result: %+v", res)
	}
	prevRound, prevInformed := -1.0, 0.0
	for _, ev := range events[1 : len(events)-1] {
		if ev["event"] != "progress" {
			t.Fatalf("mid-stream event %+v, want progress", ev)
		}
		r, in := ev["round"].(float64), ev["informed"].(float64)
		if r <= prevRound || in < prevInformed {
			t.Fatalf("progress not monotone: %+v after (%v,%v)", ev, prevRound, prevInformed)
		}
		prevRound, prevInformed = r, in
	}
	// 16 nodes, all informed by the end
	if prevInformed != 16 {
		t.Fatalf("final informed %v, want 16", prevInformed)
	}
}

// TestSimulateCacheHitIsByteIdentical is the memoization contract:
// identical request ⇒ hit ⇒ byte-identical body; different seed ⇒
// different key, miss.
func TestSimulateCacheHitIsByteIdentical(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, cache1, body1 := postJob(t, ts.URL, pushPullReq())
	_, cache2, body2 := postJob(t, ts.URL, pushPullReq())
	if cache1 != "miss" || cache2 != "hit" {
		t.Fatalf("cache %q then %q, want miss then hit", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cached replay differs:\n%s\nvs\n%s", body1, body2)
	}

	other := pushPullReq()
	other.Seed = 99
	_, cache3, body3 := postJob(t, ts.URL, other)
	if cache3 != "miss" {
		t.Fatalf("different seed served from cache")
	}
	if bytes.Equal(body1, body3) {
		t.Fatal("different seeds produced identical bodies (suspicious)")
	}
	m := srv.Metrics()
	if m.CacheHits != 1 || m.CacheMisses != 2 || m.Completed != 2 {
		t.Fatalf("metrics %+v, want 1 hit / 2 misses / 2 completed", m)
	}
	if m.RoundsSimulated <= 0 {
		t.Fatalf("rounds not accumulated: %+v", m)
	}
}

// TestSimulateDeterministicAcrossPoolsAndWorkers is the acceptance
// criterion: the same job against servers with different pool sizes, and
// with different intra-round worker counts, returns byte-identical
// bodies.
func TestSimulateDeterministicAcrossPoolsAndWorkers(t *testing.T) {
	bodies := make([][]byte, 0, 4)
	for _, cfg := range []Config{{Pool: 1}, {Pool: 8}} {
		ts := httptest.NewServer(New(cfg).Handler())
		for _, workers := range []int{0, 8} {
			req := pushPullReq()
			req.Workers = workers
			status, _, body := postJob(t, ts.URL, req)
			if status != http.StatusOK {
				t.Fatalf("status %d", status)
			}
			bodies = append(bodies, body)
		}
		ts.Close()
	}
	for i := 1; i < len(bodies); i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("body %d differs from body 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
}

// TestSimulateFaultSpecJob runs a lossy/churny/flappy/crashy job through
// the full HTTP path and pins that it completes deterministically.
func TestSimulateFaultSpecJob(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	req := pushPullReq()
	req.FaultSpec = "loss=0.15;churn=2:6-14:amnesia;flap=0-1:3-8;crash=9:5"
	status, _, body1 := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, body1)
	}
	events := decodeStream(t, body1)
	last := events[len(events)-1]
	if last["event"] != "result" {
		t.Fatalf("fault job ended with %+v", last)
	}
	res := last["result"].(map[string]any)
	if res["dropped"].(float64) <= 0 {
		t.Fatalf("lossy schedule dropped nothing: %+v", res)
	}
	_, cache, body2 := postJob(t, ts.URL, req)
	if cache != "hit" || !bytes.Equal(body1, body2) {
		t.Fatal("fault job not memoized bit-identically")
	}
}

// TestDrain is the graceful-shutdown satellite: the in-flight job
// finishes and streams its result, the queued job gets 503, new
// submissions get 503, and /healthz flips to draining.
func TestDrain(t *testing.T) {
	release := make(chan struct{})
	started := make(chan string, 4)
	srv := New(Config{Pool: 1, gate: func(key string) {
		started <- key
		<-release
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	type reply struct {
		status int
		body   []byte
	}
	inflight := make(chan reply, 1)
	go func() {
		status, _, body := postJob(t, ts.URL, pushPullReq())
		inflight <- reply{status, body}
	}()
	<-started // job A holds the only slot

	queued := make(chan reply, 1)
	queuedReq := pushPullReq()
	queuedReq.Seed = 77 // distinct key: must queue, not coalesce
	go func() {
		status, _, body := postJob(t, ts.URL, queuedReq)
		queued <- reply{status, body}
	}()
	waitFor(t, func() bool { return srv.Metrics().Queued == 1 })

	srv.Drain()

	// The queued job is rejected without running.
	q := <-queued
	if q.status != http.StatusServiceUnavailable {
		t.Fatalf("queued job status %d (%s), want 503", q.status, q.body)
	}

	// New submissions are rejected outright.
	status, _, body := postJob(t, ts.URL, Request{Driver: "flood", Graph: okGraph()})
	if status != http.StatusServiceUnavailable {
		t.Fatalf("new job during drain: %d (%s)", status, body)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hb, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(hb), "draining") {
		t.Fatalf("healthz during drain: %d %s", resp.StatusCode, hb)
	}

	// The in-flight job still finishes and streams its full result.
	close(release)
	a := <-inflight
	if a.status != http.StatusOK {
		t.Fatalf("in-flight job status %d", a.status)
	}
	events := decodeStream(t, a.body)
	if events[len(events)-1]["event"] != "result" {
		t.Fatalf("in-flight job did not complete: %+v", events[len(events)-1])
	}
	if srv.Metrics().Completed != 1 {
		t.Fatalf("metrics after drain: %+v", srv.Metrics())
	}
}

// TestSimulateDeterministicErrorIsCached: a job that fails as a pure
// function of its request (fault-spec ids out of range for the graph)
// streams a structured error event and replays identically from cache.
func TestSimulateDeterministicErrorIsCached(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	req := pushPullReq()
	req.FaultSpec = "churn=4000:2-5" // node 4000 does not exist on n=16
	status, cache1, body1 := postJob(t, ts.URL, req)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	events := decodeStream(t, body1)
	if events[len(events)-1]["event"] != "error" {
		t.Fatalf("expected error event, got %+v", events[len(events)-1])
	}
	_, cache2, body2 := postJob(t, ts.URL, req)
	if cache1 != "miss" || cache2 != "hit" || !bytes.Equal(body1, body2) {
		t.Fatalf("deterministic error not memoized: %q/%q", cache1, cache2)
	}
}

func TestBadRequestsNever500(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, raw := range []string{
		``, `{`, `[]`, `{"driver":"push-pull","graph":{"family":"clique","n":8},"bogus_field":1}`,
		`{"driver":"nope","graph":{"family":"clique","n":8}}`,
		`{"driver":"push-pull","graph":{"family":"clique","n":8},"timeout_ms":0}`,
		`{"driver":"push-pull","graph":{"family":"clique","n":8},"fault_spec":"loss=2"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/simulations", "application/json", strings.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("request %q: status %d (%s), want 400", raw, resp.StatusCode, body)
		}
		var fe struct {
			Error *FieldError `json:"error"`
		}
		if err := json.Unmarshal(body, &fe); err != nil || fe.Error == nil || fe.Error.Field == "" {
			t.Fatalf("request %q: unstructured 400 body %s", raw, body)
		}
	}
	// wrong method
	resp, err := http.Get(ts.URL + "/v1/simulations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/simulations: %d, want 405", resp.StatusCode)
	}
}

func TestDriversEndpoint(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/drivers")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var infos []driverInfo
	if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
		t.Fatal(err)
	}
	// The endpoint is the registry, verbatim: every registered driver,
	// in Names() order, each with a non-empty schema. A driver added to
	// the registry shows up here with no server change.
	names := gossip.Names()
	if len(infos) != len(names) {
		t.Fatalf("%d drivers listed, registry has %d (%v)", len(infos), len(names), names)
	}
	for i, info := range infos {
		if info.Name != names[i] {
			t.Fatalf("driver %d is %q, registry order says %q", i, info.Name, names[i])
		}
		if info.Description == "" {
			t.Fatalf("driver %q has no description", info.Name)
		}
		if len(info.RequestKeys) == 0 || len(info.Options) == 0 {
			t.Fatalf("driver %q missing schema: %+v", info.Name, info)
		}
		for _, o := range info.Options {
			if o.Name == "" || o.Doc == "" {
				t.Fatalf("driver %q option undocumented: %+v", info.Name, o)
			}
		}
	}
}

func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, _, first := postJob(t, ts.URL, pushPullReq())
	postJob(t, ts.URL, pushPullReq())
	// Publishing a key whose body is cached is a second execution of it.
	srv.publish(decodeStream(t, first)[0]["request_key"].(string), first)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"gossipd_jobs_completed_total 1",
		"gossipd_cache_hits_total 1",
		"gossipd_cache_misses_total 1",
		"gossipd_reexecutions_total 1",
		"gossipd_cache_entries 1",
		"gossipd_rounds_simulated_total",
		"gossipd_pool_slots",
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}

// waitFor polls cond for up to ~2s; used where a handler's bookkeeping
// trails the observable HTTP effect by a scheduler beat.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	for i := 0; i < 400; i++ {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition never held")
}

// TestAllDriversServable smoke-runs every registered driver through the
// HTTP path on one topology: the service must expose the whole registry.
func TestAllDriversServable(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	for _, name := range []string{"auto", "dtg", "flood", "pattern", "push-pull", "rr", "spanner", "superstep"} {
		req := Request{Driver: name, Graph: GraphSpec{Family: "grid", N: 9, Latency: 2}, Seed: 1}
		if name == "spanner" || name == "auto" {
			req.KnownLatencies = boolp(true)
		}
		status, _, body := postJob(t, ts.URL, req)
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", name, status, body)
		}
		events := decodeStream(t, body)
		last := events[len(events)-1]
		if last["event"] != "result" {
			t.Fatalf("%s: ended with %+v", name, last)
		}
		if res := last["result"].(map[string]any); res["completed"] != true {
			t.Fatalf("%s: incomplete: %+v", name, res)
		}
	}
}

// TestCacheDisabled pins the negative-CacheSize escape hatch: every
// identical sequential request re-executes (miss), still byte-identical.
func TestCacheDisabled(t *testing.T) {
	srv := New(Config{CacheSize: -1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	_, cache1, body1 := postJob(t, ts.URL, pushPullReq())
	_, cache2, body2 := postJob(t, ts.URL, pushPullReq())
	if cache1 != "miss" || cache2 != "miss" {
		t.Fatalf("cache %q/%q with caching disabled, want miss/miss", cache1, cache2)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatal("uncached re-execution diverged")
	}
	if m := srv.Metrics(); m.CacheEntries != 0 || m.CacheMisses != 2 {
		t.Fatalf("metrics %+v", m)
	}
	// Concurrent identical requests must not coalesce either: caching
	// off means every request is its own execution.
	var wg sync.WaitGroup
	results := make(chan string, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, cache, body := postJob(t, ts.URL, pushPullReq())
			if !bytes.Equal(body, body1) {
				t.Error("uncached concurrent execution diverged")
			}
			results <- cache
		}()
	}
	wg.Wait()
	close(results)
	for cache := range results {
		if cache != "miss" {
			t.Fatalf("concurrent request served %q with caching disabled, want miss", cache)
		}
	}
	if m := srv.Metrics(); m.CacheMisses != 6 || m.CacheHits != 0 {
		t.Fatalf("metrics after concurrent phase: %+v", m)
	}
}

// TestValidateCapsBuiltNodeCount: the MaxN cap applies to what the
// family builds, so a ring cannot multiply past it via layers.
func TestValidateCapsBuiltNodeCount(t *testing.T) {
	s := New(Config{MaxN: 1000})
	if _, ferr := s.validate(Request{Driver: "push-pull",
		Graph: GraphSpec{Family: "ring", N: 100, Latency: 1, Layers: 11}}); ferr == nil || ferr.Field != "graph.n" {
		t.Fatalf("ring 11x100=1100 nodes accepted past MaxN=1000: %v", ferr)
	}
	if _, ferr := s.validate(Request{Driver: "push-pull",
		Graph: GraphSpec{Family: "dumbbell", N: 501, Latency: 1}}); ferr == nil || ferr.Field != "graph.n" {
		t.Fatalf("dumbbell 2x501=1002 nodes accepted past MaxN=1000: %v", ferr)
	}
	if _, ferr := s.validate(Request{Driver: "push-pull",
		Graph: GraphSpec{Family: "dumbbell", N: 500, Latency: 1}}); ferr != nil {
		t.Fatalf("dumbbell 1000 nodes rejected at MaxN=1000: %v", ferr)
	}
}
