package server

import (
	"gossip/internal/gossip"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// chanReq is a small real-transport job: push-pull on a 5x5 grid over
// an in-process goroutine mesh.
func chanReq() Request {
	return Request{
		Driver:    "push-pull",
		Graph:     GraphSpec{Family: "grid", N: 5},
		Seed:      7,
		Transport: "chan",
	}
}

// TestSimulateChanTransport drives the execution half of the knob: a
// transport "chan" job streams the usual accepted/progress/result shape,
// completes, and is never cached — neither consuming a memoized sim body
// nor leaving one behind.
func TestSimulateChanTransport(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Warm the cache with the deterministic run of the same canonical
	// request, so a cache-key leak would serve the chan job from it.
	sim := chanReq()
	sim.Transport = ""
	if status, cache, _ := postJob(t, ts.URL, sim); status != http.StatusOK || cache != "miss" {
		t.Fatalf("sim warmup: status %d cache %q", status, cache)
	}

	status, cache, body := postJob(t, ts.URL, chanReq())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("chan run: status %d cache %q, want 200 miss (never a cache hit)", status, cache)
	}
	events := decodeStream(t, body)
	if events[0]["event"] != "accepted" {
		t.Fatalf("bad first event: %+v", events[0])
	}
	last := events[len(events)-1]
	if last["event"] != "result" {
		t.Fatalf("last event %+v, want result", last)
	}
	res := last["result"].(map[string]any)
	if res["completed"] != true {
		t.Fatalf("real-transport run incomplete: %+v", res)
	}
	if res["messages"].(float64) <= 0 {
		t.Fatalf("real-transport run moved no messages: %+v", res)
	}

	// A second identical chan request executes again (miss), while the
	// deterministic body cached by the warmup is still served to sim
	// requests — the chan run neither replaced nor evicted it.
	if _, cache, _ := postJob(t, ts.URL, chanReq()); cache != "miss" {
		t.Fatalf("second chan run served from cache (%q)", cache)
	}
	if _, cache, _ := postJob(t, ts.URL, sim); cache != "hit" {
		t.Fatalf("sim replay after chan runs: cache %q, want hit", cache)
	}
	if m := srv.Metrics(); m.CacheMisses != 3 || m.CacheHits != 1 {
		t.Fatalf("metrics %+v, want 3 misses / 1 hit", m)
	}
}

// TestValidateTransport pins the knob's validation surface and that it
// stays out of the cache key.
func TestValidateTransport(t *testing.T) {
	s := testServer()

	simJob, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), Transport: "sim"})
	if ferr != nil || simJob.transport != "" {
		t.Fatalf("transport sim: %v, job %+v", ferr, simJob)
	}
	chanJob, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), Transport: "chan"})
	if ferr != nil || chanJob.transport != "chan" {
		t.Fatalf("transport chan: %v", ferr)
	}
	// Execution-only: the fabric must not split the cache key.
	if simJob.key != chanJob.key {
		t.Fatal("transport split the cache key")
	}

	rejected := []Request{
		{Driver: "push-pull", Graph: okGraph(), Transport: "tcp"},
		{Driver: "spanner", Graph: okGraph(), Transport: "chan"},
		{Driver: "push-pull", Graph: okGraph(), Transport: "chan", FaultSpec: "loss=0.1"},
		{Driver: "push-pull", Graph: okGraph(), Transport: "chan", MaxInPerRound: intp(2)},
		{Driver: "push-pull", Graph: okGraph(), Transport: "chan", Objective: strp("all-to-all")},
		{Driver: "push-pull", Graph: okGraph(), Transport: "chan", Shards: 2},
	}
	for _, req := range rejected {
		if _, ferr := s.validate(req); ferr == nil {
			t.Errorf("request %+v accepted, want a field error", req)
		}
	}
	if _, ferr := s.validate(rejected[0]); ferr == nil || ferr.Field != "transport" ||
		!strings.Contains(ferr.Message, "sim, chan") {
		t.Fatalf("unknown transport error: %v", ferr)
	}
	// Real-transport is a registered capability, not "has a Prepare": the
	// single-phase drivers without it are refused, and the message lists
	// the registry's real-transport drivers.
	for _, name := range []string{"dtg", "superstep", "rr", "election", "echo", "spanner"} {
		_, ferr := s.validate(Request{Driver: name, Graph: okGraph(), Transport: "chan"})
		if ferr == nil || ferr.Field != "transport" ||
			!strings.Contains(ferr.Message, strings.Join(gossip.RealTransportNames(), ", ")) {
			t.Errorf("driver %s over transport chan: %v, want a transport error listing the real-transport drivers", name, ferr)
		}
	}
}
