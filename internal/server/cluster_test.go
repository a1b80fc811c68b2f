package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/graphgen"
	"gossip/internal/sim"
)

// testFleet boots n real servers on loopback listeners sharing one
// membership list. It mirrors loadgen.StartFleet, which this package
// cannot import (loadgen imports server).
type testFleet struct {
	servers []*Server
	urls    []string
	https   []*http.Server
}

func startTestFleet(t *testing.T, n int, cfg Config) *testFleet {
	t.Helper()
	listeners := make([]net.Listener, n)
	peers := make([]string, n)
	for i := range listeners {
		lis, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		listeners[i] = lis
		peers[i] = lis.Addr().String()
	}
	f := &testFleet{}
	for i, lis := range listeners {
		mcfg := cfg
		mcfg.Peers = peers
		mcfg.Advertise = peers[i]
		s := New(mcfg)
		hs := &http.Server{Handler: s.Handler()}
		go func() { _ = hs.Serve(lis) }()
		f.servers = append(f.servers, s)
		f.urls = append(f.urls, "http://"+lis.Addr().String())
		f.https = append(f.https, hs)
	}
	t.Cleanup(func() {
		for i, s := range f.servers {
			s.Drain()
			_ = f.https[i].Close()
		}
	})
	return f
}

func postSim(t *testing.T, base string, req Request) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/v1/simulations", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestFleetShardedRunMatchesSingle runs each request both sharded
// across the fleet and single-process on a fleet member (shards=0 skips
// the coordinator) and requires byte-identical NDJSON. The dtg and
// superstep cases run on a 16 × 8 ring, where a node's heard set holds
// its 16-node latency-1 clique against a 4-word bitmap of 128 ids: their
// heard sets turn dense, so the dense form crosses the TCP meta-frame
// codec.
func TestFleetShardedRunMatchesSingle(t *testing.T) {
	f := startTestFleet(t, 3, Config{Pool: 2, CacheSize: -1})
	ring := GraphSpec{Family: "ring", N: 16, Layers: 8, Latency: 4}
	reqs := []Request{
		{Driver: "push-pull", Graph: GraphSpec{Family: "regular", N: 512, Latency: 1}, Seed: 41},
		{Driver: "dtg", Graph: ring, Seed: 42},
		{Driver: "superstep", Graph: ring, Ell: intp(1), Seed: 43},
	}
	for i, req := range reqs {
		req.Shards = 2
		resp, dist := postSim(t, f.urls[0], req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s sharded: %d %s", req.Driver, resp.StatusCode, dist)
		}
		req.Shards = 0
		resp, single := postSim(t, f.urls[0], req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s single: %d %s", req.Driver, resp.StatusCode, single)
		}
		if !bytes.Equal(dist, single) {
			t.Fatalf("%s: sharded body differs from single-process body:\n%s\nvs\n%s", req.Driver, dist, single)
		}
		m := f.servers[0].Metrics()
		if m.ShardJobs != int64(i+1) {
			t.Fatalf("after %s: coordinator ShardJobs = %d, want %d", req.Driver, m.ShardJobs, i+1)
		}
		var sessions int64
		for _, s := range f.servers[1:] {
			sessions += s.Metrics().ShardSessions
		}
		if want := int64(2 * (i + 1)); sessions != want {
			t.Fatalf("after %s: worker shard sessions = %d, want %d", req.Driver, sessions, want)
		}
	}
}

// TestShardJobPanicReachesCoordinator: a worker shard job runs under the
// leader's guard. A panic in it reaches the coordinator as the worker's
// error frame — "job panicked" and the panic value — so the coordinated
// request fails with a transient error that is not cached; every worker
// keeps serving, and the identical request succeeds once the driver is
// whole again. The job is broken by swapping the registered push-pull
// driver's Prepare, which only shard workers call on this path.
func TestShardJobPanicReachesCoordinator(t *testing.T) {
	pp, ok := gossip.Lookup("push-pull")
	if !ok {
		t.Fatal("push-pull is not registered")
	}
	whole := pp.Prepare
	pp.Prepare = func(gossip.DriverOptions) (sim.Config, sim.Factory, sim.StopFunc, error) {
		panic("shard job blew up")
	}
	defer func() { pp.Prepare = whole }()

	f := startTestFleet(t, 3, Config{Pool: 1})
	req := Request{Driver: "push-pull", Graph: GraphSpec{Family: "clique", N: 16}, Seed: 7, Shards: 2}
	status, cache, body := postJob(t, f.urls[0], req)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q", status, cache)
	}
	last := lastEvent(t, body)
	msg, _ := last["error"].(map[string]any)["message"].(string)
	if last["event"] != "error" || !strings.Contains(msg, "job panicked: shard job blew up") {
		t.Fatalf("coordinated job with a panicking shard ended with %+v", last)
	}
	// The request may be forwarded to its key's owner, which coordinates.
	var failed, cached int64
	for _, s := range f.servers {
		m := s.Metrics()
		failed, cached = failed+m.Failed, cached+int64(m.CacheEntries)
	}
	if failed != 1 || cached != 0 {
		t.Fatalf("fleet: %d failed jobs, %d cache entries; want 1 and 0", failed, cached)
	}

	pp.Prepare = whole
	for i, url := range f.urls {
		resp, err := http.Get(url + "/healthz")
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("member %d stopped serving after the panic: %v", i, err)
		}
		resp.Body.Close()
	}
	status, cache, body = postJob(t, f.urls[0], req)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("retry status %d cache %q (a panic must not be cached)", status, cache)
	}
	if last := lastEvent(t, body); last["event"] != "result" {
		t.Fatalf("retry did not complete: %+v", last)
	}
}

// TestFleetShardValidation exercises the request-level gates of
// distributed execution.
func TestFleetShardValidation(t *testing.T) {
	f := startTestFleet(t, 3, Config{Pool: 1})
	base := Request{
		Driver: "push-pull",
		Graph:  GraphSpec{Family: "clique", N: 16},
		Seed:   1,
	}
	cases := []struct {
		name string
		mut  func(*Request)
		want string
	}{
		{"one shard", func(r *Request) { r.Shards = 1 }, "must be 0"},
		{"beyond fleet", func(r *Request) { r.Shards = 4 }, "exceeds the fleet"},
		{"non-distributable", func(r *Request) { r.Shards = 1; r.Driver = "auto" }, "must be 0"},
	}
	for _, tc := range cases {
		req := base
		tc.mut(&req)
		resp, body := postSim(t, f.urls[0], req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), tc.want) {
			t.Errorf("%s: %d %s (want 400 with %q)", tc.name, resp.StatusCode, body, tc.want)
		}
	}
	// The server's refusal of a non-distributable driver is the gossip
	// layer's own sentence (PrepareDist), list of drivers included.
	req := base
	req.Shards, req.Driver = 2, "auto"
	_, ferr := f.servers[0].validate(req)
	_, _, _, err := gossip.PrepareDist("auto", graphgen.Clique(16, 1), gossip.DriverOptions{})
	if ferr == nil || err == nil || "gossip: "+ferr.Message != err.Error() {
		t.Fatalf("non-distributable texts differ:\nserver: %v\ngossip: %v", ferr, err)
	}
	// No fleet at all: shards must be rejected outright.
	single := httptest.NewServer(New(Config{}).Handler())
	defer single.Close()
	req = base
	req.Shards = 2
	resp, body := postSim(t, single.URL, req)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "needs a fleet") {
		t.Fatalf("no-fleet shards: %d %s", resp.StatusCode, body)
	}
}

// TestMetricsUnderConcurrentScrapes hammers /metrics from several
// goroutines while a job mix (including a sharded job and a forwarded
// request) runs on the fleet, requiring every scrape to parse and every
// counter to be monotonic per member — the satellite contract for the
// new gossipd_shard_* and cache-forwarding counters. The -race CI run
// doubles as the data-race check on the shard/forward counter paths.
func TestMetricsUnderConcurrentScrapes(t *testing.T) {
	f := startTestFleet(t, 3, Config{Pool: 2})

	counters := []string{
		"gossipd_jobs_completed_total",
		"gossipd_cache_hits_total",
		"gossipd_cache_misses_total",
		"gossipd_rounds_simulated_total",
		"gossipd_shard_jobs_total",
		"gossipd_shard_sessions_total",
		"gossipd_shard_failures_total",
		"gossipd_cache_forwarded_total",
		"gossipd_cache_forward_served_total",
		"gossipd_cache_forward_failures_total",
	}
	parse := func(body string) (map[string]int64, error) {
		out := map[string]int64{}
		for _, line := range strings.Split(body, "\n") {
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			name, val, ok := strings.Cut(line, " ")
			if !ok {
				return nil, fmt.Errorf("unparseable metrics line %q", line)
			}
			v, err := strconv.ParseInt(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("metric %s: %w", name, err)
			}
			out[name] = v
		}
		return out, nil
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 8)

	// Scrapers: one per member, each checking monotonicity against its
	// own previous scrape.
	for _, url := range f.urls {
		wg.Add(1)
		go func(url string) {
			defer wg.Done()
			prev := map[string]int64{}
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := http.Get(url + "/metrics")
				if err != nil {
					errc <- err
					return
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					errc <- fmt.Errorf("scrape: %d %v", resp.StatusCode, err)
					return
				}
				cur, err := parse(string(body))
				if err != nil {
					errc <- err
					return
				}
				for _, c := range counters {
					if cur[c] < prev[c] {
						errc <- fmt.Errorf("%s went backwards on %s: %d -> %d", c, url, prev[c], cur[c])
						return
					}
				}
				prev = cur
			}
		}(url)
	}

	// Load: unique jobs spread over the members (forwarding fires
	// whenever the key's owner is a different member), one repeated job
	// posted to two members (cross-member hit), and one sharded job.
	for i := 0; i < 6; i++ {
		req := Request{
			Driver: "flood",
			Graph:  GraphSpec{Family: "clique", N: 12},
			Seed:   uint64(100 + i),
		}
		if resp, body := postSim(t, f.urls[i%3], req); resp.StatusCode != http.StatusOK {
			t.Fatalf("load job %d: %d %s", i, resp.StatusCode, body)
		}
	}
	shared := Request{Driver: "push-pull", Graph: GraphSpec{Family: "path", N: 24, Latency: 1}, Seed: 9}
	postSim(t, f.urls[0], shared)
	postSim(t, f.urls[1], shared)
	sharded := Request{
		Driver: "push-pull",
		Graph:  GraphSpec{Family: "regular", N: 256, Latency: 1},
		Seed:   77, Shards: 2,
	}
	if resp, body := postSim(t, f.urls[0], sharded); resp.StatusCode != http.StatusOK {
		t.Fatalf("sharded job: %d %s", resp.StatusCode, body)
	}

	time.Sleep(50 * time.Millisecond) // let scrapers observe the final state
	close(stop)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	var forwarded, served, shardJobs, sessions int64
	for _, s := range f.servers {
		m := s.Metrics()
		forwarded += m.Forwarded
		served += m.ForwardServed
		shardJobs += m.ShardJobs
		sessions += m.ShardSessions
	}
	if forwarded == 0 || served == 0 {
		t.Fatalf("forward counters never moved: forwarded=%d served=%d", forwarded, served)
	}
	if shardJobs == 0 || sessions == 0 {
		t.Fatalf("shard counters never moved: jobs=%d sessions=%d", shardJobs, sessions)
	}
}
