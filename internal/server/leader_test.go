package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"gossip/internal/gossip"
)

// leaderKinds are the three /v1 job kinds as the one leader sees them:
// an endpoint, the event a completed stream ends in, and a payload built
// around one base job. badSpec, when set, is a fault schedule that fails
// deterministically at execution, placed where the kind admits one.
var leaderKinds = []struct {
	name, path, last string
	// drained is the last event of a leader that finishes while the
	// server drains: a simulation just completes; fan-out work never
	// gets its slots, so a sweep tallies aborted variants and an
	// estimate ends in the abort's error event.
	drained string
	wrap    func(base Request, badSpec string) any
}{
	{"simulation", "/v1/simulations", "result", "result", func(base Request, badSpec string) any {
		base.FaultSpec = badSpec
		return base
	}},
	{"sweep", "/v1/sweeps", "sweep_result", "sweep_result", func(base Request, badSpec string) any {
		sw := pushPullSweep()
		sw.Base = base
		sw.Base.FaultSpec = badSpec
		return sw
	}},
	{"estimate", "/v1/estimates", "estimate", "error", func(base Request, badSpec string) any {
		est := lossyEstimateReq()
		ref := base
		ref.FaultSpec = "loss=0.2"
		if badSpec != "" {
			ref.FaultSpec = badSpec
		}
		est.Base, est.Reference = base, &ref
		return est
	}},
}

// gatedServer holds every leader's producer at the gate until open is
// called; entered reports each key that reached execution.
func gatedServer(cfg Config) (srv *Server, entered chan string, open func()) {
	entered = make(chan string, 16)
	release := make(chan struct{})
	cfg.gate = func(key string) {
		entered <- key
		<-release
	}
	return New(cfg), entered, func() { close(release) }
}

func lastEvent(t *testing.T, body []byte) map[string]any {
	t.Helper()
	events := decodeStream(t, body)
	if len(events) < 2 || events[0]["event"] != "accepted" {
		t.Fatalf("stream does not open with accepted and end with a terminator: %s", body)
	}
	return events[len(events)-1]
}

// TestLeaderContract pins what lead promises, once, over every job kind
// that goes through it.
func TestLeaderContract(t *testing.T) {
	for _, kind := range leaderKinds {
		t.Run(kind.name, func(t *testing.T) {
			// A job past its budget streams an error event, counts as
			// failed and is not cached: once the abandoned producer has
			// finished and freed its slot, the identical request (timeout
			// is an execution knob, not key material) executes fresh.
			t.Run("timeout", func(t *testing.T) {
				srv, _, open := gatedServer(Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				short := pushPullReq()
				short.TimeoutMS = intp(30)
				status, cache, body := postJSON(t, ts.URL+kind.path, kind.wrap(short, ""))
				if status != http.StatusOK || cache != "miss" {
					t.Fatalf("status %d cache %q", status, cache)
				}
				last := lastEvent(t, body)
				if last["event"] != "error" || !strings.Contains(last["error"].(map[string]any)["message"].(string), "timeout") {
					t.Fatalf("timed-out job ended with %+v", last)
				}
				if m := srv.Metrics(); m.Failed != 1 || m.Completed != 0 {
					t.Fatalf("metrics: %+v", m)
				}

				open()
				waitFor(t, func() bool { return srv.Metrics().Running == 0 })
				status, cache, body = postJSON(t, ts.URL+kind.path, kind.wrap(pushPullReq(), ""))
				if status != http.StatusOK || cache != "miss" {
					t.Fatalf("retry status %d cache %q (timeouts must not be cached)", status, cache)
				}
				if last := lastEvent(t, body); last["event"] != kind.last {
					t.Fatalf("retry did not complete: %+v", last)
				}
			})

			// Drain: the job holding the slot finishes its stream, the one
			// queued behind it is rejected without running.
			t.Run("drain", func(t *testing.T) {
				srv, entered, open := gatedServer(Config{Pool: 1})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				type reply struct {
					status int
					body   []byte
				}
				post := func(seed uint64) chan reply {
					out := make(chan reply, 1)
					req := pushPullReq()
					req.Seed = seed // distinct keys: must queue, not coalesce
					go func() {
						status, _, body := postJSON(t, ts.URL+kind.path, kind.wrap(req, ""))
						out <- reply{status, body}
					}()
					return out
				}
				running := post(3)
				<-entered
				queued := post(77)
				waitFor(t, func() bool { return srv.Metrics().Queued == 1 })

				srv.Drain()
				if q := <-queued; q.status != http.StatusServiceUnavailable {
					t.Fatalf("queued job status %d (%s), want 503", q.status, q.body)
				}
				open()
				r := <-running
				if r.status != http.StatusOK {
					t.Fatalf("in-flight job status %d", r.status)
				}
				if last := lastEvent(t, r.body); last["event"] != kind.drained {
					t.Fatalf("in-flight job ended with %+v, want %s", last, kind.drained)
				}
				// Only the simulation completed; an aborted fan-out is a
				// transient failure.
				var completed int64
				if kind.name == "simulation" {
					completed = 1
				}
				if m := srv.Metrics(); m.CacheMisses != 1 || m.Completed != completed || m.Failed != 1-completed {
					t.Fatalf("metrics after drain: %+v", m)
				}
			})

			// Identical concurrent requests execute once; everyone else
			// replays the leader's bytes.
			t.Run("coalesce", func(t *testing.T) {
				srv, entered, open := gatedServer(Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				const followers = 8
				type reply struct {
					cache string
					body  []byte
				}
				replies := make(chan reply, followers+1)
				post := func() {
					_, cache, body := postJSON(t, ts.URL+kind.path, kind.wrap(pushPullReq(), ""))
					replies <- reply{cache, body}
				}
				go post()
				leader := <-entered // the leader is executing, held at the gate
				for i := 0; i < followers; i++ {
					go post()
				}
				waitFor(t, func() bool { return srv.Metrics().InFlight == followers+1 })
				open()

				misses, hits := 0, 0
				var first []byte
				for i := 0; i < followers+1; i++ {
					r := <-replies
					switch r.cache {
					case "miss":
						misses++
					case "hit":
						hits++
					default:
						t.Fatalf("cache header %q", r.cache)
					}
					if first == nil {
						first = r.body
					} else if !bytes.Equal(first, r.body) {
						t.Fatalf("coalesced bodies differ:\n%s\nvs\n%s", first, r.body)
					}
				}
				if misses != 1 || hits != followers {
					t.Fatalf("misses=%d hits=%d, want 1/%d", misses, hits, followers)
				}
				if last := lastEvent(t, first); last["event"] != kind.last {
					t.Fatalf("coalesced job ended with %+v", last)
				}
				// An estimate's candidate simulations pass the gate too,
				// under keys of their own.
				for len(entered) > 0 {
					if k := <-entered; k == leader {
						t.Fatalf("second execution started for %s despite coalescing", k)
					}
				}
			})

			// A failure that is a pure function of the request (fault-spec
			// ids out of range for the graph) streams an error event,
			// counts as failed — for every kind, a sweep's fork error
			// included — and replays byte-identically from the cache.
			t.Run("deterministic error", func(t *testing.T) {
				srv := New(Config{})
				ts := httptest.NewServer(srv.Handler())
				defer ts.Close()

				bad := kind.wrap(pushPullReq(), "churn=4000:2-5") // node 4000 does not exist on n=16
				status, cache1, body1 := postJSON(t, ts.URL+kind.path, bad)
				if status != http.StatusOK {
					t.Fatalf("status %d", status)
				}
				if last := lastEvent(t, body1); last["event"] != "error" {
					t.Fatalf("expected error event, got %+v", last)
				}
				_, cache2, body2 := postJSON(t, ts.URL+kind.path, bad)
				if cache1 != "miss" || cache2 != "hit" || !bytes.Equal(body1, body2) {
					t.Fatalf("deterministic error not memoized: %q/%q", cache1, cache2)
				}
				if m := srv.Metrics(); m.Failed != 1 || m.Completed != 0 || m.RoundsSimulated != 0 {
					t.Fatalf("metrics: %+v, want the one execution counted failed", m)
				}
			})
		})
	}
}

// TestLeaderRecoversPanic: a panic on the producer goroutine costs the
// job its stream, not the process. The response ends in an error event,
// nothing is cached, and the slot — the only one — comes back, so the
// identical request executes and succeeds once the panic is gone.
func TestLeaderRecoversPanic(t *testing.T) {
	var panicking atomic.Bool
	panicking.Store(true)
	srv := New(Config{Pool: 1, gate: func(string) {
		if panicking.Load() {
			panic("gate blew up")
		}
	}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, cache, body := postJob(t, ts.URL, pushPullReq())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q", status, cache)
	}
	last := lastEvent(t, body)
	if last["event"] != "error" || !strings.Contains(last["error"].(map[string]any)["message"].(string), "gate blew up") {
		t.Fatalf("panicked job ended with %+v", last)
	}
	if m := srv.Metrics(); m.Failed != 1 || m.Running != 0 || m.CacheEntries != 0 {
		t.Fatalf("metrics: %+v", m)
	}

	panicking.Store(false)
	status, cache, body = postJob(t, ts.URL, pushPullReq())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("retry status %d cache %q (a panic must not be cached)", status, cache)
	}
	if last := lastEvent(t, body); last["event"] != "result" {
		t.Fatalf("retry did not complete: %+v", last)
	}

	// The same guard covers the fan-out goroutines (sweep variants,
	// estimate candidates): the panic comes back as a transient error.
	_, err := guard(func() (int, error) { panic("fan-out blew up") })
	if !isTransient(err) || !strings.Contains(err.Error(), "fan-out blew up") {
		t.Fatalf("guard returned %v", err)
	}
}

// TestAutoArmPanicReachesGuard: the auto driver runs its push-pull arm on
// a goroutine of its own, where no guard stands. A panic there must come
// back to the leader's goroutine, end the job in the same error event an
// inline panic does, cache nothing, and leave the server serving: the
// identical request succeeds once the arm is whole again. The arm is
// broken by swapping the registered push-pull driver's Run for the test.
func TestAutoArmPanicReachesGuard(t *testing.T) {
	pp, ok := gossip.Lookup("push-pull")
	if !ok {
		t.Fatal("push-pull is not registered")
	}
	whole := pp.Run
	pp.Run = func(gossip.DriverOptions) (gossip.DriverResult, error) { panic("push-pull arm blew up") }
	defer func() { pp.Run = whole }()

	srv := New(Config{Pool: 1})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	auto := Request{Driver: "auto", Graph: GraphSpec{Family: "dumbbell", N: 8, Latency: 12}, Seed: 3}

	status, cache, body := postJob(t, ts.URL, auto)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q", status, cache)
	}
	last := lastEvent(t, body)
	if last["event"] != "error" || !strings.Contains(last["error"].(map[string]any)["message"].(string), "push-pull arm blew up") {
		t.Fatalf("job with a panicking arm ended with %+v", last)
	}
	if m := srv.Metrics(); m.Failed != 1 || m.Running != 0 || m.CacheEntries != 0 {
		t.Fatalf("metrics: %+v", m)
	}

	pp.Run = whole
	status, cache, body = postJob(t, ts.URL, auto)
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("retry status %d cache %q (a panic must not be cached)", status, cache)
	}
	if last := lastEvent(t, body); last["event"] != "result" {
		t.Fatalf("retry did not complete: %+v", last)
	}
}
