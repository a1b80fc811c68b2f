package server

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"

	"gossip/internal/gossip"
	"gossip/internal/server/api"
)

func TestLRUEvictsColdEnd(t *testing.T) {
	c := newLRU[string, []byte](2, nil)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // refresh a: b is now coldest
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (coldest)")
	}
	if v, ok := c.get("a"); !ok || !bytes.Equal(v, []byte("A")) {
		t.Fatal("a lost")
	}
	if v, ok := c.get("c"); !ok || !bytes.Equal(v, []byte("C")) {
		t.Fatal("c lost")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d, want 2", c.len())
	}
}

func TestLRUPutRefreshesExisting(t *testing.T) {
	c := newLRU[string, []byte](8, nil)
	c.put("k", []byte("v1"))
	c.put("k", []byte("v2"))
	if c.len() != 1 {
		t.Fatalf("len = %d, want 1", c.len())
	}
	if v, _ := c.get("k"); !bytes.Equal(v, []byte("v2")) {
		t.Fatalf("get = %q, want v2", v)
	}
}

func TestLRUZeroCapacityStoresNothing(t *testing.T) {
	c := newLRU[string, []byte](0, nil)
	c.put("k", []byte("v"))
	if _, ok := c.get("k"); ok || c.len() != 0 {
		t.Fatal("zero-capacity cache stored an entry")
	}
}

// bodyProgress parses every progress event out of a rendered NDJSON
// body, failing the test on anything malformed.
func bodyProgress(t *testing.T, body []byte) []api.Progress {
	t.Helper()
	var pts []api.Progress
	for _, line := range bytes.Split(body, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var ev api.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("unmarshal %q: %v", line, err)
		}
		if ev.Event != "progress" {
			continue
		}
		if ev.SchemaVersion != SchemaVersion {
			t.Fatalf("progress line badly stamped: %s", line)
		}
		pts = append(pts, api.Progress{SchemaVersion: ev.SchemaVersion, Event: ev.Event, Round: ev.Round, Informed: ev.Informed})
	}
	return pts
}

// TestResultLinesCurve pins the informed-curve derivation in a rendered
// body: cumulative counts, change-points only, full resolution.
func TestResultLinesCurve(t *testing.T) {
	res := gossip.DriverResult{
		// rounds: node0@0, node1@2, node2@2, node3@5, node4 never
		InformedAt: []int{0, 2, 2, 5, -1},
	}
	pts := bodyProgress(t, resultLines(res))
	want := []struct{ round, informed int }{{0, 1}, {2, 3}, {5, 4}}
	if len(pts) != len(want) {
		t.Fatalf("points = %+v, want %d entries", pts, len(want))
	}
	for i, w := range want {
		if pts[i].Round != w.round || pts[i].Informed != w.informed {
			t.Fatalf("point %d = %+v, want %+v", i, pts[i], w)
		}
	}
}

// TestSampleStreamCurve pins serve-time sampling: a full-resolution
// body is evenly sampled to progress_points lines with the first and
// last change points always kept, and non-progress lines untouched.
func TestSampleStreamCurve(t *testing.T) {
	informedAt := make([]int, 500)
	for i := range informedAt {
		informedAt[i] = i // a change point every round
	}
	body := resultLines(gossip.DriverResult{InformedAt: informedAt})
	if got := len(bodyProgress(t, body)); got != 500 {
		t.Fatalf("full-resolution body has %d points, want 500", got)
	}
	pts := bodyProgress(t, sampleStream(body, 32))
	if len(pts) != 32 {
		t.Fatalf("sampled to %d points, want 32", len(pts))
	}
	if pts[0].Round != 0 || pts[0].Informed != 1 {
		t.Fatalf("first point %+v, want round 0 informed 1", pts[0])
	}
	last := pts[len(pts)-1]
	if last.Round != 499 || last.Informed != 500 {
		t.Fatalf("last point %+v, want round 499 informed 500", last)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Round <= pts[i-1].Round || pts[i].Informed < pts[i-1].Informed {
			t.Fatalf("sampled curve not monotone at %d: %+v -> %+v", i, pts[i-1], pts[i])
		}
	}
	// The result terminator survives sampling.
	var lastEv api.Event
	lines := bytes.Split(bytes.TrimSuffix(sampleStream(body, 32), []byte("\n")), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &lastEv); err != nil || lastEv.Event != "result" {
		t.Fatalf("sampled body terminator: %v / %+v", err, lastEv)
	}
	// A body that already fits is returned unchanged — the same backing
	// array, not a copy.
	if small := sampleStream(body, 4096); &small[0] != &body[0] {
		t.Fatal("sampleStream copied a body that needed no sampling")
	}
}

func TestResultLinesEmptyCurve(t *testing.T) {
	if pts := bodyProgress(t, resultLines(gossip.DriverResult{})); pts != nil {
		t.Fatalf("nil InformedAt should derive no curve, got %+v", pts)
	}
	if pts := bodyProgress(t, resultLines(gossip.DriverResult{InformedAt: []int{-1, -1}})); pts != nil {
		t.Fatalf("never-informed curve should be empty, got %+v", pts)
	}
}

// TestFlightCoalesce exercises the join/resolve protocol directly: one
// leader, many followers, everyone observes the published body.
func TestFlightCoalesce(t *testing.T) {
	s := New(Config{})
	f, leader := s.join("k")
	if !leader {
		t.Fatal("first join must lead")
	}
	for i := 0; i < 3; i++ {
		if _, again := s.join("k"); again {
			t.Fatal("second join must follow")
		}
	}
	s.resolve("k", f, []byte("body"))
	<-f.done
	if !bytes.Equal(f.body, []byte("body")) {
		t.Fatalf("follower saw %q", f.body)
	}
	// the key is free again after resolve
	f2, leader := s.join("k")
	if !leader {
		t.Fatal("post-resolve join must lead")
	}
	s.resolve("k", f2, nil)
}

// TestRequestKeyStability pins the request-key derivation: documented in
// the README as stable across releases within a schema version.
func TestRequestKeyStability(t *testing.T) {
	can := canonical{Driver: "push-pull", Graph: GraphSpec{Family: "dumbbell", N: 8, Latency: 12}, Seed: 3}
	k1, k2 := hashKey(can), hashKey(can)
	if k1 != k2 || len(k1) != 32 {
		t.Fatalf("keys %q / %q", k1, k2)
	}
	can.Seed = 4
	if hashKey(can) == k1 {
		t.Fatal("seed change did not change the key")
	}
}

// TestLRUEvictionOrderUnderCoalescingAtCapacity: with the cache at
// capacity and a flight in progress on a new key, follower traffic that
// replays an old entry keeps it hot — so when the flight publishes, the
// eviction lands on the true cold end, not on the refreshed entry. This
// is the cross-layer interaction (flight table × LRU × publish order)
// that the single-layer tests above cannot see.
func TestLRUEvictionOrderUnderCoalescingAtCapacity(t *testing.T) {
	s := New(Config{CacheSize: 2})
	// Fill to capacity through the leader path — publish then resolve,
	// the exact leader order. Recency after this: [b, a].
	for _, k := range []string{"a", "b"} {
		f, leader := s.join(k)
		if !leader {
			t.Fatalf("first join of %q must lead", k)
		}
		s.publish(k, []byte(k))
		s.resolve(k, f, []byte(k))
	}

	fc, leader := s.join("c")
	if !leader {
		t.Fatal("join of in-flight key c must lead")
	}
	const followers = 8
	var joined, done sync.WaitGroup
	joined.Add(followers)
	done.Add(followers)
	for i := 0; i < followers; i++ {
		go func() {
			defer done.Done()
			// Each follower replays the cold entry "a" (refreshing its
			// recency) and then coalesces onto the live flight for "c".
			if body, ok := s.lookup("a"); !ok || !bytes.Equal(body, []byte("a")) {
				t.Errorf("entry a unavailable mid-flight: ok=%v body=%q", ok, body)
			}
			f, lead := s.join("c")
			joined.Done()
			if lead {
				t.Error("follower led a live flight")
				return
			}
			<-f.done
			if !bytes.Equal(f.body, []byte("c")) {
				t.Errorf("follower saw %q, want c's body", f.body)
			}
		}()
	}
	joined.Wait() // every follower refreshed "a" and holds the flight
	s.publish("c", []byte("c"))
	s.resolve("c", fc, []byte("c"))
	done.Wait()

	// "a" was refreshed by the followers while "c" was in flight, so the
	// publish must have evicted "b" — the cold end at publish time, not
	// at fill time.
	if _, ok := s.cache.get("b"); ok {
		t.Fatal("b survived eviction despite being the cold end")
	}
	for _, k := range []string{"a", "c"} {
		if body, ok := s.cache.get(k); !ok || !bytes.Equal(body, []byte(k)) {
			t.Fatalf("entry %q lost after eviction: ok=%v body=%q", k, ok, body)
		}
	}
	if s.cache.len() != 2 {
		t.Fatalf("len = %d, want capacity 2", s.cache.len())
	}
	s.mu.Lock()
	live := len(s.inflight)
	s.mu.Unlock()
	if live != 0 {
		t.Fatalf("%d flights leaked", live)
	}

	// Stress the same interaction: joins, resolves, evictions and
	// replays racing over more keys than capacity must never tear a body
	// or overflow the cache (run under -race in CI).
	keys := []string{"k0", "k1", "k2", "k3", "k4"}
	var sg sync.WaitGroup
	for w := 0; w < 4; w++ {
		sg.Add(1)
		go func(w int) {
			defer sg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(i+w)%len(keys)]
				if body, ok := s.lookup(k); ok {
					if !bytes.Equal(body, []byte(k)) {
						t.Errorf("torn body for %q: %q", k, body)
					}
					continue
				}
				f, lead := s.join(k)
				if lead {
					s.publish(k, []byte(k))
					s.resolve(k, f, []byte(k))
					continue
				}
				<-f.done
				if f.body != nil && !bytes.Equal(f.body, []byte(k)) {
					t.Errorf("coalesced body for %q: %q", k, f.body)
				}
			}
		}(w)
	}
	sg.Wait()
	if s.cache.len() > 2 {
		t.Fatalf("cache over capacity: %d", s.cache.len())
	}
}
