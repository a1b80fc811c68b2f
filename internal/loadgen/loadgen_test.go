package loadgen

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"gossip/internal/server"
)

// TestRunAgainstLocalServer is the load generator's own end-to-end
// smoke at unit scale: all contracts hold against a real server.
func TestRunAgainstLocalServer(t *testing.T) {
	l, err := StartLocal(server.Config{Pool: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	rep, err := Run(context.Background(), Options{
		BaseURL:  l.URL,
		Clients:  6,
		Requests: 4,
		Surge:    true,
		SurgeN:   128,
		BaseSeed: 7,
		// Off the mix's seeds: an estimate whose benign candidate is a mix
		// job can publish that job's body before any client asks for it,
		// which turns the key's one miss into a hit and breaks the
		// misses == distinct-keys count below (the sharing itself is
		// pinned by TestEstimateSharesSimulationCache).
		Estimates: DefaultEstimates(1007),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Err(); err != nil {
		t.Fatalf("%v\nreport: %+v", err, rep)
	}
	// 6 surge + 6*4 mix + 6 sweep + 6 estimate posts, then one verify
	// replay per mix, sweep and estimate entry.
	wantReqs := 6 + 6*4 + 6*len(DefaultSweeps(7)) + 6*len(DefaultEstimates(7)) +
		len(DefaultMix(7)) + len(DefaultSweeps(7)) + len(DefaultEstimates(7))
	if rep.Requests != wantReqs {
		t.Fatalf("requests = %d, want %d", rep.Requests, wantReqs)
	}
	if rep.DistinctKeys == 0 || rep.CacheMisses != rep.DistinctKeys {
		t.Fatalf("misses %d != distinct keys %d (coalescing broken?)", rep.CacheMisses, rep.DistinctKeys)
	}
	if rep.CacheHits != rep.Requests-rep.CacheMisses {
		t.Fatalf("hits %d + misses %d != requests %d", rep.CacheHits, rep.CacheMisses, rep.Requests)
	}
	if rep.PeakInFlight < 2 {
		t.Fatalf("peak in-flight %d, want >= 2 with a surge wave", rep.PeakInFlight)
	}
	if rep.RoundsSimulated <= 0 || rep.Throughput <= 0 {
		t.Fatalf("report not populated: %+v", rep)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "loadgen: OK") {
		t.Fatalf("report rendering: %s", buf.String())
	}
}

// TestRunFlagsNondeterminism wires loadgen against a server whose cache
// is disabled-by-eviction (size 1) so identical requests re-execute:
// still deterministic, so no violations — but the run must see repeat
// misses and flag them, proving the detector has teeth.
func TestRunFlagsRepeatMisses(t *testing.T) {
	l, err := StartLocal(server.Config{Pool: 2, CacheSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	rep, err := Run(context.Background(), Options{
		BaseURL:  l.URL,
		Clients:  1,
		Requests: 2 * len(DefaultMix(3)), // two sequential passes over the mix
		BaseSeed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Err() == nil {
		t.Fatalf("size-1 cache produced no repeat-miss violations: %+v", rep)
	}
	found := false
	for _, v := range rep.Violations {
		if strings.Contains(v, "cache miss #") || strings.Contains(v, "want hit") {
			found = true
		}
	}
	if !found {
		t.Fatalf("violations do not mention repeat misses: %v", rep.Violations)
	}
}

func TestRunRejectsMissingBaseURL(t *testing.T) {
	if _, err := Run(context.Background(), Options{}); err == nil {
		t.Fatal("Run accepted empty BaseURL")
	}
}

func TestParseStreamRejectsGarbage(t *testing.T) {
	for _, body := range []string{
		"",
		"not json\n",
		`{"schema_version":2,"event":"progress","round":1}` + "\n", // no accepted first
		`{"schema_version":99,"event":"accepted","request_key":"k"}` + "\n",
		`{"schema_version":1,"event":"accepted","request_key":"k"}` + "\n", // stale schema
		`{"schema_version":2,"event":"accepted","request_key":"k"}` + "\n", // no terminator
	} {
		if _, _, _, err := parseStream([]byte(body)); err == nil {
			t.Fatalf("parseStream accepted %q", body)
		}
	}
	key, rounds, errEvent, err := parseStream([]byte(
		`{"schema_version":2,"event":"accepted","request_key":"k"}` + "\n" +
			`{"schema_version":2,"event":"error","error":{"message":"boom"}}` + "\n"))
	if err != nil || key != "k" || rounds != 0 || errEvent != "boom" {
		t.Fatalf("error stream: %q %d %q %v", key, rounds, errEvent, err)
	}
	// An estimate terminator is a valid stream end.
	key, _, errEvent, err = parseStream([]byte(
		`{"schema_version":2,"event":"accepted","request_key":"e"}` + "\n" +
			`{"schema_version":2,"event":"estimate","best":{"loss":0.2,"churn":0,"scale":1}}` + "\n"))
	if err != nil || key != "e" || errEvent != "" {
		t.Fatalf("estimate stream: %q %q %v", key, errEvent, err)
	}
}

// TestSelfCheck runs the full two-server check at unit scale.
func TestSelfCheck(t *testing.T) {
	var buf bytes.Buffer
	err := SelfCheck(context.Background(), SelfCheckOptions{
		Clients:  6,
		Requests: 3,
		SurgeN:   128,
		Seed:     5,
		Pools:    [2]int{1, 4},
		Out:      &buf,
	})
	if err != nil {
		t.Fatalf("%v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, want := range []string{"selfcheck: OK", "loadgen: OK", "pool sizes 1 and 4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("selfcheck output missing %q:\n%s", want, out)
		}
	}
}
