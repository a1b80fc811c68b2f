package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

func postSweep(t *testing.T, url string, req SweepRequest) (int, string, []byte) {
	t.Helper()
	return postJSON(t, url+"/v1/sweeps", req)
}

func pushPullSweep() SweepRequest {
	return SweepRequest{
		Base:      pushPullReq(),
		ForkRound: 4,
		Variants: []SweepVariant{
			{}, // control: inherits everything, must equal the cold run
			{FaultSpec: strp("loss=0.4")},
			{MaxRounds: intp(6)},
		},
	}
}

// TestSweepStreamShape pins the sweep wire contract: accepted (with
// variants and fork_round), per-variant sections in index order, and a
// sweep_result tally — and the control variant's result equals the cold
// /v1/simulations run of the base request (warm ≡ cold).
func TestSweepStreamShape(t *testing.T) {
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()

	status, cache, body := postSweep(t, ts.URL, pushPullSweep())
	if status != http.StatusOK || cache != "miss" {
		t.Fatalf("status %d cache %q, want 200 miss", status, cache)
	}
	events := decodeStream(t, body)
	acc := events[0]
	if acc["event"] != "accepted" || acc["driver"] != "push-pull" ||
		acc["variants"] != 3.0 || acc["fork_round"] != 4.0 || acc["request_key"] == "" {
		t.Fatalf("bad sweep accepted event: %+v", acc)
	}
	last := events[len(events)-1]
	if last["event"] != "sweep_result" || last["variants"] != 3.0 ||
		last["completed"] != 3.0 || last["errors"] != 0.0 || last["total_rounds"].(float64) <= 0 {
		t.Fatalf("bad sweep_result: %+v", last)
	}

	// Variant sections arrive in index order; each carries a distinct
	// content-address key and ends with a result event.
	var order []float64
	keys := map[string]bool{}
	var variantResults []map[string]any
	for i, ev := range events[1 : len(events)-1] {
		switch ev["event"] {
		case "variant":
			order = append(order, ev["index"].(float64))
			keys[ev["request_key"].(string)] = true
		case "result":
			variantResults = append(variantResults, ev["result"].(map[string]any))
		case "progress":
		default:
			t.Fatalf("unexpected mid-stream event %d: %+v", i, ev)
		}
	}
	if !reflect.DeepEqual(order, []float64{0, 1, 2}) || len(keys) != 3 || len(variantResults) != 3 {
		t.Fatalf("variant sections: order %v, %d keys, %d results", order, len(keys), len(variantResults))
	}

	// Control variant ≡ cold run (the sweep acceptance criterion at the
	// HTTP layer: the fork round is invisible in the results).
	_, _, coldBody := postJob(t, ts.URL, pushPullReq())
	coldEvents := decodeStream(t, coldBody)
	coldRes := coldEvents[len(coldEvents)-1]["result"].(map[string]any)
	if !reflect.DeepEqual(variantResults[0], coldRes) {
		t.Fatalf("control variant diverges from cold run:\n warm %+v\n cold %+v", variantResults[0], coldRes)
	}
	// The lossy overlay actually bit after the fork.
	if variantResults[1]["dropped"].(float64) == 0 {
		t.Fatalf("loss=0.4 variant dropped nothing: %+v", variantResults[1])
	}
	// The shortened-horizon variant stopped at its horizon.
	if r := variantResults[2]["rounds"].(float64); r > 6 {
		t.Fatalf("max_rounds=6 variant ran %v rounds", r)
	}
}

// TestSweepCacheAndVariantReuse: an identical sweep replays
// byte-identically from cache; a different sweep sharing (base,
// fork_round, overlay) advertises the same variant content address, so
// its section is served from the store without a resume.
func TestSweepCacheAndVariantReuse(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	_, cache1, body1 := postSweep(t, ts.URL, pushPullSweep())
	_, cache2, body2 := postSweep(t, ts.URL, pushPullSweep())
	if cache1 != "miss" || cache2 != "hit" || !bytes.Equal(body1, body2) {
		t.Fatalf("sweep not memoized: %q/%q, bodies equal=%v", cache1, cache2, bytes.Equal(body1, body2))
	}

	variantKeys := func(body []byte) []string {
		var out []string
		for _, ev := range decodeStream(t, body) {
			if ev["event"] == "variant" {
				out = append(out, ev["request_key"].(string))
			}
		}
		return out
	}
	// Same base and fork, lossy overlay only: new sweep key (miss) but
	// the variant key matches sweep 1's lossy section — content reuse.
	subset := pushPullSweep()
	subset.Variants = subset.Variants[1:2]
	_, cache3, body3 := postSweep(t, ts.URL, subset)
	if cache3 != "miss" {
		t.Fatalf("subset sweep cache %q, want miss (different variant set)", cache3)
	}
	if got, want := variantKeys(body3)[0], variantKeys(body1)[1]; got != want {
		t.Fatalf("shared overlay got different content address: %s vs %s", got, want)
	}
	// The reused tail still yields the tally (tailSummary parses stored
	// bytes, not live results).
	ev3 := decodeStream(t, body3)
	if ev3[len(ev3)-1]["total_rounds"].(float64) == 0 {
		t.Fatalf("subset sweep lost its reused variant tally: %+v", ev3[len(ev3)-1])
	}
	if srv.Metrics().SweepsExecuted != 2 {
		t.Fatalf("sweeps executed %d, want 2", srv.Metrics().SweepsExecuted)
	}
}

// TestSweepValidation walks the 400 surface.
func TestSweepValidation(t *testing.T) {
	ts := httptest.NewServer(fleetMember().Handler())
	defer ts.Close()

	cases := []struct {
		name  string
		mut   func(*SweepRequest)
		field string
	}{
		{"pipeline driver", func(r *SweepRequest) { r.Base.Driver = "spanner" }, "base.driver"},
		{"bad base", func(r *SweepRequest) { r.Base.Graph.N = 1 }, "base.graph.n"},
		{"sharded base", func(r *SweepRequest) { r.Base.Shards = 2 }, "base.shards"},
		{"real-transport base", func(r *SweepRequest) { r.Base.Transport = "chan" }, "base.transport"},
		{"negative fork", func(r *SweepRequest) { r.ForkRound = -1 }, "fork_round"},
		{"no variants", func(r *SweepRequest) { r.Variants = nil }, "variants"},
		{"too many variants", func(r *SweepRequest) {
			r.Variants = make([]SweepVariant, maxSweepVariants+1)
		}, "variants"},
		{"bad overlay fault spec", func(r *SweepRequest) {
			r.Variants[0].FaultSpec = strp("loss=2.0")
		}, "variants[0].fault_spec"},
		{"horizon before fork", func(r *SweepRequest) {
			r.Variants[1].MaxRounds = intp(2)
		}, "variants[1].max_rounds"},
		{"overlay key driver rejects", func(r *SweepRequest) {
			r.Base.Driver = "flood"
			r.Base.Variant = nil
			r.Variants[2].MaxInPerRound = intp(4)
		}, "variants[2].max_in_per_round"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := pushPullSweep()
			tc.mut(&req)
			status, _, body := postSweep(t, ts.URL, req)
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
