package gossip

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/spanner"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/engine_golden.json from the current engine")

// goldenRecord pins the externally observable outcome of one protocol on
// one topology under a fixed seed. The values were captured on the
// pre-event-calendar engine (full per-round node scans, full-set
// snapshots); the event-driven engine must reproduce them exactly.
type goldenRecord struct {
	Rounds     int   `json:"rounds"`
	Completed  bool  `json:"completed"`
	Exchanges  int64 `json:"exchanges"`
	InformedAt []int `json:"informed_at,omitempty"`
}

const goldenMaxRounds = 1 << 18

// goldenGraphs returns the topology suite of the equivalence test:
// clique, path, dumbbell (slow bridge) and Erdős–Rényi.
func goldenGraphs() map[string]*graph.Graph {
	rng := graphgen.NewRand(4242)
	er, err := graphgen.ErdosRenyi(24, 0.25, 1, rng)
	if err != nil {
		panic(err)
	}
	graphgen.AssignRandomLatencies(er, 1, 8, rng)
	return map[string]*graph.Graph{
		"clique16":  graphgen.Clique(16, 3),
		"path12":    graphgen.Path(12, 2),
		"dumbbell8": graphgen.Dumbbell(8, 40),
		"er24":      er,
	}
}

// goldenRuns executes all five protocols on g with the given intra-round
// worker count and returns their records. The sharded engine guarantees
// worker-count-independent results, so every workers value must
// reproduce the same goldens.
func goldenRuns(t *testing.T, g *graph.Graph, workers int) map[string]goldenRecord {
	t.Helper()
	out := map[string]goldenRecord{}

	flood, err := Dispatch("flood", g, DriverOptions{
		Source: 0, Seed: 5, MaxRounds: goldenMaxRounds,
		ExecOptions: ExecOptions{Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["flood"] = goldenRecord{flood.Rounds, flood.Completed, flood.Exchanges, flood.InformedAt}

	pp, err := Dispatch("push-pull", g, DriverOptions{
		Source: 0, Seed: 7, MaxRounds: goldenMaxRounds,
		ExecOptions: ExecOptions{Workers: workers},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["push-pull"] = goldenRecord{pp.Rounds, pp.Completed, pp.Exchanges, pp.InformedAt}

	sp, err := spanner.Build(g, spanner.Options{K: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rr, err := Dispatch("rr", g, DriverOptions{Spanner: sp, K: g.CSR().MaxLatency(), Seed: 9, MaxRounds: goldenMaxRounds, ExecOptions: ExecOptions{Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	out["rr"] = goldenRecord{rr.Rounds, rr.Completed, rr.Exchanges, rr.InformedAt}

	dtg, err := Dispatch("dtg", g, DriverOptions{Ell: 0, Seed: 13, MaxRounds: goldenMaxRounds, ExecOptions: ExecOptions{Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	out["dtg"] = goldenRecord{dtg.Rounds, dtg.Completed, dtg.Exchanges, dtg.InformedAt}

	sb, err := broadcastVia("spanner", g, DriverOptions{KnownLatencies: true, Seed: 11, MaxRounds: goldenMaxRounds, ExecOptions: ExecOptions{Workers: workers}})
	if err != nil {
		t.Fatal(err)
	}
	// Multi-phase pipeline: no single InformedAt; Rounds/Exchanges pin it.
	out["spanner"] = goldenRecord{Rounds: sb.Rounds, Completed: sb.Completed, Exchanges: sb.Exchanges}

	return out
}

// faultGoldenRuns pins two runs under deterministic fault schedules (one
// lossy, one churny — the adversity subsystem's golden gate): like the
// benign records they are regenerated only on intended semantic change
// and must be identical at any worker count.
func faultGoldenRuns(t *testing.T, graphs map[string]*graph.Graph, workers int) map[string]goldenRecord {
	t.Helper()
	out := map[string]goldenRecord{}

	lossy, err := Dispatch("push-pull", graphs["er24"], DriverOptions{
		Source: 0, Seed: 7, MaxRounds: goldenMaxRounds,
		ExecOptions: ExecOptions{Workers: workers, Adversity: adversity.MustParseSpec("loss=0.1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["push-pull+loss10/er24"] = goldenRecord{lossy.Rounds, lossy.Completed, lossy.Exchanges, lossy.InformedAt}

	churny, err := Dispatch("push-pull", graphs["dumbbell8"], DriverOptions{
		Source: 0, Seed: 7, MaxRounds: goldenMaxRounds,
		ExecOptions: ExecOptions{Workers: workers, Adversity: adversity.MustParseSpec("churn=1:4-30:amnesia;churn=3:10-inf;crash=20:2")},
	})
	if err != nil {
		t.Fatal(err)
	}
	out["push-pull+churn/dumbbell8"] = goldenRecord{churny.Rounds, churny.Completed, churny.Exchanges, churny.InformedAt}

	return out
}

// TestEngineGolden is the engine-equivalence gate of the event-calendar
// and sharded-substrate refactors: for fixed seeds, all five protocols
// must report exactly the rounds, exchange counts and per-node informed
// times recorded on the pre-refactor engine — and must do so identically
// with intra-round sharding off (-workers 1) and on (-workers 8).
// Regenerate (only when a semantic change is intended) with:
//
//	go test ./internal/gossip -run TestEngineGolden -update
func TestEngineGolden(t *testing.T) {
	got := map[string]goldenRecord{}
	names := make([]string, 0)
	for name := range goldenGraphs() {
		names = append(names, name)
	}
	sort.Strings(names)
	graphs := goldenGraphs()
	for _, gname := range names {
		serial := goldenRuns(t, graphs[gname], 1)
		sharded := goldenRuns(t, graphs[gname], 8)
		for proto, rec := range serial {
			if !reflect.DeepEqual(sharded[proto], rec) {
				t.Errorf("%s/%s: workers=8 diverges from workers=1:\n w8 %+v\n w1 %+v",
					proto, gname, sharded[proto], rec)
			}
			got[proto+"/"+gname] = rec
		}
	}
	faultSerial := faultGoldenRuns(t, graphs, 1)
	faultSharded := faultGoldenRuns(t, graphs, 8)
	for key, rec := range faultSerial {
		if !reflect.DeepEqual(faultSharded[key], rec) {
			t.Errorf("%s: workers=8 diverges from workers=1 under faults:\n w8 %+v\n w1 %+v",
				key, faultSharded[key], rec)
		}
		got[key] = rec
	}

	path := filepath.Join("testdata", "engine_golden.json")
	if *updateGolden {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d records", path, len(got))
		return
	}

	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing goldens (run with -update to create): %v", err)
	}
	want := map[string]goldenRecord{}
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d records, run produced %d", len(want), len(got))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Errorf("%s: missing from run", key)
			continue
		}
		if g.Rounds != w.Rounds || g.Completed != w.Completed || g.Exchanges != w.Exchanges {
			t.Errorf("%s: rounds/completed/exchanges = %d/%v/%d, golden %d/%v/%d",
				key, g.Rounds, g.Completed, g.Exchanges, w.Rounds, w.Completed, w.Exchanges)
		}
		if w.InformedAt != nil && !reflect.DeepEqual(g.InformedAt, w.InformedAt) {
			t.Errorf("%s: InformedAt diverged from golden\n got %v\nwant %v", key, g.InformedAt, w.InformedAt)
		}
	}
	if t.Failed() {
		fmt.Println("engine no longer reproduces the pre-refactor goldens")
	}
}

// TestSpannerShapeGolden pins what the pipeline reports about the last
// spanner it built on the golden topologies. The values were recorded
// when every rr and check phase built (and measured) its own spanner;
// one shared spanner per guess must report the same shape.
func TestSpannerShapeGolden(t *testing.T) {
	want := map[string][2]int{ // edges, max out-degree
		"clique16":  {53, 4},
		"dumbbell8": {31, 3},
		"er24":      {69, 5},
		"path12":    {11, 2},
	}
	for name, g := range goldenGraphs() {
		sb, err := broadcastVia("spanner", g, DriverOptions{KnownLatencies: true, Seed: 11, MaxRounds: goldenMaxRounds})
		if err != nil {
			t.Fatal(err)
		}
		if got := [2]int{sb.SpannerEdges, sb.SpannerMaxOut}; got != want[name] {
			t.Errorf("%s: spanner edges/max-out = %v, golden %v", name, got, want[name])
		}
	}
}
