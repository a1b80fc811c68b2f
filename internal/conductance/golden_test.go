package conductance

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"gossip/internal/graphgen"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/analysis_golden.json from the current analysis")

// analysisRecord is everything Compute reports about one graph except
// φavg, plus the graph's weighted diameter. The records were captured
// from the adjacency-map analysis (per-threshold subgraphs G_ℓ, map-graph
// Dijkstra); the CSR analysis must reproduce them bit for bit.
type analysisRecord struct {
	PhiL            map[int]float64 `json:"phi_l"`
	PhiStar         float64         `json:"phi_star"`
	EllStar         int             `json:"ell_star"`
	NonEmptyClasses int             `json:"non_empty_classes"`
	MaxLatency      int             `json:"max_latency"`
	Exact           bool            `json:"exact"`
	CriticalCut     string          `json:"critical_cut"`
	Diameter        int64           `json:"diameter"`
}

// analysisSpecs is the suite: every graphgen family at one size that
// Compute enumerates exactly and one it estimates, three seeds for the
// seeded families.
func analysisSpecs() []graphgen.Spec {
	var out []graphgen.Spec
	for _, fam := range graphgen.Families() {
		seeds := []uint64{1}
		if (graphgen.Spec{Family: fam}).ReadsSeed() {
			seeds = []uint64{1, 2, 3}
		}
		small, large := graphgen.Spec{Family: fam, N: 12, Latency: 3, P: 0.5}, graphgen.Spec{Family: fam, N: 40, Latency: 3, P: 0.2}
		switch fam {
		case "dumbbell":
			small.N, large.N = 6, 16
		case "ring":
			small.N, small.Layers = 4, 3
			large.N, large.Layers = 10, 4
		case "gadget":
			small.N, large.N = 6, 20
		}
		for _, s := range []graphgen.Spec{small, large} {
			for _, seed := range seeds {
				s.Seed = seed
				out = append(out, s)
			}
		}
	}
	return out
}

// analysisGolden analyses each spec's graph twice: as generated, and with
// every latency redrawn from [1, 20], so the latency-filtered walks of
// every family see many thresholds.
func analysisGolden(t *testing.T) map[string]analysisRecord {
	t.Helper()
	out := map[string]analysisRecord{}
	for _, s := range analysisSpecs() {
		for _, mixed := range []bool{false, true} {
			g, err := graphgen.Build(s)
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/n%d/seed%d", s.Family, g.N(), s.Seed)
			if mixed {
				graphgen.AssignRandomLatencies(g, 1, 20, graphgen.NewRand(s.Seed+100))
				name += "/mixed"
			}
			c := g.CSR()
			res, err := Compute(c)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			cut := make([]byte, len(res.CriticalCut))
			for u, in := range res.CriticalCut {
				cut[u] = '0'
				if in {
					cut[u] = '1'
				}
			}
			out[name] = analysisRecord{
				PhiL: res.PhiL, PhiStar: res.PhiStar, EllStar: res.EllStar,
				NonEmptyClasses: res.NonEmptyClasses, MaxLatency: res.MaxLatency,
				Exact: res.Exact, CriticalCut: string(cut), Diameter: c.WeightedDiameter(),
			}
		}
	}
	return out
}

func TestAnalysisGolden(t *testing.T) {
	got := analysisGolden(t)
	path := filepath.Join("testdata", "analysis_golden.json")
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]analysisRecord
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d graphs analysed, golden has %d", len(got), len(want))
	}
	for name, w := range want {
		if g, ok := got[name]; !ok || !reflect.DeepEqual(g, w) {
			t.Errorf("%s:\n got %+v\nwant %+v", name, got[name], w)
		}
	}
}
