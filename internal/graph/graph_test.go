package graph

import (
	"sync"
	"testing"
	"testing/quick"
)

func mustTriangle(t *testing.T) *Graph {
	t.Helper()
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(0, 2, 5)
	return g
}

func TestAddEdgeValidation(t *testing.T) {
	g := New(3)
	tests := []struct {
		name    string
		u, v    int
		lat     int
		wantErr bool
	}{
		{"valid", 0, 1, 1, false},
		{"duplicate", 0, 1, 2, true},
		{"duplicate reversed", 1, 0, 2, true},
		{"self loop", 2, 2, 1, true},
		{"zero latency", 1, 2, 0, true},
		{"negative latency", 1, 2, -3, true},
		{"out of range", 0, 3, 1, true},
		{"negative node", -1, 0, 1, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := g.AddEdge(tt.u, tt.v, tt.lat)
			if (err != nil) != tt.wantErr {
				t.Fatalf("AddEdge(%d,%d,%d) err = %v, wantErr %v", tt.u, tt.v, tt.lat, err, tt.wantErr)
			}
		})
	}
}

func TestNewPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(0)
}

func TestLatencyLookup(t *testing.T) {
	g := mustTriangle(t)
	if l, ok := g.Latency(2, 0); !ok || l != 5 {
		t.Fatalf("Latency(2,0) = %d,%v want 5,true", l, ok)
	}
	if _, ok := g.Latency(0, 0); ok {
		t.Fatal("Latency of missing edge reported ok")
	}
	if !g.HasEdge(1, 0) || g.HasEdge(0, 0) {
		t.Fatal("HasEdge wrong")
	}
}

func TestSetLatency(t *testing.T) {
	g := mustTriangle(t)
	if err := g.SetLatency(0, 2, 9); err != nil {
		t.Fatal(err)
	}
	if l, _ := g.Latency(0, 2); l != 9 {
		t.Fatalf("latency after SetLatency = %d, want 9", l)
	}
	// Adjacency copies must agree.
	for _, nb := range g.Neighbors(0) {
		if nb.ID == 2 && nb.Latency != 9 {
			t.Fatalf("adjacency latency = %d, want 9", nb.Latency)
		}
	}
	if err := g.SetLatency(0, 1, 0); err == nil {
		t.Fatal("expected error for non-positive latency")
	}
	if err := g.SetLatency(0, 0, 1); err == nil {
		t.Fatal("expected error for missing edge")
	}
}

func TestDegreesAndVolume(t *testing.T) {
	g := mustTriangle(t)
	if g.Degree(0) != 2 || g.MaxDegree() != 2 {
		t.Fatal("degree bookkeeping wrong")
	}
	vol := g.CSR().Volume([]bool{true, true, false})
	if vol != 4 {
		t.Fatalf("Volume = %d, want 4", vol)
	}
}

func TestDistinctLatenciesAndMax(t *testing.T) {
	g := mustTriangle(t)
	lats := g.CSR().DistinctLatencies()
	want := []int{1, 2, 5}
	if len(lats) != 3 {
		t.Fatalf("DistinctLatencies = %v", lats)
	}
	for i := range want {
		if lats[i] != want[i] {
			t.Fatalf("DistinctLatencies = %v, want %v", lats, want)
		}
	}
	if g.MaxLatency() != 5 {
		t.Fatalf("MaxLatency = %d", g.MaxLatency())
	}
}

func TestConnectedAndValidate(t *testing.T) {
	g := mustTriangle(t)
	if !g.Connected() {
		t.Fatal("triangle not connected")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	h := New(4)
	h.MustAddEdge(0, 1, 1)
	if h.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if err := h.Validate(); err == nil {
		t.Fatal("expected validation error for disconnected graph")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := mustTriangle(t)
	c := g.Clone()
	if err := c.SetLatency(0, 1, 7); err != nil {
		t.Fatal(err)
	}
	if l, _ := g.Latency(0, 1); l != 1 {
		t.Fatal("clone mutation leaked into original")
	}
}

func TestDistances(t *testing.T) {
	// Path 0-1-2-3 with latencies 1,2,3 plus shortcut 0-3 latency 10.
	g := New(4)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 2)
	g.MustAddEdge(2, 3, 3)
	g.MustAddEdge(0, 3, 10)
	c := g.CSR()
	d := c.Distances(0)
	want := []int64{0, 1, 3, 6}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("Distances(0) = %v, want %v", d, want)
		}
	}
	if c.WeightedDiameter() != 6 {
		t.Fatalf("WeightedDiameter = %d, want 6", c.WeightedDiameter())
	}
}

func TestDistancesPreferMultiHop(t *testing.T) {
	// Direct slow edge vs fast two-hop path: the paper's motivating case.
	g := New(3)
	g.MustAddEdge(0, 2, 100)
	g.MustAddEdge(0, 1, 1)
	g.MustAddEdge(1, 2, 1)
	if d := g.CSR().Distances(0); d[2] != 2 {
		t.Fatalf("dist(0,2) = %d, want 2 via the fast path", d[2])
	}
}

func TestEccentricityUnreachable(t *testing.T) {
	g := New(3)
	g.MustAddEdge(0, 1, 1)
	if g.CSR().Eccentricity(0) < Infinity {
		t.Fatal("eccentricity with unreachable node should be Infinity")
	}
}

// Property: on random paths with random latencies, the diameter equals
// the sum of latencies when no shortcut exists.
func TestQuickPathDiameter(t *testing.T) {
	f := func(rawLats []uint8) bool {
		if len(rawLats) == 0 || len(rawLats) > 50 {
			return true
		}
		g := New(len(rawLats) + 1)
		sum := int64(0)
		for i, rl := range rawLats {
			lat := int(rl%30) + 1
			g.MustAddEdge(i, i+1, lat)
			sum += int64(lat)
		}
		return g.CSR().WeightedDiameter() == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestCSRValidateMemoized pins the once-only verdict: a valid CSR validated
// from many goroutines at once is valid every time (the -race run checks
// the sync), and an invalid one — a disconnected builder output, and a CSR
// whose mate table was corrupted before its first validation — reports
// the identical error on every call.
func TestCSRValidateMemoized(t *testing.T) {
	valid := New(4)
	valid.MustAddEdge(0, 1, 1)
	valid.MustAddEdge(1, 2, 2)
	valid.MustAddEdge(2, 3, 1)
	c := valid.CSR()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				if err := c.Validate(); err != nil {
					t.Errorf("valid CSR: %v", err)
				}
			}
		}()
	}
	wg.Wait()

	b := NewCSRBuilder(3)
	b.MustAddEdge(0, 1, 1)
	split, err := b.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	broken := valid.CSR()
	broken.mate[0] = broken.mate[1]
	for name, bad := range map[string]*CSR{"disconnected": split, "broken mate": broken} {
		first := bad.Validate()
		if first == nil {
			t.Fatalf("%s: Validate accepted an invalid CSR", name)
		}
		for i := 0; i < 3; i++ {
			if again := bad.Validate(); again != first {
				t.Fatalf("%s: Validate call %d returned %v, first call %v", name, i+2, again, first)
			}
		}
	}
}
