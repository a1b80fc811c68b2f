package graph

import (
	"slices"
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
	c := g.CSR()
	for i, v := range c.NeighborIDs(0) {
		if v == 2 && c.Latencies(0)[i] != 9 {
			t.Fatalf("adjacency latency = %d, want 9", c.Latencies(0)[i])
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
	c := mustTriangle(t).CSR()
	if c.Degree(0) != 2 || c.MaxDegree() != 2 {
		t.Fatal("degree bookkeeping wrong")
	}
	vol := c.Volume([]bool{true, true, false})
	if vol != 4 {
		t.Fatalf("Volume = %d, want 4", vol)
	}
}

func TestDistinctLatenciesAndMax(t *testing.T) {
	c := mustTriangle(t).CSR()
	lats := c.DistinctLatencies()
	want := []int{1, 2, 5}
	if len(lats) != 3 {
		t.Fatalf("DistinctLatencies = %v", lats)
	}
	for i := range want {
		if lats[i] != want[i] {
			t.Fatalf("DistinctLatencies = %v, want %v", lats, want)
		}
	}
	if c.MaxLatency() != 5 {
		t.Fatalf("MaxLatency = %d", c.MaxLatency())
	}
}

func TestConnectedAndValidate(t *testing.T) {
	c := mustTriangle(t).CSR()
	if !c.Connected() {
		t.Fatal("triangle not connected")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	h := New(4)
	h.MustAddEdge(0, 1, 1)
	if h.CSR().Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	if err := h.CSR().Validate(); err == nil {
		t.Fatal("expected validation error for disconnected graph")
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
	path := func() *Graph {
		g := New(4)
		g.MustAddEdge(0, 1, 1)
		g.MustAddEdge(1, 2, 2)
		g.MustAddEdge(2, 3, 1)
		return g
	}
	c := path().CSR()
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
	broken := path().CSR() // a graph of its own: c is shared by every caller
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

// snapshotCSR deep-copies c's arrays, so a test can check later that
// nothing wrote to a CSR someone may still hold.
func snapshotCSR(c *CSR) *CSR {
	return &CSR{n: c.n, offs: slices.Clone(c.offs), nbr: slices.Clone(c.nbr),
		lat: slices.Clone(c.lat), mate: slices.Clone(c.mate), maxLat: c.maxLat}
}

// sameCSR reports whether a and b hold the same graph in the same
// adjacency order.
func sameCSR(a, b *CSR) bool {
	return a.n == b.n && a.maxLat == b.maxLat && slices.Equal(a.offs, b.offs) &&
		slices.Equal(a.nbr, b.nbr) && slices.Equal(a.lat, b.lat) && slices.Equal(a.mate, b.mate)
}

// TestGraphCSRIsShared pins the memo: an unedited graph hands every caller
// one CSR, the second call allocating nothing; each edit drops it, so the
// next CSR shows the edit while the one before stays as it was; and
// concurrent first calls (run under -race) agree on one pointer.
func TestGraphCSRIsShared(t *testing.T) {
	g := mustTriangle(t)
	c := g.CSR()
	if g.CSR() != c {
		t.Fatal("two CSR calls on an unedited graph returned two pointers")
	}
	if allocs := testing.AllocsPerRun(100, func() { g.CSR() }); allocs != 0 {
		t.Fatalf("a memoized CSR call allocated %.0f times", allocs)
	}

	edits := []struct {
		name string
		edit func(*Graph) error
		want func(*CSR) bool
	}{
		{"AddEdge", func(g *Graph) error { return g.AddEdge(0, 3, 4) },
			func(c *CSR) bool { return c.M() == 4 && c.Degree(3) == 1 }},
		{"SetLatency", func(g *Graph) error { return g.SetLatency(0, 2, 9) },
			func(c *CSR) bool { return c.M() == 3 && c.MaxLatency() == 9 }},
		{"RemoveEdge", func(g *Graph) error { return g.RemoveEdge(0, 2) },
			func(c *CSR) bool { return c.M() == 2 && c.MaxLatency() == 2 && c.Degree(0) == 1 }},
	}
	for _, tc := range edits {
		t.Run(tc.name, func(t *testing.T) {
			g := New(4)
			g.MustAddEdge(0, 1, 1)
			g.MustAddEdge(1, 2, 2)
			g.MustAddEdge(0, 2, 5)
			before := g.CSR()
			kept := snapshotCSR(before)
			if err := tc.edit(g); err != nil {
				t.Fatal(err)
			}
			after := g.CSR()
			if after == before {
				t.Fatalf("%s kept the memoized CSR", tc.name)
			}
			if !tc.want(after) || !sameCSR(after, g.convert()) {
				t.Fatalf("CSR after %s does not show it: %v", tc.name, after)
			}
			if !sameCSR(before, kept) {
				t.Fatalf("%s changed the CSR taken before it", tc.name)
			}
		})
	}

	fresh := mustTriangle(t)
	got := make([]*CSR, 8)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range got {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			got[i] = fresh.CSR()
		}()
	}
	start.Done()
	done.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("goroutine %d's first CSR call returned another pointer", i)
		}
	}
}

// FuzzGraphCSR interleaves CSR calls with edits: after every edit the
// memoized CSR must equal a fresh conversion of the graph, and no CSR
// handed out earlier may change. A mutator that keeps the memo fails it.
func FuzzGraphCSR(f *testing.F) {
	// Each seed edits a graph whose CSR was taken: AddEdge, SetLatency,
	// RemoveEdge, then all three in turn.
	f.Add([]byte{4, 0, 0, 1, 0, 3, 0, 0, 0, 0, 1, 2, 4, 3, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 1, 0, 3, 0, 0, 0, 1, 0, 1, 8, 3, 0, 0, 0})
	f.Add([]byte{4, 0, 0, 1, 0, 0, 1, 2, 0, 3, 0, 0, 0, 2, 0, 1, 0, 3, 0, 0, 0})
	f.Add([]byte{6, 0, 0, 1, 0, 0, 1, 2, 1, 3, 0, 0, 0, 0, 2, 3, 2, 3, 0, 0, 0,
		1, 1, 2, 20, 3, 0, 0, 0, 2, 0, 1, 0, 3, 0, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 1 {
			return
		}
		n := int(data[0])%16 + 2
		g := New(n)
		var held, kept []*CSR
		check := func() {
			c := g.CSR()
			if !sameCSR(c, g.convert()) {
				t.Fatalf("memoized CSR %v differs from a fresh conversion", c)
			}
			held = append(held, c)
			kept = append(kept, snapshotCSR(c))
		}
		for i := 1; i+3 < len(data); i += 4 {
			u, v, lat := int(data[i+1])%n, int(data[i+2])%n, int(data[i+3])%64+1
			switch data[i] % 4 {
			case 0:
				_ = g.AddEdge(u, v, lat)
			case 1:
				_ = g.SetLatency(u, v, lat)
			case 2:
				_ = g.RemoveEdge(u, v)
			case 3:
				check()
			}
		}
		check()
		for i := range held {
			if !sameCSR(held[i], kept[i]) {
				t.Fatalf("CSR %d changed after it was handed out", i)
			}
		}
	})
}
