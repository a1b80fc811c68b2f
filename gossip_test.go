package gossip

import (
	"math"
	"testing"

	"gossip/internal/graphgen"
)

// buildRingWithChord builds the quickstart topology: a fast ring plus one
// slow chord.
func buildRingWithChord() *Graph {
	g := NewGraph(6)
	for v := 0; v < 6; v++ {
		g.MustAddEdge(v, (v+1)%6, 1)
	}
	g.MustAddEdge(0, 3, 100)
	return g
}

func TestFacadeAnalyze(t *testing.T) {
	p, err := Analyze(buildRingWithChord())
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 6 || p.M != 7 {
		t.Fatalf("profile: %+v", p)
	}
	// The slow chord is useless: the critical latency is 1 (the fast
	// ring carries the bottleneck) and D ignores the latency-100 edge.
	if p.Conductance.EllStar != 1 {
		t.Fatalf("ℓ* = %d, want 1", p.Conductance.EllStar)
	}
	if p.Diameter != 3 {
		t.Fatalf("D = %d, want 3", p.Diameter)
	}
	if err := p.Conductance.CheckTheorem5(); err != nil {
		t.Fatal(err)
	}
}

func TestAnalyzeClique(t *testing.T) {
	g := graphgen.Clique(10, 1)
	p, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.N != 10 || p.M != 45 || p.MaxDegree != 9 || p.Diameter != 1 {
		t.Fatalf("profile basics wrong: %+v", p)
	}
	if p.Conductance.EllStar != 1 {
		t.Fatalf("ℓ* = %d", p.Conductance.EllStar)
	}
	if p.Bounds.PushPull <= 0 || math.IsInf(p.Bounds.PushPull, 1) {
		t.Fatalf("push-pull bound = %v", p.Bounds.PushPull)
	}
	if p.Bounds.Lower > p.Bounds.PushPull {
		t.Fatalf("lower bound %v above push-pull upper %v on a clique", p.Bounds.Lower, p.Bounds.PushPull)
	}
}

func TestAnalyzeRejectsInvalid(t *testing.T) {
	if _, err := Analyze(NewGraph(3)); err == nil { // edgeless, disconnected
		t.Fatal("expected error for disconnected graph")
	}
	// A single node is connected but has no cut to measure.
	if _, err := Analyze(NewGraph(1)); err == nil {
		t.Fatal("expected error for a single-node graph")
	}
}

func TestFacadeGraphValidation(t *testing.T) {
	g := NewGraph(3)
	if err := g.AddEdge(0, 1, 0); err == nil {
		t.Fatal("zero latency accepted")
	}
	g.MustAddEdge(0, 1, 1) // node 2 stays isolated
	if _, err := Analyze(g); err == nil {
		t.Fatal("disconnected graph accepted by Analyze")
	}
}

func TestDisseminateAlgorithms(t *testing.T) {
	g := graphgen.Grid(4, 4, 2)
	algos := []Algorithm{PushPull, Spanner, Pattern, Flood, Auto}
	for _, a := range algos {
		t.Run(a.String(), func(t *testing.T) {
			out, err := Disseminate(g, Options{
				Algorithm:      a,
				Source:         0,
				KnownLatencies: true,
				Seed:           1,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !out.Completed {
				t.Fatalf("%v incomplete: %+v", a, out)
			}
			if out.Rounds <= 0 {
				t.Fatalf("%v rounds = %d", a, out.Rounds)
			}
		})
	}
}

func TestFacadeDisseminateAllAlgorithms(t *testing.T) {
	g := buildRingWithChord()
	for _, algo := range []Algorithm{Auto, PushPull, Spanner, Pattern, Flood} {
		out, err := Disseminate(g, Options{
			Algorithm:      algo,
			Source:         2,
			KnownLatencies: true,
			Seed:           5,
		})
		if err != nil {
			t.Fatalf("%v: %v", algo, err)
		}
		if !out.Completed || out.Rounds <= 0 {
			t.Fatalf("%v: %+v", algo, out)
		}
	}
}

func TestDisseminateDefaultsToAuto(t *testing.T) {
	g := graphgen.Clique(8, 1)
	out, err := Disseminate(g, Options{Source: 0, KnownLatencies: true, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatal("auto dissemination incomplete")
	}
	if out.Algorithm != PushPull && out.Algorithm != Spanner {
		t.Fatalf("auto winner = %v", out.Algorithm)
	}
}

func TestDisseminateUnknownAlgorithm(t *testing.T) {
	g := graphgen.Clique(4, 1)
	if _, err := Disseminate(g, Options{Algorithm: Algorithm("no-such-driver")}); err == nil {
		t.Fatal("expected error")
	}
	// A source only the engine can check is an error too, not a run.
	if _, err := Disseminate(g, Options{Source: 9}); err == nil {
		t.Fatal("expected error for source 9 on 4 nodes")
	}
}

// TestDisseminateIncomplete: a run cut off at MaxRounds reports
// Completed false and Rounds -1.
func TestDisseminateIncomplete(t *testing.T) {
	out, err := Disseminate(graphgen.Path(16, 1), Options{Algorithm: PushPull, MaxRounds: 2})
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.Rounds != -1 {
		t.Fatalf("2-round push-pull on a 16-node path: %+v", out)
	}
}

func TestAlgorithmString(t *testing.T) {
	names := map[Algorithm]string{
		Auto: "auto", PushPull: "push-pull", Spanner: "spanner",
		Pattern: "pattern", Flood: "flood", Algorithm(""): "auto",
	}
	for a, want := range names {
		if got := a.String(); got != want {
			t.Fatalf("String(%q) = %q, want %q", string(a), got, want)
		}
	}
}

func TestParseAlgorithmAliases(t *testing.T) {
	for name, want := range map[string]Algorithm{
		"pushpull": PushPull, "PUSH-PULL": PushPull, "unified": Auto,
		"dtg": Algorithm("dtg"), "rr": Algorithm("rr"),
	} {
		got, err := ParseAlgorithm(name)
		if err != nil {
			t.Fatalf("ParseAlgorithm(%q): %v", name, err)
		}
		if got != want {
			t.Fatalf("ParseAlgorithm(%q) = %q, want %q", name, got, want)
		}
	}
	for _, name := range Algorithms() {
		if got, err := ParseAlgorithm(name); err != nil || string(got) != name {
			t.Fatalf("registered name %q parses to %q, %v", name, got, err)
		}
	}
	if _, err := ParseAlgorithm("bogus"); err == nil {
		t.Fatal("expected error for unregistered name")
	}
}

func TestBoundsOrdering(t *testing.T) {
	// On any graph, Unified <= PushPull and Unified <= SpannerUnknown.
	rng := graphgen.NewRand(9)
	g, err := graphgen.ErdosRenyi(14, 0.4, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	graphgen.AssignRandomLatencies(g, 1, 12, rng)
	p, err := Analyze(g)
	if err != nil {
		t.Fatal(err)
	}
	if p.Bounds.Unified > p.Bounds.PushPull+1e-9 || p.Bounds.Unified > p.Bounds.SpannerUnknown+1e-9 {
		t.Fatalf("unified bound not the min: %+v", p.Bounds)
	}
	if p.Bounds.SpannerKnown > p.Bounds.SpannerUnknown+1e-9 {
		t.Fatal("known-latency bound above unknown-latency bound")
	}
}
