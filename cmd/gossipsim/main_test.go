package main

import (
	"os"
	"strings"
	"testing"

	"gossip"
	driver "gossip/internal/gossip"
)

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{
		"-graph", "dumbbell", "-n", "16", "-latency", "64",
		"-algo", "push-pull", "-seed", "3", "-known", "-curve", "-analyze=false",
		"-workers", "8",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.graphName != "dumbbell" || o.n != 16 || o.latency != 64 ||
		o.algoName != "push-pull" || o.algo != gossip.PushPull ||
		o.seed != 3 || !o.known || !o.curve || o.analyze || o.workers != 8 {
		t.Fatalf("parsed %+v", o)
	}
}

func TestParseArgsDefaults(t *testing.T) {
	o, err := parseArgs(nil)
	if err != nil {
		t.Fatal(err)
	}
	if o.graphName != "clique" || o.n != 16 || o.latency != 1 || o.p != 0.3 ||
		o.layers != 6 || o.algoName != "auto" || o.seed != 1 || !o.analyze ||
		o.workers != 0 {
		t.Fatalf("defaults %+v", o)
	}
}

func TestParseArgsErrors(t *testing.T) {
	for _, args := range [][]string{
		{"-nosuchflag"},
		{"-algo", "nosuchalgo"},
		{"positional"},
		{"-n", "abc"},
		// -mode net runs only the registry's real-transport drivers, on a
		// benign schedule: the real fabric cannot apply a fault flag.
		{"-mode", "net", "-algo", "spanner"},
		{"-mode", "net", "-algo", "dtg"},
		{"-mode", "net", "-algo", "election"},
		{"-mode", "net", "-algo", "push-pull", "-fault-spec", "loss=0.4"},
		{"-mode", "net", "-algo", "flood", "-fault-spec", "crash=4:1"},
	} {
		if _, err := parseArgs(args); err == nil {
			t.Fatalf("parseArgs(%v) accepted", args)
		}
	}
	_, err := parseArgs([]string{"-mode", "net", "-algo", "echo"})
	if err == nil || !strings.Contains(err.Error(), strings.Join(driver.RealTransportNames(), ", ")) {
		t.Fatalf("-mode net -algo echo: %v, want the registry's real-transport drivers listed", err)
	}
}

func TestParseAlgoNames(t *testing.T) {
	// -algo values resolve through the driver registry, aliases and
	// registry-only protocols included.
	cases := map[string]gossip.Algorithm{
		"auto":      gossip.Auto,
		"unified":   gossip.Auto,
		"push-pull": gossip.PushPull,
		"pushpull":  gossip.PushPull,
		"SPANNER":   gossip.Spanner,
		"pattern":   gossip.Pattern,
		"flood":     gossip.Flood,
		"dtg":       gossip.Algorithm("dtg"),
	}
	for name, want := range cases {
		o, err := parseArgs([]string{"-algo", name})
		if err != nil {
			t.Fatalf("-algo %q: %v", name, err)
		}
		if o.algo != want {
			t.Fatalf("-algo %q = %v, want %v", name, o.algo, want)
		}
	}
}

// TestUsageListsEveryDriver is the usage golden test: the -algo surface
// is generated from the driver registry (gossip.Algorithms() ==
// driver.Names()), every registered name parses, and the package doc
// comment — the one place a list is hand-written — names every
// registered driver, so registering a new protocol without updating the
// doc fails here instead of shipping stale help text.
func TestUsageListsEveryDriver(t *testing.T) {
	names := driver.Names()
	algos := gossip.Algorithms()
	if len(algos) != len(names) {
		t.Fatalf("gossip.Algorithms() = %v, registry has %v", algos, names)
	}
	for i, n := range names {
		if algos[i] != n {
			t.Fatalf("gossip.Algorithms()[%d] = %q, registry says %q", i, algos[i], n)
		}
		if _, err := parseArgs([]string{"-algo", n}); err != nil {
			t.Fatalf("registered driver %q rejected by -algo: %v", n, err)
		}
	}
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, _, ok := strings.Cut(string(src), "package main")
	if !ok {
		t.Fatal("main.go has no package clause")
	}
	for _, n := range names {
		if !strings.Contains(doc, n) {
			t.Errorf("package doc comment does not mention registered driver %q", n)
		}
	}
}

// TestReadmeCoordinationExamples pins the README's "Coordination
// protocols" section: every single-line gossipsim example there (the
// election-under-churn run and the echo wave) must parse through the
// real flag surface and complete, so the published commands cannot rot.
func TestReadmeCoordinationExamples(t *testing.T) {
	src, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var examples [][]string
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if !strings.Contains(line, "cmd/gossipsim") {
			continue
		}
		if !strings.Contains(line, "-algo election") && !strings.Contains(line, "-algo echo") {
			continue
		}
		fields := strings.Fields(line)
		for i, f := range fields {
			if f == "./cmd/gossipsim" {
				args := fields[i+1:]
				for j := range args {
					args[j] = strings.Trim(args[j], "'") // the shell's quotes
				}
				examples = append(examples, args)
				break
			}
		}
	}
	if len(examples) < 2 {
		t.Fatalf("README carries %d coordination gossipsim examples, want the election and echo runs", len(examples))
	}
	for _, args := range examples {
		o, err := parseArgs(args)
		if err != nil {
			t.Fatalf("README example %v does not parse: %v", args, err)
		}
		g, err := buildGraph(o.graphName, o.n, o.latency, o.p, o.layers, o.seed)
		if err != nil {
			t.Fatal(err)
		}
		out, err := gossip.Disseminate(g, gossip.Options{
			Algorithm:      o.algo,
			Source:         o.source,
			KnownLatencies: o.known,
			Seed:           o.seed,
			Workers:        o.workers,
			Adversity:      o.adversity,
		})
		if err != nil {
			t.Fatalf("README example %v failed: %v", args, err)
		}
		if !out.Completed {
			t.Fatalf("README example %v did not complete (rounds=%d)", args, out.Rounds)
		}
	}
}

func TestBuildGraphFamilies(t *testing.T) {
	for _, name := range []string{
		"clique", "star", "path", "cycle", "grid", "tree", "er",
		"regular", "dumbbell", "ring", "gadget",
	} {
		g, err := buildGraph(name, 8, 2, 0.5, 3, 1)
		if err != nil {
			t.Fatalf("buildGraph(%q): %v", name, err)
		}
		if g.N() == 0 {
			t.Fatalf("buildGraph(%q): empty graph", name)
		}
	}
	if _, err := buildGraph("bogus", 8, 1, 0.3, 3, 1); err == nil {
		t.Fatal("bogus graph accepted")
	}
}
