package core

import (
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graphgen"
)

func TestDisseminateWithCrashes(t *testing.T) {
	g := graphgen.Clique(12, 1)
	out, err := Disseminate(g, Options{
		Algorithm: PushPull, Source: 0, Seed: 1,
		Crashes: []adversity.Crash{{Round: 2, Nodes: []int{3}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("survivor dissemination incomplete: %+v", out)
	}
}

func TestDisseminateFaultTolerantSpanner(t *testing.T) {
	g := graphgen.Clique(12, 2)
	out, err := Disseminate(g, Options{
		Algorithm: Spanner, KnownLatencies: true, Seed: 2,
		Crashes:       []adversity.Crash{{Round: 5, Nodes: []int{1}}},
		FaultTolerant: true, MaxRounds: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("fault-tolerant spanner incomplete: %+v", out)
	}
}

// TestDisseminateCrashSchedule covers the crash-batch field and its
// guard: a node failed by both a crash schedule and the Adversity spec
// is rejected instead of silently letting the earlier failure win.
func TestDisseminateCrashSchedule(t *testing.T) {
	g := graphgen.Clique(12, 1)
	out, err := Disseminate(g, Options{
		Algorithm: PushPull, Seed: 5, MaxRounds: 1 << 14,
		Crashes: []adversity.Crash{{Round: 2, Nodes: []int{4, 5}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("survivors not informed: %+v", out)
	}
	if _, err := Disseminate(g, Options{
		Algorithm: PushPull,
		Crashes:   []adversity.Crash{{Round: 2, Nodes: []int{4}}},
		Adversity: &adversity.Spec{Churn: []adversity.Churn{{Node: 4, Leave: 5, Rejoin: 9}}},
	}); err == nil {
		t.Fatal("node failed by both Crashes and Adversity accepted")
	}
	// Disjoint node sets across the two mechanisms are fine, and the
	// caller's spec is left as it was.
	spec := &adversity.Spec{Loss: 0.05, Churn: []adversity.Churn{{Node: 5, Leave: 3, Rejoin: 9}}}
	if _, err := Disseminate(g, Options{
		Algorithm: PushPull, Seed: 5, MaxRounds: 1 << 14,
		Crashes:   []adversity.Crash{{Round: 2, Nodes: []int{4}}},
		Adversity: spec,
	}); err != nil {
		t.Fatal(err)
	}
	if len(spec.Crashes) != 0 {
		t.Fatalf("Disseminate mutated the caller's spec: %+v", spec)
	}
}
