package gossip

import (
	"reflect"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graphgen"
)

func TestDisseminateWithCrashes(t *testing.T) {
	g := graphgen.Clique(12, 1)
	out, err := Disseminate(g, Options{
		Algorithm: PushPull, Source: 0, Seed: 1,
		Adversity: &adversity.Spec{Crashes: []adversity.Crash{{Round: 2, Nodes: []int{3}}}},
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
		Adversity:     &adversity.Spec{Crashes: []adversity.Crash{{Round: 5, Nodes: []int{1}}}},
		FaultTolerant: true, MaxRounds: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("fault-tolerant spanner incomplete: %+v", out)
	}
}

// TestDisseminateCrashSchedule: a crash batch rides the one failure field
// beside loss and churn, completion is judged over survivors, and the
// caller's spec is left as it was.
func TestDisseminateCrashSchedule(t *testing.T) {
	g := graphgen.Clique(12, 1)
	out, err := Disseminate(g, Options{
		Algorithm: PushPull, Seed: 5, MaxRounds: 1 << 14,
		Adversity: &adversity.Spec{Crashes: []adversity.Crash{{Round: 2, Nodes: []int{4, 5}}}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !out.Completed {
		t.Fatalf("survivors not informed: %+v", out)
	}
	spec := &adversity.Spec{
		Loss:    0.05,
		Churn:   []adversity.Churn{{Node: 5, Leave: 3, Rejoin: 9}},
		Crashes: []adversity.Crash{{Round: 2, Nodes: []int{4}}},
	}
	want := *spec
	if _, err := Disseminate(g, Options{Algorithm: PushPull, Seed: 5, MaxRounds: 1 << 14, Adversity: spec}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*spec, want) {
		t.Fatalf("Disseminate mutated the caller's spec: %+v", spec)
	}
}
