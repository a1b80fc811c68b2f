package adversity

import (
	"reflect"
	"testing"
)

func TestParseSpecFull(t *testing.T) {
	spec, err := ParseSpec("loss=0.1; loss=0-1=0.5; churn=3:10-20:amnesia; churn=4:5-inf; flap=0-2:5-9; crash=4:6,7")
	if err != nil {
		t.Fatal(err)
	}
	want := &Spec{
		Loss:     0.1,
		EdgeLoss: []EdgeLoss{{U: 0, V: 1, P: 0.5}},
		Churn: []Churn{
			{Node: 3, Leave: 10, Rejoin: 20, Amnesia: true},
			{Node: 4, Leave: 5, Rejoin: Forever},
		},
		Flaps:   []Flap{{U: 0, V: 2, From: 5, To: 9}},
		Crashes: []Crash{{Round: 4, Nodes: []int{6, 7}}},
	}
	if !reflect.DeepEqual(spec, want) {
		t.Fatalf("parsed %+v, want %+v", spec, want)
	}
}

// TestParseSpecRoundTrip pins the DSL renderer: String must re-parse to
// the same spec.
func TestParseSpecRoundTrip(t *testing.T) {
	for _, text := range []string{
		"loss=0.25",
		"loss=1-2=0.75",
		"churn=0:1-2",
		"churn=9:3-inf:amnesia",
		"flap=4-5:0-100",
		"crash=12:0,1,2",
		"loss=0.1;loss=0-1=0.5;churn=3:10-20:amnesia;flap=0-2:5-9;crash=4:6,7",
	} {
		spec, err := ParseSpec(text)
		if err != nil {
			t.Fatalf("%q: %v", text, err)
		}
		again, err := ParseSpec(spec.String())
		if err != nil {
			t.Fatalf("%q: re-parse of %q: %v", text, spec.String(), err)
		}
		if !reflect.DeepEqual(spec, again) {
			t.Fatalf("%q: round trip changed %+v to %+v", text, spec, again)
		}
	}
	if got := (&Spec{}).String(); got != "" {
		t.Fatalf("empty spec renders %q", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, text := range []string{
		"bogus",
		"frob=1",
		"loss=",
		"loss=nope",
		"loss=1.5",
		"loss=-0.1",
		"loss=NaN",
		"loss=0.1;loss=0.2", // duplicate uniform loss
		"loss=0-1",          // missing probability? parses as edge "0-1" missing '='... wants float
		"churn=3",
		"churn=3:10",
		"churn=3:10-5:retain",
		"churn=3:10--1", // negative TO must not alias the Forever sentinel
		"churn=x:1-2",
		"flap=0-1:2--3",
		"flap=0:5-9",
		"flap=0-1:9",
		"crash=4",
		"crash=4:",
		"crash=x:1",
	} {
		if spec, err := ParseSpec(text); err == nil {
			t.Errorf("%q: parsed without error into %+v", text, spec)
		}
	}
}

func TestCompileErrors(t *testing.T) {
	for name, spec := range map[string]*Spec{
		"loss-high":      {Loss: 1.01},
		"loss-negative":  {Loss: -0.5},
		"edge-range":     {EdgeLoss: []EdgeLoss{{U: 0, V: 64, P: 0.5}}},
		"edge-self":      {EdgeLoss: []EdgeLoss{{U: 3, V: 3, P: 0.5}}},
		"edge-dup":       {EdgeLoss: []EdgeLoss{{U: 0, V: 1, P: 0.5}, {U: 1, V: 0, P: 0.2}}},
		"edge-bad-prob":  {EdgeLoss: []EdgeLoss{{U: 0, V: 1, P: 2}}},
		"churn-range":    {Churn: []Churn{{Node: -1, Leave: 0, Rejoin: 5}}},
		"churn-inverted": {Churn: []Churn{{Node: 1, Leave: 5, Rejoin: 5}}},
		"churn-negative": {Churn: []Churn{{Node: 1, Leave: -3, Rejoin: 5}}},
		"churn-overlap":  {Churn: []Churn{{Node: 1, Leave: 0, Rejoin: 5}, {Node: 1, Leave: 4, Rejoin: 9}}},
		"churn-vs-crash": {Churn: []Churn{{Node: 1, Leave: 8, Rejoin: 12}}, Crashes: []Crash{{Round: 3, Nodes: []int{1}}}},
		"flap-range":     {Flaps: []Flap{{U: 0, V: 99, From: 0, To: 5}}},
		"flap-inverted":  {Flaps: []Flap{{U: 0, V: 1, From: 5, To: 5}}},
		"flap-overlap":   {Flaps: []Flap{{U: 0, V: 1, From: 0, To: 5}, {U: 1, V: 0, From: 3, To: 8}}},
		"crash-range":    {Crashes: []Crash{{Round: 0, Nodes: []int{64}}}},
		"crash-negative": {Crashes: []Crash{{Round: -1, Nodes: []int{0}}}},
		"crash-twice":    {Crashes: []Crash{{Round: 1, Nodes: []int{2}}, {Round: 5, Nodes: []int{2}}}},
	} {
		if sched, err := spec.Compile(64); err == nil {
			t.Errorf("%s: compiled without error into %+v", name, sched)
		}
	}
	if _, err := (&Spec{}).Compile(0); err == nil {
		t.Error("compile with zero nodes should error")
	}
}

func TestScheduleQueries(t *testing.T) {
	spec := MustParseSpec("loss=0.1;loss=0-1=0.6;churn=2:5-10:amnesia;flap=3-4:7-9;crash=12:5")
	c, err := spec.Compile(8)
	if err != nil {
		t.Fatal(err)
	}
	if !c.HasLoss() {
		t.Fatal("HasLoss = false for a lossy schedule")
	}
	if p := c.LossProb(1, 0); p != 0.6 {
		t.Fatalf("edge override (either orientation) = %v, want 0.6", p)
	}
	if p := c.LossProb(6, 7); p != 0.1 {
		t.Fatalf("default loss = %v, want 0.1", p)
	}
	for r, want := range map[int]bool{4: false, 5: true, 9: true, 10: false} {
		if got := c.Down(2, r); got != want {
			t.Errorf("Down(2,%d) = %v, want %v", r, got, want)
		}
	}
	if !c.Down(5, 100) || c.Down(5, 11) {
		t.Error("crash interval should run from round 12 forever")
	}
	// Transit windows: [3,4] misses [5,10); [3,5] and [9,20] touch it.
	if c.DownDuring(2, 3, 4) || !c.DownDuring(2, 3, 5) || !c.DownDuring(2, 9, 20) || c.DownDuring(2, 10, 20) {
		t.Error("DownDuring window overlap wrong")
	}
	if c.LinkDownDuring(3, 4, 0, 6) || !c.LinkDownDuring(4, 3, 6, 7) || c.LinkDownDuring(3, 4, 9, 12) {
		t.Error("LinkDownDuring window overlap wrong")
	}
	events := c.Events()
	var rounds []int
	for _, ev := range events {
		rounds = append(rounds, ev.Round)
	}
	if !reflect.DeepEqual(rounds, []int{5, 10, 12}) {
		t.Fatalf("event rounds %v, want [5 10 12]", rounds)
	}
	if len(events[1].Rejoin) != 1 || events[1].Rejoin[0] != (Rejoin{Node: 2, Amnesia: true}) {
		t.Fatalf("round-10 event %+v lacks the amnesia rejoin", events[1])
	}
}

func TestShift(t *testing.T) {
	spec := MustParseSpec("loss=0.2;churn=1:5-10:amnesia;churn=2:3-inf;flap=0-1:4-8;crash=6:3")
	s := spec.Shift(6)
	want := &Spec{
		Loss: 0.2,
		Churn: []Churn{
			{Node: 1, Leave: 0, Rejoin: 4, Amnesia: true},
			{Node: 2, Leave: 0, Rejoin: Forever},
		},
		Flaps:   []Flap{{U: 0, V: 1, From: 0, To: 2}},
		Crashes: []Crash{{Round: 0, Nodes: []int{3}}},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("shift(6) = %+v, want %+v", s, want)
	}
	// Fully elapsed intervals drop out.
	if got := spec.Shift(10); len(got.Churn) != 1 || got.Churn[0].Node != 2 || len(got.Flaps) != 0 {
		t.Fatalf("shift(10) = %+v", got)
	}
	if spec.Shift(0) != spec {
		t.Fatal("shift(0) should be the identity")
	}
	var nilSpec *Spec
	if nilSpec.Shift(5) != nil {
		t.Fatal("nil shift should stay nil")
	}
}

func TestSpecPredicates(t *testing.T) {
	var nilSpec *Spec
	if !nilSpec.Empty() || nilSpec.HasFailures() || nilSpec.HasAmnesia() || nilSpec.NeverReturns(0) {
		t.Fatal("nil spec predicates wrong")
	}
	spec := MustParseSpec("churn=1:5-10;churn=2:3-inf;crash=6:3")
	if spec.Empty() || !spec.HasFailures() || spec.HasAmnesia() {
		t.Fatal("spec predicates wrong")
	}
	for u, want := range map[int]bool{1: false, 2: true, 3: true, 4: false} {
		if got := spec.NeverReturns(u); got != want {
			t.Errorf("NeverReturns(%d) = %v, want %v", u, got, want)
		}
	}
	if !MustParseSpec("churn=1:5-10:amnesia").HasAmnesia() {
		t.Fatal("amnesia not detected")
	}
}

// TestCrashBatchValidation pins Compile's handling of crash batches: a
// crash is a down interval that never ends, and malformed batches error.
func TestCrashBatchValidation(t *testing.T) {
	sched, err := (&Spec{Crashes: []Crash{{Round: 3, Nodes: []int{1}}, {Round: 7, Nodes: []int{3}}}}).Compile(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		node, round int
		down        bool
	}{{1, 2, false}, {1, 3, true}, {3, 6, false}, {3, 7, true}, {3, 1 << 30, true}, {0, 1 << 30, false}} {
		if got := sched.Down(tc.node, tc.round); got != tc.down {
			t.Errorf("Down(%d, %d) = %v, want %v", tc.node, tc.round, got, tc.down)
		}
	}
	for name, bad := range map[string][]Crash{
		"out-of-range node":  {{Round: 1, Nodes: []int{5}}},
		"negative round":     {{Round: -1, Nodes: []int{0}}},
		"node crashes twice": {{Round: 1, Nodes: []int{1}}, {Round: 4, Nodes: []int{1}}},
	} {
		if _, err := (&Spec{Crashes: bad}).Compile(2); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}
