package server

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"gossip/internal/gossip"
)

func intp(v int) *int          { return &v }
func strp(v string) *string    { return &v }
func boolp(v bool) *bool       { return &v }
func testServer() *Server      { return New(Config{MaxN: 1 << 12}) }
func okGraph() GraphSpec       { return GraphSpec{Family: "dumbbell", N: 8, Latency: 12} }
func msp(ms int) time.Duration { return time.Duration(ms) * time.Millisecond }

// fleetMember is a server that believes it has two shard workers (never
// dialed): the only way a request with shards set gets past validate.
func fleetMember() *Server {
	return New(Config{Peers: []string{"a:1", "b:1", "c:1"}, Advertise: "a:1"})
}

// TestValidateRejects is the request-validation table: every malformed
// request must map to a structured field-level error (the 400 path) —
// never a panic, never an opaque 500.
func TestValidateRejects(t *testing.T) {
	s := testServer()
	cases := []struct {
		name      string
		req       Request
		wantField string
		wantMsg   string
	}{
		{"unknown driver", Request{Driver: "zzz", Graph: okGraph()}, "driver", "unknown driver"},
		{"empty driver", Request{Graph: okGraph()}, "driver", "unknown driver"},
		{"unknown family", Request{Driver: "push-pull", Graph: GraphSpec{Family: "moebius", N: 8}}, "graph.family", "unknown family"},
		{"n too small", Request{Driver: "push-pull", Graph: GraphSpec{Family: "clique", N: 1}}, "graph.n", "outside"},
		{"n too large", Request{Driver: "push-pull", Graph: GraphSpec{Family: "clique", N: 1 << 13}}, "graph.n", "outside"},
		{"negative latency", Request{Driver: "push-pull", Graph: GraphSpec{Family: "clique", N: 8, Latency: -1}}, "graph.latency", "outside"},
		{"p out of range", Request{Driver: "push-pull", Graph: GraphSpec{Family: "er", N: 8, P: 1.5}}, "graph.p", "outside"},
		{"layers out of range", Request{Driver: "push-pull", Graph: GraphSpec{Family: "ring", N: 4, Layers: 65}}, "graph.layers", "outside"},
		{"negative workers", Request{Driver: "push-pull", Graph: okGraph(), Workers: -1}, "workers", "outside"},
		{"huge workers", Request{Driver: "push-pull", Graph: okGraph(), Workers: 1 << 10}, "workers", "outside"},
		{"negative max_rounds", Request{Driver: "push-pull", Graph: okGraph(), MaxRounds: -1}, "max_rounds", "outside"},
		{"zero timeout", Request{Driver: "push-pull", Graph: okGraph(), TimeoutMS: intp(0)}, "timeout_ms", "positive"},
		{"negative timeout", Request{Driver: "push-pull", Graph: okGraph(), TimeoutMS: intp(-5)}, "timeout_ms", "positive"},
		{"malformed fault spec", Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: "loss=banana"}, "fault_spec", "probability"},
		{"fault spec bad item", Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: "quake=0.5"}, "fault_spec", "unknown item"},
		{"fault spec not key=value", Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: ";;;x"}, "fault_spec", "key=value"},
		// okGraph is a dumbbell with n=8, which builds 16 nodes: ids
		// 0..15 are valid sources, 16 is the first invalid one.
		{"source out of range", Request{Driver: "push-pull", Graph: okGraph(), Source: intp(16)}, "source", "outside"},
		{"negative source", Request{Driver: "push-pull", Graph: okGraph(), Source: intp(-1)}, "source", "outside"},
		{"sources out of range", Request{Driver: "push-pull", Graph: okGraph(), Sources: []int{3, 16}}, "sources", "outside"},
		{"source on dtg", Request{Driver: "dtg", Graph: okGraph(), Source: intp(0)}, "source", "does not accept"},
		{"sources on flood", Request{Driver: "flood", Graph: okGraph(), Sources: []int{1}}, "sources", "does not accept"},
		{"ell on push-pull", Request{Driver: "push-pull", Graph: okGraph(), Ell: intp(2)}, "ell", "does not accept"},
		{"k on flood", Request{Driver: "flood", Graph: okGraph(), K: intp(2)}, "k", "does not accept"},
		{"d on dtg", Request{Driver: "dtg", Graph: okGraph(), D: intp(2)}, "d", "does not accept"},
		{"budget on flood", Request{Driver: "flood", Graph: okGraph(), Budget: intp(9)}, "budget", "does not accept"},
		{"known_latencies on rr", Request{Driver: "rr", Graph: okGraph(), KnownLatencies: boolp(true)}, "known_latencies", "does not accept"},
		{"fault_tolerant on pattern", Request{Driver: "pattern", Graph: okGraph(), FaultTolerant: boolp(true)}, "fault_tolerant", "does not accept"},
		{"skip_check on dtg", Request{Driver: "dtg", Graph: okGraph(), SkipCheck: boolp(true)}, "skip_check", "does not accept"},
		{"lb_timeout on flood", Request{Driver: "flood", Graph: okGraph(), LBTimeout: intp(4)}, "lb_timeout", "does not accept"},
		{"max_in_per_round on dtg", Request{Driver: "dtg", Graph: okGraph(), MaxInPerRound: intp(1)}, "max_in_per_round", "does not accept"},
		{"negative max_in_per_round", Request{Driver: "push-pull", Graph: okGraph(), MaxInPerRound: intp(-1)}, "max_in_per_round", ">= 0"},
		{"objective on flood", Request{Driver: "flood", Graph: okGraph(), Objective: strp("all-to-all")}, "objective", "does not accept"},
		{"bad objective value", Request{Driver: "push-pull", Graph: okGraph(), Objective: strp("sideways")}, "objective", "unknown objective"},
		{"variant on dtg", Request{Driver: "dtg", Graph: okGraph(), Variant: strp("blocking")}, "variant", "does not accept"},
		{"bad variant value", Request{Driver: "push-pull", Graph: okGraph(), Variant: strp("sideways")}, "variant", "no variant"},
		{"flood variant on push-pull", Request{Driver: "push-pull", Graph: okGraph(), Variant: strp("nonblocking")}, "variant", "no variant"},
		{"negative ell", Request{Driver: "dtg", Graph: okGraph(), Ell: intp(-2)}, "ell", ">= 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			jb, ferr := s.validate(tc.req)
			if ferr == nil {
				t.Fatalf("validate accepted %+v (job %+v)", tc.req, jb)
			}
			if ferr.Field != tc.wantField {
				t.Errorf("field = %q, want %q (message %q)", ferr.Field, tc.wantField, ferr.Message)
			}
			if !strings.Contains(ferr.Message, tc.wantMsg) {
				t.Errorf("message %q does not mention %q", ferr.Message, tc.wantMsg)
			}
			if ferr.Error() == "" {
				t.Error("empty Error()")
			}
		})
	}
}

// TestValidateNormalizes pins the canonicalization rules the cache key
// depends on: alias collapse, family-irrelevant parameter zeroing,
// fault-spec rendering, and the execution-knob exclusions.
func TestValidateNormalizes(t *testing.T) {
	s := testServer()

	a, ferr := s.validate(Request{Driver: "pushpull", Graph: GraphSpec{Family: " CLIQUE ", N: 8, P: 0.7, Layers: 3}})
	if ferr != nil {
		t.Fatal(ferr)
	}
	b, ferr := s.validate(Request{Driver: "push-pull", Graph: GraphSpec{Family: "clique", N: 8, Latency: 1}})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if a.key != b.key {
		t.Fatalf("alias/default/irrelevant-param requests got different keys:\n%+v\n%+v", a.can, b.can)
	}

	// workers and timeout are execution knobs: same key, different job.
	c, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), Workers: 8, TimeoutMS: intp(50)})
	if ferr != nil {
		t.Fatal(ferr)
	}
	d, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph()})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if c.key != d.key {
		t.Fatal("workers/timeout_ms leaked into the cache key")
	}
	if c.workers != 8 || c.timeout != msp(50) {
		t.Fatalf("job knobs not applied: %+v", c)
	}
	if d.timeout != s.cfg.DefaultTimeout {
		t.Fatalf("default timeout not applied: %v", d.timeout)
	}

	// fault specs are normalized through the DSL renderer.
	e, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: " loss=0.10 "})
	if ferr != nil {
		t.Fatal(ferr)
	}
	f, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: "loss=0.1"})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if e.key != f.key || e.can.FaultSpec != "loss=0.1" {
		t.Fatalf("fault spec not normalized: %q vs %q", e.can.FaultSpec, f.can.FaultSpec)
	}
	if e.spec == nil {
		t.Fatal("parsed spec not retained")
	}
	if e.key == d.key {
		t.Fatal("fault spec did not change the cache key")
	}

	// an effectively-empty fault spec is the benign request.
	g, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), FaultSpec: " ; ; "})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if g.key != d.key || g.spec != nil {
		t.Fatal("empty fault spec items should normalize to the benign request")
	}
}

// TestValidateClampsTimeout: over-the-max requests are clamped, not
// rejected.
func TestValidateClampsTimeout(t *testing.T) {
	s := New(Config{MaxTimeout: msp(100)})
	jb, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), TimeoutMS: intp(1 << 30)})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if jb.timeout != msp(100) {
		t.Fatalf("timeout = %v, want clamp to 100ms", jb.timeout)
	}
}

// TestValidateDriverFields pins that accepted driver-specific fields
// land in DriverOptions.
func TestValidateDriverFields(t *testing.T) {
	s := testServer()
	jb, ferr := s.validate(Request{
		Driver: "spanner", Graph: okGraph(), Seed: 9,
		D: intp(40), KnownLatencies: boolp(true), MaxRounds: 500, Workers: 2,
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	opts := jb.driverOptions()
	if opts.D != 40 || !opts.KnownLatencies || opts.Seed != 9 || opts.MaxRounds != 500 || opts.Workers != 2 {
		t.Fatalf("driver options: %+v", opts)
	}
	jb2, ferr := s.validate(Request{Driver: "superstep", Graph: okGraph(), Ell: intp(3)})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if jb2.driverOptions().Ell != 3 {
		t.Fatalf("ell not forwarded: %+v", jb2.driverOptions())
	}
}

// TestValidateSourceUsesBuiltNodeCount pins the finding that node-id
// bounds follow the family's built size, not the raw n parameter: a
// dumbbell with n=8 has 16 nodes, so the second clique is addressable.
func TestValidateSourceUsesBuiltNodeCount(t *testing.T) {
	s := testServer()
	jb, ferr := s.validate(Request{Driver: "push-pull", Graph: okGraph(), Source: intp(10)})
	if ferr != nil {
		t.Fatalf("source 10 on a 16-node dumbbell rejected: %v", ferr)
	}
	if jb.driverOptions().Source != 10 {
		t.Fatalf("source not forwarded: %+v", jb.driverOptions())
	}
	ring := GraphSpec{Family: "ring", N: 4, Latency: 2, Layers: 3}
	if _, ferr := s.validate(Request{Driver: "push-pull", Graph: ring, Source: intp(11)}); ferr != nil {
		t.Fatalf("source 11 on a 3x4 ring (12 nodes) rejected: %v", ferr)
	}
	if _, ferr := s.validate(Request{Driver: "push-pull", Graph: ring, Source: intp(12)}); ferr == nil {
		t.Fatal("source 12 on a 12-node ring accepted")
	}
}

// TestRequestCoversDriverSchemas pins that every key a driver advertises
// through GET /v1/drivers is actually settable on a POST request: the
// Request struct's JSON surface must cover the registry vocabulary.
func TestRequestCoversDriverSchemas(t *testing.T) {
	fields := map[string]bool{"driver": true, "graph": true, "workers": true, "timeout_ms": true}
	rt := reflect.TypeOf(Request{})
	for i := 0; i < rt.NumField(); i++ {
		tag, _, _ := strings.Cut(rt.Field(i).Tag.Get("json"), ",")
		fields[tag] = true
	}
	for _, name := range gossip.Names() {
		d, _ := gossip.Lookup(name)
		for _, key := range d.RequestKeys() {
			if !fields[key] {
				t.Errorf("driver %q advertises request key %q with no Request field to carry it", name, key)
			}
		}
	}
}

// TestValidateFullOptionSurface drives one request using every
// spanner-side key and one using the push-pull-side keys, pinning the
// request→DriverOptions mapping.
func TestValidateFullOptionSurface(t *testing.T) {
	s := testServer()
	jb, ferr := s.validate(Request{
		Driver: "spanner", Graph: okGraph(), Seed: 4,
		D: intp(30), KnownLatencies: boolp(true), FaultTolerant: boolp(true),
		LBTimeout: intp(9), SkipCheck: boolp(true),
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	opts := jb.driverOptions()
	if opts.D != 30 || !opts.KnownLatencies || !opts.FaultTolerant || opts.LBTimeout != 9 || !opts.SkipCheck {
		t.Fatalf("spanner options: %+v", opts)
	}
	jb2, ferr := s.validate(Request{
		Driver: "push-pull", Graph: okGraph(),
		Objective: strp("all-to-all"), Sources: []int{1, 9}, MaxInPerRound: intp(2),
	})
	if ferr != nil {
		t.Fatal(ferr)
	}
	opts2 := jb2.driverOptions()
	if opts2.Objective != gossip.AllToAll || len(opts2.Sources) != 2 || opts2.Sources[1] != 9 || opts2.MaxInPerRound != 2 {
		t.Fatalf("push-pull options: %+v", opts2)
	}
	jb3, ferr := s.validate(Request{Driver: "rr", Graph: okGraph(), K: intp(12), Budget: intp(40)})
	if ferr != nil {
		t.Fatal(ferr)
	}
	if o := jb3.driverOptions(); o.K != 12 || o.Budget != 40 {
		t.Fatalf("rr options: %+v", o)
	}
	// distinct option values must split the cache key
	if jb.key == jb2.key || jb2.key == jb3.key {
		t.Fatal("different option surfaces share a cache key")
	}
}
