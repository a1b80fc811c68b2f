package sim

import (
	"math"
	"testing"
)

func TestJitterZeroIsExact(t *testing.T) {
	g := pathGraph(5)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 100, LatencyJitter: 0},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != 5 {
		t.Fatalf("rounds = %d, want exactly 5 without jitter", res.Rounds)
	}
}

func TestJitterPerturbsWithinBounds(t *testing.T) {
	// Latency 100 with 30% jitter: delivery must land in [70, 130].
	g := pathGraph(100)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 500, LatencyJitter: 0.3, Seed: 7},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 70 || res.Rounds > 130 {
		t.Fatalf("jittered delivery at %d, want within [70,130]", res.Rounds)
	}
}

func TestJitterNeverBelowOne(t *testing.T) {
	g := pathGraph(1)
	res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 20, LatencyJitter: 0.9, Seed: 3},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 1 {
		t.Fatalf("delivery in %d rounds; latency must stay >= 1", res.Rounds)
	}
}

// TestJitterValidation pins the config-block validation: LatencyJitter
// must be a finite value in [0,1), rejected before the run starts.
func TestJitterValidation(t *testing.T) {
	g := pathGraph(1)
	cases := []struct {
		jitter float64
		ok     bool
	}{
		{0, true},
		{0.001, true},
		{0.5, true},
		{0.999, true},
		{-0.1, false},
		{-1, false},
		{1.0, false},
		{1.5, false},
		{2.5, false},
		{math.NaN(), false},
		{math.Inf(1), false},
		{math.Inf(-1), false},
	}
	for _, c := range cases {
		_, err := Run(Config{CSR: g.CSR(), MaxRounds: 5, LatencyJitter: c.jitter},
			func(nv *NodeView) Protocol { return &fixedProtocol{nv: nv} }, StopNever())
		if c.ok && err != nil {
			t.Fatalf("jitter %v rejected: %v", c.jitter, err)
		}
		if !c.ok && err == nil {
			t.Fatalf("jitter %v accepted", c.jitter)
		}
	}
}

func TestJitterDeterministicBySeed(t *testing.T) {
	g := pathGraph(50, 50, 50)
	run := func() int {
		res, err := Run(Config{CSR: g.CSR(), Mode: OneToAll, Source: 0, MaxRounds: 1000, LatencyJitter: 0.4, Seed: 11},
			func(nv *NodeView) Protocol {
				p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
				if nv.ID() == 0 {
					p.schedule[0] = 0
				}
				if nv.ID() == 1 {
					p.schedule[1] = nv.NeighborIndex(2)
				}
				if nv.ID() == 2 {
					p.schedule[2] = nv.NeighborIndex(3)
				}
				return p
			}, StopNever())
		if err != nil {
			t.Fatal(err)
		}
		return res.Rounds
	}
	if run() != run() {
		t.Fatal("jitter not deterministic under a fixed seed")
	}
}

func TestRumorPayloadAccounting(t *testing.T) {
	// AllToAll path of 2 nodes, one exchange: each side carries 1 rumor.
	g := pathGraph(1)
	res, err := Run(Config{CSR: g.CSR(), Mode: AllToAll, MaxRounds: 10},
		func(nv *NodeView) Protocol {
			p := &fixedProtocol{nv: nv, schedule: map[int]int{}}
			if nv.ID() == 0 {
				p.schedule[0] = 0
			}
			return p
		}, StopAllHaveAll())
	if err != nil {
		t.Fatal(err)
	}
	if res.RumorPayload != 2 {
		t.Fatalf("RumorPayload = %d, want 2", res.RumorPayload)
	}
}
