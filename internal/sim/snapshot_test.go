package sim

import (
	"slices"
	"strings"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// cloningProtocol extends randProtocol with StateCloner; it has no
// mutable state beyond the engine-owned RNG cursor, so the clone is a
// no-op. It exists so snapshot tests can run without the gossip layer.
type cloningProtocol struct{ randProtocol }

func (p *cloningProtocol) CloneStateFrom(Protocol) {}

func cloningFactory(nv *NodeView) Protocol {
	return &cloningProtocol{randProtocol{nv: nv}}
}

// TestCaptureRejectsNonCloner pins the fail-fast contract: a protocol
// without CloneStateFrom cannot be snapshotted, and CaptureAt says so
// before running anything.
func TestCaptureRejectsNonCloner(t *testing.T) {
	g := graphgen.Clique(6, 1)
	cfg := Config{CSR: g.CSR(), Seed: 1, MaxRounds: 64}
	_, err := CaptureAt(cfg, func(nv *NodeView) Protocol { return &randProtocol{nv: nv} }, StopAllInformed(0), 4)
	if err == nil || !strings.Contains(err.Error(), "StateCloner") {
		t.Fatalf("want StateCloner error, got %v", err)
	}
}

// TestCaptureRejectsNegativeRound pins the argument guard.
func TestCaptureRejectsNegativeRound(t *testing.T) {
	g := graphgen.Clique(6, 1)
	cfg := Config{CSR: g.CSR(), Seed: 1, MaxRounds: 64}
	if _, err := CaptureAt(cfg, cloningFactory, StopAllInformed(0), -1); err == nil {
		t.Fatal("negative capture round accepted")
	}
}

// TestCaptureAfterEndIsDone: forking past the end of the run yields a
// Done snapshot whose every Resume returns the finished result.
func TestCaptureAfterEndIsDone(t *testing.T) {
	g := graphgen.Clique(8, 1)
	cfg := Config{CSR: g.CSR(), Seed: 3, MaxRounds: 1 << 12}
	cold, err := Run(cfg, cloningFactory, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	snap, err := CaptureAt(cfg, cloningFactory, StopAllInformed(0), cold.Rounds+100)
	if err != nil {
		t.Fatal(err)
	}
	if !snap.Done() || snap.Round() != cold.Rounds {
		t.Fatalf("want done snapshot at round %d, got done=%v round=%d", cold.Rounds, snap.Done(), snap.Round())
	}
	res, err := snap.Resume(cfg, cloningFactory, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds != cold.Rounds || res.Exchanges != cold.Exchanges {
		t.Fatalf("done resume diverges from cold run: %+v vs %+v", res, cold)
	}
}

// TestResumeRejectsIncompatibleConfig enumerates the frozen knobs: a
// resume that diverges on any prefix-shaping field must be refused.
func TestResumeRejectsIncompatibleConfig(t *testing.T) {
	g := graphgen.Clique(8, 1)
	base := Config{CSR: g.CSR(), Seed: 3, MaxRounds: 1 << 12}
	snap, err := CaptureAt(base, cloningFactory, StopAllInformed(0), 2)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done() {
		t.Fatal("capture finished before round 2; graph too easy for this test")
	}
	bad := []struct {
		name string
		mut  func(*Config)
	}{
		{"seed", func(c *Config) { c.Seed = 4 }},
		{"graph", func(c *Config) { c.CSR = graphgen.Clique(8, 1).CSR() }}, // equal values, another pointer
		{"source", func(c *Config) { c.Source = 1 }},
		{"jitter", func(c *Config) { c.LatencyJitter = 0.25 }},
		{"horizon-before-fork", func(c *Config) { c.MaxRounds = 1 }},
	}
	for _, tc := range bad {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mut(&cfg)
			if _, err := snap.Resume(cfg, cloningFactory, StopAllInformed(0)); err == nil {
				t.Fatalf("incompatible resume (%s) accepted", tc.name)
			}
		})
	}
}

// TestResumeBitIdentical is the core engine-level guarantee on the
// minimal protocol: capture at R, resume with the identical config, and
// the continuation must equal the cold run exactly — counters, final
// round, and the per-node informed schedule — at 1 and 8 workers and
// in every cross combination of capture/resume worker counts.
func TestResumeBitIdentical(t *testing.T) {
	csr := graphgen.Grid(8, 8, 3).CSR() // Resume compares topologies by pointer
	mk := func(workers int) Config {
		return Config{CSR: csr, Seed: 9, MaxRounds: 1 << 12, Workers: workers}
	}
	cold, err := Run(mk(1), cloningFactory, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	fork := cold.Rounds / 2
	for _, cw := range []int{1, 8} {
		snap, err := CaptureAt(mk(cw), cloningFactory, StopAllInformed(0), fork)
		if err != nil {
			t.Fatal(err)
		}
		for _, rw := range []int{1, 8} {
			warm, err := snap.Resume(mk(rw), cloningFactory, StopAllInformed(0))
			if err != nil {
				t.Fatal(err)
			}
			if warm.Rounds != cold.Rounds || warm.Exchanges != cold.Exchanges ||
				warm.Messages != cold.Messages || warm.Delivered != cold.Delivered ||
				warm.RumorPayload != cold.RumorPayload {
				t.Fatalf("capture@w%d/resume@w%d diverges:\n warm %+v\n cold %+v", cw, rw, warm, cold)
			}
			for u := range cold.InformedAt {
				if warm.InformedAt[u] != cold.InformedAt[u] {
					t.Fatalf("capture@w%d/resume@w%d: node %d informed at %d, cold %d",
						cw, rw, u, warm.InformedAt[u], cold.InformedAt[u])
				}
			}
		}
	}
}

// TestResumeOverflowCalendar resumes runs whose calendars hold
// exchanges in the overflow heap (latencies beyond the ring's 2¹³
// rounds) beside ring-resident ones. Some overflow exchanges come due
// within the ring's horizon of the resume round, in the same round as
// ring exchanges initiated later, so the restored bucket must put them
// first, as cold execution delivers them. The resumed runs must equal
// the cold run: counters, informed rounds, every journal and the order in
// which every node was handed its deliveries.
func TestResumeOverflowCalendar(t *testing.T) {
	const n = 6
	g := graph.New(n)
	for _, e := range [][3]int{{0, 1, 9000}, {0, 2, 8000}, {0, 3, 8500}, {0, 4, 1}, {0, 5, 2}, {1, 2, 9500}, {3, 4, 3}} {
		g.MustAddEdge(e[0], e[1], e[2])
	}
	cfg := Config{CSR: g.CSR(), Seed: 5, Mode: AllToAll, MaxRounds: 12000}
	f, coldTapes := receiverFactory(tapeEveryNode, n)
	cold, err := Run(cfg, f, StopNever())
	if err != nil {
		t.Fatal(err)
	}
	for _, at := range []int{500, 8600, 9200} {
		f, _ := receiverFactory(tapeEveryNode, n)
		snap, err := CaptureAt(cfg, f, StopNever(), at)
		if err != nil {
			t.Fatal(err)
		}
		if len(snap.src.overflow) == 0 {
			t.Fatalf("capture at %d holds no overflow exchange", at)
		}
		for _, workers := range []int{1, 2} {
			cfg.Workers = workers
			f, tapes := receiverFactory(tapeEveryNode, n)
			warm, err := snap.Resume(cfg, f, StopNever())
			if err != nil {
				t.Fatal(err)
			}
			if warm.Rounds != cold.Rounds || warm.Exchanges != cold.Exchanges || warm.Delivered != cold.Delivered ||
				warm.RumorPayload != cold.RumorPayload || !slices.Equal(warm.InformedAt, cold.InformedAt) {
				t.Fatalf("resume at %d, workers %d diverges:\n warm %+v\n cold %+v", at, workers, warm, cold)
			}
			for u, nv := range warm.World.Views {
				if !slices.Equal(nv.journal, cold.World.Views[u].journal) || tapes[u] != coldTapes[u] {
					t.Fatalf("resume at %d, workers %d: node %d was handed other deliveries than in the cold run", at, workers, u)
				}
			}
		}
	}
}
