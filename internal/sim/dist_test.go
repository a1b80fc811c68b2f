package sim

import (
	"reflect"
	"strings"
	"testing"

	"gossip/internal/adversity"
	"gossip/internal/graph"
)

// distMetaProto exercises the full distributed facet surface the real
// meta protocols (DTG, superstep) use: []int32 exchange metadata that
// feeds back into behavior, a DoneReporter whose flag flips inside
// Activate, Sleeper parking, and amnesia restart — so any divergence in
// how metas or done flags cross shard boundaries changes the
// fingerprint.
type distMetaProto struct {
	nv    *NodeView
	heard map[int32]bool
	done  bool
}

func newDistMetaProto(nv *NodeView) *distMetaProto {
	p := &distMetaProto{nv: nv, heard: map[int32]bool{}}
	p.heard[int32(nv.ID())] = true
	return p
}

func (p *distMetaProto) Meta() []int32 {
	out := make([]int32, 0, len(p.heard))
	for r := range p.heard {
		out = append(out, r)
	}
	// map order is nondeterministic; metas must be deterministic data.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

func (p *distMetaProto) Done() bool { return p.done }

func (p *distMetaProto) Activate(int) (int, bool) {
	if p.done {
		return 0, false
	}
	// Done flips during Activate (like DTG.startIteration), pinning the
	// pre- vs post-activation capture split.
	missing := -1
	for i := 0; i < p.nv.Degree(); i++ {
		if !p.heard[int32(p.nv.NeighborID(i))] {
			missing = i
			break
		}
	}
	if missing < 0 {
		p.done = true
		return 0, false
	}
	// Behavior depends on the heard set, which grows from peer metas:
	// a meta delivery divergence changes the activation sequence.
	return missing, true
}

func (p *distMetaProto) OnDeliver(d Delivery) {
	for _, r := range d.PeerMeta {
		p.heard[r] = true
	}
	p.heard[int32(d.Peer)] = true
}

func (p *distMetaProto) NextWake(round int) int {
	if p.done {
		return WakeOnDelivery
	}
	return round + 1
}

func (p *distMetaProto) OnAmnesia() {
	p.heard = map[int32]bool{int32(p.nv.ID()): true}
	p.done = false
}

// timerProto is a one-shot timer: silent until round at, then it fires —
// initiating one exchange, or (quiet) only flipping its DoneReporter flag
// inside Activate. Its two shapes differ in how the pending timer holds
// the run open: sleeperTimer declares the fire round as a future wake
// (the SleeperWake aggregate), waiterTimer is woken every round and
// reports Waiting until it fired.
type timerProto struct {
	nv    *NodeView
	at    int
	quiet bool
	fired bool
}

func (p *timerProto) Activate(round int) (int, bool) {
	if p.fired || round < p.at {
		return 0, false
	}
	p.fired = true
	return p.at % p.nv.Degree(), !p.quiet
}
func (p *timerProto) OnDeliver(Delivery) {}
func (p *timerProto) Done() bool         { return p.fired }

type sleeperTimer struct{ timerProto }

func (p *sleeperTimer) NextWake(int) int {
	if p.fired {
		return WakeOnDelivery
	}
	return p.at
}

type waiterTimer struct{ timerProto }

func (p *waiterTimer) Waiting() bool { return !p.fired }

// timerFactory staggers the timers over rounds 3..13 and makes node 0 the
// last one, firing quietly at round 40 with nothing else in flight: the
// run must stay open until then on node 0's timer alone, then terminate
// idle in that very round, complete only when stop sees the done flag
// node 0 flipped in Activate (the post-activation capture).
func timerFactory(sleeper bool) Factory {
	return func(nv *NodeView) Protocol {
		tp := timerProto{nv: nv, at: 3 + nv.ID()%11}
		if nv.ID() == 0 {
			tp.at, tp.quiet = 40, true
		}
		if sleeper {
			return &sleeperTimer{tp}
		}
		return &waiterTimer{tp}
	}
}

// leaderProto gossips at random and elects the highest id it has heard
// of, deciding once that has not changed for three of its activations.
// The decision state moves inside Activate, so StopLeaderStable must read
// the pre-activation capture to stop where the serial engine does.
type leaderProto struct {
	nv             *NodeView
	leader, stable int
}

func (p *leaderProto) Activate(int) (int, bool) {
	top := p.nv.N() - 1
	for !p.nv.Knows(top) {
		top--
	}
	if top != p.leader {
		p.leader, p.stable = top, 0
	}
	p.stable++
	return p.nv.RNG().IntN(p.nv.Degree()), true
}
func (p *leaderProto) OnDeliver(Delivery)  {}
func (p *leaderProto) Leader() (int, bool) { return p.leader, p.stable > 3 }

// distRow is one configuration of the execution-mode identity tables;
// rounds, when set, is the round the serial run must end at.
type distRow struct {
	name    string
	cfg     Config
	factory Factory
	stop    StopFunc
	shards  []int
	rounds  int
}

// checkModes runs row serially, worker-sharded and distributed at every
// shard count, requires one fingerprint — counters, informed times, every
// node's gain journal — from all three execution modes, and returns the
// serial result; each distributed run's stats go to perShards.
func (row distRow) checkModes(t *testing.T, perShards func(shards int, stats []DistStats)) Result {
	t.Helper()
	serial, err := Run(row.cfg, row.factory, row.stop)
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(serial)
	sharded := row.cfg
	sharded.Workers = 3
	res, err := Run(sharded, row.factory, row.stop)
	if err != nil {
		t.Fatalf("workers=3: %v", err)
	}
	if got := fingerprint(res); !reflect.DeepEqual(got, want) {
		t.Fatalf("workers=3 diverged from serial:\n got %+v\nwant %+v", got, want)
	}
	for _, shards := range row.shards {
		res, stats, err := RunDistLocal(row.cfg, shards, row.factory, row.stop)
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		// The assembled World is shard 0's replica: journals are
		// synchronized every round, so the fingerprint matches in full.
		if got := fingerprint(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverged from serial:\n got %+v\nwant %+v", shards, got, want)
		}
		perShards(shards, stats)
	}
	return serial
}

// TestDistMatchesSerial is the execution-mode bit-identity gate at the
// engine level: a worker-sharded Run and RunDistLocal at every shard
// count (more shards than nodes included) must reproduce the serial Run
// fingerprint across seeding modes, fail-stop crashes, the full adversity
// surface (loss draws, amnesic churn, link flaps, crash batches), timers
// that hold a silent run open, and a leader-quantified stop.
func TestDistMatchesSerial(t *testing.T) {
	const n = 37
	g := denseTestGraph(n)
	twoCrashes := adversity.MustParseSpec("crash=4:5;crash=9:11")
	full := adversity.MustParseSpec("loss=0.15;churn=2:6-14:amnesia;flap=0-1:3-8;crash=9:5")
	random := func(nv *NodeView) Protocol { return &randomProto{nv: nv} }
	rows := []distRow{
		{name: "plain", cfg: Config{CSR: g.CSR(), Seed: 42, Mode: OneToAll, Source: 0, MaxRounds: 1 << 12},
			factory: random, stop: StopAllInformed(0)},
		{name: "alltoall", cfg: Config{CSR: g.CSR(), Seed: 7, Mode: AllToAll, MaxRounds: 1 << 12},
			factory: random, stop: StopAllHaveAll()},
		{name: "crashes", cfg: Config{CSR: g.CSR(), Seed: 11, Mode: OneToAll, Source: 1, MaxRounds: 1 << 12, Adversity: twoCrashes},
			factory: random, stop: StopAllSurvivorsInformed(1, twoCrashes)},
		{name: "adversity", cfg: Config{CSR: g.CSR(), Seed: 3, Mode: OneToAll, Source: 2, MaxRounds: 1 << 12, Adversity: full},
			factory: random, stop: StopAllSurvivorsInformed(2, full), shards: []int{2, 3, 5, n + 4}},
		{name: "sleeper-timer", cfg: Config{CSR: g.CSR(), Seed: 5, Mode: AllToAll, MaxRounds: 1 << 12},
			factory: timerFactory(true), stop: StopAllDone(), rounds: 40},
		{name: "waiter-timer", cfg: Config{CSR: g.CSR(), Seed: 5, Mode: AllToAll, MaxRounds: 1 << 12},
			factory: timerFactory(false), stop: StopAllDone(), rounds: 40},
		{name: "leader", cfg: Config{CSR: g.CSR(), Seed: 13, Mode: AllToAll, MaxRounds: 1 << 12, Adversity: twoCrashes},
			factory: func(nv *NodeView) Protocol { return &leaderProto{nv: nv, leader: -1} }, stop: StopLeaderStable(twoCrashes)},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			if row.shards == nil {
				row.shards = []int{2, 3, 5}
			}
			serial := row.checkModes(t, func(shards int, stats []DistStats) {
				var rounds int64
				for i := range stats {
					rounds += stats[i].Rounds
				}
				if rounds == 0 {
					t.Fatalf("shards=%d: no rounds recorded in stats", shards)
				}
			})
			if !serial.Completed {
				t.Fatalf("serial run did not complete: %+v", serial)
			}
			if row.rounds != 0 && serial.Rounds != row.rounds {
				t.Fatalf("serial run ended at round %d, want %d", serial.Rounds, row.rounds)
			}
		})
	}
}

// TestDistMetaProtocols covers the meta sub-barrier: protocols whose
// behavior depends on peer metadata (the DTG/superstep shape) must be
// bit-identical distributed, including under amnesic churn, and the
// StopAllDone path must agree with the serial facet scan.
func TestDistMetaProtocols(t *testing.T) {
	g := denseTestGraph(29)
	factory := func(nv *NodeView) Protocol { return newDistMetaProto(nv) }
	rows := []distRow{
		{name: "benign", cfg: Config{CSR: g.CSR(), Seed: 17, Mode: AllToAll, MaxRounds: 1 << 12, KnownLatencies: true}},
		{name: "churny", cfg: Config{CSR: g.CSR(), Seed: 23, Mode: AllToAll, MaxRounds: 1 << 12, KnownLatencies: true,
			Adversity: adversity.MustParseSpec("churn=3:2-9:amnesia;flap=1-2:3-7")}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			row.factory, row.stop, row.shards = factory, StopAllDone(), []int{2, 4}
			serial := row.checkModes(t, func(shards int, stats []DistStats) {
				var cross int64
				for i := range stats {
					cross += stats[i].CrossIntents
				}
				if cross == 0 {
					t.Fatalf("shards=%d: no cross-shard intents — the meta barrier was never exercised", shards)
				}
			})
			if !serial.Completed {
				t.Fatalf("serial meta run did not complete: %+v", serial)
			}
		})
	}
}

// TestDistRejectsUnsupported pins the distributed gating: configurations
// whose serial semantics cannot be replicated shard-locally are refused
// up front, not silently diverged from.
func TestDistRejectsUnsupported(t *testing.T) {
	g := denseTestGraph(8)
	factory := func(nv *NodeView) Protocol { return &randomProto{nv: nv} }
	cases := []struct {
		name string
		cfg  Config
		dc   DistConfig
		want string
	}{
		{"one-shard", Config{CSR: g.CSR()}, DistConfig{Shard: 0, Shards: 1, Exchanger: NewLocalExchange(1)}, "at least 2 shards"},
		{"bad-shard", Config{CSR: g.CSR()}, DistConfig{Shard: 2, Shards: 2, Exchanger: NewLocalExchange(2)}, "out of range"},
		{"no-exchanger", Config{CSR: g.CSR()}, DistConfig{Shard: 0, Shards: 2}, "exchanger"},
		{"bounded-in", Config{CSR: g.CSR(), MaxInPerRound: 2}, DistConfig{Shard: 0, Shards: 2, Exchanger: NewLocalExchange(2)}, "bounded in-degree"},
		{"jitter", Config{CSR: g.CSR(), LatencyJitter: 0.2}, DistConfig{Shard: 0, Shards: 2, Exchanger: NewLocalExchange(2)}, "latency jitter"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RunDist(tc.cfg, tc.dc, factory, StopNever())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// badIdxProto returns an invalid neighbor index at round 3 on one node.
type badIdxProto struct {
	nv  *NodeView
	bad bool
}

func (p *badIdxProto) Activate(round int) (int, bool) {
	if p.bad && round >= 3 {
		return 99, true
	}
	return p.nv.RNG().IntN(p.nv.Degree()), true
}
func (p *badIdxProto) OnDeliver(Delivery) {}

// TestDistErrorPropagates: an activation error on one shard must abort
// every worker with that error (shipped through the frame, applied after
// the barrier), matching the serial engine's error.
func TestDistErrorPropagates(t *testing.T) {
	g := denseTestGraph(16)
	factory := func(nv *NodeView) Protocol {
		return &badIdxProto{nv: nv, bad: nv.ID() == 12} // owned by the last shard
	}
	cfg := Config{CSR: g.CSR(), Seed: 1, Mode: OneToAll, Source: 0, MaxRounds: 64}
	_, serialErr := Run(cfg, factory, StopAllInformed(0))
	if serialErr == nil {
		t.Fatal("serial run did not error")
	}
	_, _, err := RunDistLocal(cfg, 3, factory, StopAllInformed(0))
	if err == nil || !strings.Contains(err.Error(), "invalid neighbor index") {
		t.Fatalf("distributed error %v, want activation error like serial %v", err, serialErr)
	}
}

// TestDistManyShards: more shards than convenient divisors (including
// empty tail shards when shards > n) still assemble the serial result.
func TestDistManyShards(t *testing.T) {
	g := graph.New(5)
	for u := 0; u < 4; u++ {
		g.MustAddEdge(u, u+1, 1+u%2)
	}
	cfg := Config{CSR: g.CSR(), Seed: 4, Mode: OneToAll, Source: 0, MaxRounds: 1 << 10}
	factory := func(nv *NodeView) Protocol { return &randomProto{nv: nv} }
	serial, err := Run(cfg, factory, StopAllInformed(0))
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(serial)
	for _, shards := range []int{2, 5, 7} {
		res, _, err := RunDistLocal(cfg, shards, factory, StopAllInformed(0))
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if got := fingerprint(res); !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d diverged from serial", shards)
		}
	}
}
