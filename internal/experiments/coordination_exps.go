package experiments

import (
	"context"
	"fmt"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/sim"
	"gossip/internal/stats"
)

// expE30Election measures leader election on the gossip engine across
// failure regimes: benign, the leader crashing mid-election, the leader
// churning out and rejoining amnesic, and sustained message loss. In
// every regime the run must stabilize on the highest surviving ID (after
// a rejoin, on the rejoined maximum again), and every trial re-runs
// 8-way sharded and must match the serial run exactly — the coordination
// layer rides the same determinism contract as dissemination.
var expE30Election = Experiment{
	ID:     "E30",
	Title:  "leader election under churn (4-regular random graph)",
	Source: "engineering extension: coordination protocols on the calendar engine",
	Claim:  "election stabilizes on the highest surviving ID in every regime; re-election after a leader crash costs roughly the suspicion window on top of benign stabilization",
	Run:    runE30,
}

func runE30(ctx context.Context, cfg Config) (*Table, error) {
	n := 48
	if cfg.Quick {
		n = 24
	}
	// Tight-but-safe timers keep stabilization times comparable across
	// regimes (the graph-derived defaults are deliberately looser).
	suspectAfter, stableRounds := 96, 16
	type regime struct {
		name  string
		build func() *adversity.Spec
		// want is the leader every survivor must decide on.
		want int
	}
	regimes := []regime{
		{"benign", func() *adversity.Spec { return nil }, n - 1},
		{"leader crash", func() *adversity.Spec {
			return &adversity.Spec{Crashes: []adversity.Crash{{Round: 20, Nodes: []graph.NodeID{n - 1}}}}
		}, n - 2},
		{"leader churn+amnesia", func() *adversity.Spec {
			return &adversity.Spec{Churn: []adversity.Churn{{Node: n - 1, Leave: 10, Rejoin: 150, Amnesia: true}}}
		}, n - 1},
		{"loss=15%", func() *adversity.Spec {
			return &adversity.Spec{Loss: 0.15}
		}, n - 1},
	}
	names := cellNames(len(regimes), func(i int) string { return regimes[i].name })
	cells, err := runGrid(ctx, cfg, "E30", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			rg := regimes[c.CellIndex]
			g, err := graphgen.RandomRegular(n, 4, 1, graphgen.NewRand(seed))
			if err != nil {
				return runner.Sample{}, err
			}
			spec := rg.build()
			serial, err := dispatchSharded("election", g.CSR(), gossip.DriverOptions{
				Seed: seed, MaxRounds: 1 << 14,
				SuspectAfter: suspectAfter, StableRounds: stableRounds,
				ExecOptions: gossip.ExecOptions{Adversity: spec},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			if !serial.Completed {
				return runner.Sample{}, fmt.Errorf("%s: election never stabilized (seed=%d)", rg.name, seed)
			}
			correct := true
			for u, p := range serial.Sim.World.Protos {
				if spec.NeverReturns(u) {
					continue
				}
				l, decided := p.(sim.LeaderReporter).Leader()
				if !decided || l != rg.want {
					correct = false
				}
			}
			return runner.V(map[string]float64{
				"rounds":  float64(serial.Rounds),
				"correct": b2f(correct),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"regime", "mean rounds", "p90", "always correct leader"}}
	for i, name := range names {
		sum := stats.Summarize(cells[i].Values("rounds"))
		tbl.AddRow(name, sum.Mean, sum.P90, cells[i].Min("correct") == 1)
	}
	tbl.AddNote("timers: suspect_after=%d, stable_rounds=%d; \"correct\" means every survivor decided on the expected maximum surviving ID", suspectAfter, stableRounds)
	tbl.AddNote("every trial re-ran with Workers=8 under the same fault schedule and matched the serial run exactly")
	return tbl, nil
}

// expE31Echo measures the echo/convergecast wave under message loss.
// Echo keeps no retransmission state: a lost exchange is repaired only
// if later traffic re-arms the sweep, so the wave's completion
// probability decays as loss grows while completed waves stay correct
// (the root heard every survivor). Every trial re-runs 8-way sharded
// and must match the serial run exactly.
var expE31Echo = Experiment{
	ID:     "E31",
	Title:  "echo wave vs message loss (4-regular random graph)",
	Source: "engineering extension: coordination protocols on the calendar engine",
	Claim:  "without retransmission state the wave's completion probability decays with loss, but completed waves are always full: the root heard every node",
	Run:    runE31,
}

func runE31(ctx context.Context, cfg Config) (*Table, error) {
	n := 64
	if cfg.Quick {
		n = 32
	}
	losses := []float64{0, 0.05, 0.1, 0.2, 0.3}
	names := cellNames(len(losses), func(i int) string {
		return fmt.Sprintf("loss=%.0f%%", losses[i]*100)
	})
	cells, err := runGrid(ctx, cfg, "E31", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			g, err := graphgen.RandomRegular(n, 4, 1, graphgen.NewRand(seed))
			if err != nil {
				return runner.Sample{}, err
			}
			var spec *adversity.Spec
			if p := losses[c.CellIndex]; p > 0 {
				spec = &adversity.Spec{Loss: p}
			}
			serial, err := dispatchSharded("echo", g.CSR(), gossip.DriverOptions{
				Source: 0, Seed: seed, MaxRounds: 1 << 12, ExecOptions: gossip.ExecOptions{Adversity: spec},
			})
			if err != nil {
				return runner.Sample{}, err
			}
			root := serial.Sim.World.Views[0]
			acked := 0
			for u := 0; u < n; u++ {
				if root.Knows(graph.NodeID(u)) {
					acked++
				}
			}
			if serial.Completed && acked != n {
				return runner.Sample{}, fmt.Errorf(
					"completed wave with %d/%d acks at the root (seed=%d)", acked, n, seed)
			}
			return runner.V(map[string]float64{
				"rounds":  float64(serial.Rounds),
				"ok":      b2f(serial.Completed),
				"ackfrac": float64(acked) / float64(n),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"loss", "completion frac", "mean ack frac", "mean rounds"}}
	for i, name := range names {
		tbl.AddRow(name, cells[i].Mean("ok"), cells[i].Mean("ackfrac"), stats.Summarize(cells[i].Values("rounds")).Mean)
	}
	tbl.AddNote("a trial that quiesces incomplete still reports its partial ack fraction; completed trials are checked to be full before aggregation")
	tbl.AddNote("every trial re-ran with Workers=8 under the same loss schedule and matched the serial run exactly")
	return tbl, nil
}
