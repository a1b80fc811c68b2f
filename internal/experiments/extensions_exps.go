package experiments

import (
	"context"
	"fmt"
	"math"

	"gossip/internal/adversity"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/stats"
)

// expE14Robustness tests the Section 6 qualitative claim: "exchanging
// messages with the help of the spanner does not have good robustness
// properties whereas push-pull is inherently quite robust". A fraction
// of nodes is failed from the start; push-pull routes around them while
// the DTG-based spanner pipeline stalls waiting on dead peers.
var expE14Robustness = Experiment{
	ID:     "E14",
	Title:  "robustness under fail-stop crashes",
	Source: "Section 6 (robustness discussion)",
	Claim:  "push-pull is inherently robust; the spanner pipeline is not (Section 6)",
	Run:    runE14,
}

// crashLowIDs is the fault schedule that fail-stops nodes 1..k (never
// node 0, the source) at round; nil when k is 0.
func crashLowIDs(k, round int) *adversity.Spec {
	if k == 0 {
		return nil
	}
	nodes := make([]graph.NodeID, k)
	for i := range nodes {
		nodes[i] = 1 + i
	}
	return &adversity.Spec{Crashes: []adversity.Crash{{Round: round, Nodes: nodes}}}
}

func runE14(ctx context.Context, cfg Config) (*Table, error) {
	n := 32
	if cfg.Quick {
		n = 16
	}
	type topo struct {
		name string
		mk   func() *graph.CSR
	}
	topos := []topo{
		{"clique", func() *graph.CSR { return graphgen.Clique(n, 2).CSR() }},
		{"grid6x6", func() *graph.CSR { return graphgen.Grid(6, 6, 2).CSR() }},
	}
	crashCounts := []int{0, 2, 4}
	// Cells are the (topology, crash count) product.
	var names []string
	for _, tp := range topos {
		for _, crashes := range crashCounts {
			names = append(names, fmt.Sprintf("%s crashed=%d", tp.name, crashes))
		}
	}
	cellCase := func(idx int) (topo, int) {
		return topos[idx/len(crashCounts)], crashCounts[idx%len(crashCounts)]
	}
	cells, err := runGrid(ctx, cfg, "E14", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			tp, crashes := cellCase(c.CellIndex)
			// Fail low-ID nodes (never the source) at round 5 — mid-run,
			// while exchanges with them are in flight. On the grid these
			// IDs sit on the top edge, so survivors stay connected.
			exec := gossip.ExecOptions{Adversity: crashLowIDs(crashes, 5), CSR: tp.mk()}
			res, err := gossip.Dispatch("push-pull", nil, gossip.DriverOptions{Seed: seed, MaxRounds: 1 << 18, ExecOptions: exec})
			if err != nil {
				return runner.Sample{}, err
			}
			s := runner.Sample{Values: map[string]float64{
				"pp":    float64(res.Rounds),
				"pp_ok": b2f(res.Completed),
			}}
			// The spanner pipeline run is deterministic per cell; trial 0
			// carries it so the cell has exactly one sample of it.
			if c.Trial == 0 {
				sp, err := gossip.Dispatch("spanner", nil, gossip.DriverOptions{
					KnownLatencies: true,
					Seed:           seed,
					MaxRounds:      8192,
					ExecOptions:    exec,
				})
				if err != nil {
					return runner.Sample{}, err
				}
				s.Values["sp"] = float64(sp.Rounds)
				s.Values["sp_ok"] = b2f(sp.Completed)
			}
			return s, nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"graph", "crashed@5", "push-pull", "pp Δ%", "spanner", "sp Δ%", "complete",
	}}
	for i := range cells {
		c := &cells[i]
		tp, crashes := cellCase(i)
		base := &cells[(i/len(crashCounts))*len(crashCounts)] // crashes=0 cell of this topology
		pp, sp := c.Mean("pp"), c.Mean("sp")
		ppBase, spBase := base.Mean("pp"), base.Mean("sp")
		tbl.AddRow(tp.name, crashes, pp, pct(pp, ppBase), sp, pct(sp, spBase),
			fmt.Sprintf("pp=%v sp=%v", c.Min("pp_ok") == 1, c.Min("sp_ok") == 1))
	}
	tbl.AddNote("push-pull is insensitive to mid-run crashes; the pipeline degrades — DTG has no timeout, so every node whose in-flight partner died stalls for the rest of its phase, and only the non-blocking RR pass (plus spanner redundancy) rescues completion")
	return tbl, nil
}

// pct returns the percent change of v over base.
func pct(v, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (v - base) / base * 100
}

// expE15Messages measures push-pull message complexity on the clique —
// the Karp et al. setting the paper's prior-work section discusses.
// Plain push-pull stopped at completion sends Θ(n log n) messages.
var expE15Messages = Experiment{
	ID:     "E15",
	Title:  "push-pull message complexity on the clique",
	Source: "prior work: Karp et al. [24] (Section 1)",
	Claim:  "plain push-pull uses Θ(n log n) messages on K_n (Karp et al. discussion)",
	Run:    runE15,
}

func runE15(ctx context.Context, cfg Config) (*Table, error) {
	ns := []int{32, 64, 128, 256}
	if cfg.Quick {
		ns = []int{32, 64}
	}
	names := cellNames(len(ns), func(i int) string { return fmt.Sprintf("clique(%d)", ns[i]) })
	cells, err := runGrid(ctx, cfg, "E15", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			res, err := dispatch("push-pull", graphgen.Clique(ns[c.CellIndex], 1).CSR(), gossip.DriverOptions{Seed: seed, MaxRounds: 1 << 18})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"rounds":   float64(res.Rounds),
				"messages": float64(res.Messages),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"n", "mean rounds", "mean messages", "n·ln n", "messages/(n·ln n)"}}
	var xs, ys []float64
	for i, n := range ns {
		c := &cells[i]
		nln := float64(n) * math.Log(float64(n))
		mm := c.Mean("messages")
		tbl.AddRow(n, c.Mean("rounds"), mm, nln, mm/nln)
		xs = append(xs, float64(n))
		ys = append(ys, mm)
	}
	if exp, _, r2, err := stats.PowerLawFit(xs, ys); err == nil {
		tbl.AddNote("fitted messages ~ n^%.2f (R²=%.3f); Θ(n log n) predicts slightly above 1", exp, r2)
	}
	tbl.AddNote("Karp et al. reach O(n log log n) with median-counter termination — an optimization this plain protocol deliberately omits")
	return tbl, nil
}

// expE16BoundedIn explores the conclusion's open question: what happens
// when each node accepts only O(1) incoming connections per round (the
// restricted model of Daum et al. [9])?
var expE16BoundedIn = Experiment{
	ID:     "E16",
	Title:  "push-pull under bounded in-degree",
	Source: "Section 7 / Daum et al. [9]",
	Claim:  "capping incoming connections degrades hub topologies first (Daum et al. model)",
	Run:    runE16,
}

func runE16(ctx context.Context, cfg Config) (*Table, error) {
	graphs := []struct {
		name string
		c    *graph.CSR
	}{
		{"clique(32)", graphgen.Clique(32, 1).CSR()},
		{"star(33)", graphgen.Star(33, 1).CSR()},
	}
	caps := []int{0, 4, 1}
	var names []string
	for _, c := range graphs {
		for _, cap := range caps {
			capName := "∞"
			if cap > 0 {
				capName = fmt.Sprintf("%d", cap)
			}
			names = append(names, fmt.Sprintf("%s cap=%s", c.name, capName))
		}
	}
	cells, err := runGrid(ctx, cfg, "E16", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			g := graphs[c.CellIndex/len(caps)].c
			cap := caps[c.CellIndex%len(caps)]
			res, err := dispatch("push-pull", g, gossip.DriverOptions{MaxInPerRound: cap, Seed: seed, MaxRounds: 1 << 18})
			if err != nil {
				return runner.Sample{}, err
			}
			return runner.V(map[string]float64{
				"rounds":  float64(res.Rounds),
				"dropped": float64(res.Dropped),
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{"graph", "cap", "mean rounds", "mean dropped"}}
	for i := range cells {
		c := &cells[i]
		gc := graphs[i/len(caps)]
		cap := caps[i%len(caps)]
		capName := "∞"
		if cap > 0 {
			capName = fmt.Sprintf("%d", cap)
		}
		tbl.AddRow(gc.name, capName, c.Mean("rounds"), c.Mean("dropped"))
	}
	tbl.AddNote("the star collapses from O(1) to Θ(n) rounds at cap 1: every leaf fights for the center's single slot — the congestion Daum et al. formalize")
	return tbl, nil
}
