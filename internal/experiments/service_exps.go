package experiments

import (
	"context"
	"fmt"

	"gossip/internal/loadgen"
	"gossip/internal/runner"
	"gossip/internal/server"
)

// expE26Service exercises the gossipd service layer at experiment scale:
// each trial boots an in-process server per pool size, drives the
// closed-loop load generator's fixed mix through real HTTP, and then
// replays the mix against a single-slot reference server, asserting
// every response body byte-identical. The table reports only
// deterministic counters (requests, distinct jobs, cache hits, rounds);
// wall-clock throughput belongs to BenchmarkServerThroughput, where the
// regression gate can see it.
var expE26Service = Experiment{
	ID:     "E26",
	Title:  "gossipd service throughput scaling (closed-loop load, fixed mix)",
	Source: "engineering extension (serving the Theorem 29 workloads)",
	Claim:  "the service layer preserves engine determinism: identical jobs are byte-identical across pool sizes, memoized with exactly one execution per distinct request",
	Run:    runE26,
}

func runE26(ctx context.Context, cfg Config) (*Table, error) {
	pools := []int{1, 2, 4}
	clients := 6
	if cfg.Quick {
		pools = []int{1, 4}
		clients = 4
	}
	names := cellNames(len(pools), func(i int) string {
		return fmt.Sprintf("gossipd(pool=%d)", pools[i])
	})
	cells, err := runGrid(ctx, cfg, "E26", names, cfg.Trials,
		func(ctx context.Context, c runner.Coord, seed uint64) (runner.Sample, error) {
			pool := pools[c.CellIndex]
			rep, reexec, err := driveServer(ctx, pool, clients, seed)
			if err != nil {
				return runner.Sample{}, err
			}
			// Reference run: one execution slot, sequential clients. The
			// service determinism contract says its bodies must match the
			// loaded server's bit for bit, key by key.
			ref, refReexec, err := driveServer(ctx, 1, 1, seed)
			if err != nil {
				return runner.Sample{}, err
			}
			agree := 1.0
			for key, body := range rep.Bodies {
				other, ok := ref.Bodies[key]
				if !ok || string(other) != string(body) {
					agree = 0
				}
			}
			// Memoization as the servers count it: no key executed twice.
			// Client misses can undercount executions, never overcount
			// them: a mix job the estimate evaluated as a candidate first
			// is served as a hit that no client saw miss.
			if reexec+refReexec != 0 || rep.CacheMisses > rep.DistinctKeys {
				return runner.Sample{}, fmt.Errorf(
					"pool=%d seed=%d: %d keys re-executed, %d misses for %d distinct jobs (memoization broke)",
					pool, seed, reexec+refReexec, rep.CacheMisses, rep.DistinctKeys)
			}
			return runner.V(map[string]float64{
				"requests": float64(rep.Requests),
				"distinct": float64(rep.DistinctKeys),
				"hits":     float64(rep.CacheHits),
				"rounds":   float64(rep.RoundsSimulated),
				"agree":    agree,
			}), nil
		})
	if err != nil {
		return nil, err
	}
	tbl := &Table{Headers: []string{
		"server", "requests", "distinct jobs", "cache hits", "rounds simulated", "pools agree",
	}}
	for i, name := range names {
		cell := &cells[i]
		tbl.AddRow(name, cell.Mean("requests"), cell.Mean("distinct"),
			cell.Mean("hits"), cell.Mean("rounds"), cell.Min("agree") == 1)
	}
	tbl.AddNote("every trial replays its mix against a pool=1 reference server and byte-compares all bodies")
	tbl.AddNote("no server re-executed a key and client misses never exceeded distinct jobs in any trial: concurrent identical requests coalesce onto one execution")
	return tbl, nil
}

// driveServer boots an in-process gossipd with the given pool size,
// runs the load generator's fixed mix against it over real HTTP, and
// returns the report with the server's count of re-executed keys.
func driveServer(ctx context.Context, pool, clients int, seed uint64) (*loadgen.Report, int64, error) {
	l, err := loadgen.StartLocal(server.Config{Pool: pool, CacheSize: 256})
	if err != nil {
		return nil, 0, err
	}
	defer l.Close()
	rep, err := loadgen.Run(ctx, loadgen.Options{
		BaseURL:  l.URL,
		Clients:  clients,
		Requests: 3,
		BaseSeed: seed,
	})
	if err != nil {
		return nil, 0, err
	}
	if err := rep.Err(); err != nil {
		return nil, 0, fmt.Errorf("pool=%d: %w", pool, err)
	}
	return rep, l.Server.Metrics().Reexecutions, nil
}
