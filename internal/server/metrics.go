package server

import (
	"fmt"
	"io"
	"sync/atomic"
)

// metrics are the service counters exposed at /metrics in the Prometheus
// text exposition format (hand-rendered; the repo takes no dependencies).
type metrics struct {
	inflight  atomic.Int64 // requests between accept and last byte
	queued    atomic.Int64 // jobs waiting for an execution slot
	running   atomic.Int64 // jobs holding a slot
	completed atomic.Int64
	failed    atomic.Int64 // timeouts and deterministic job errors
	hits      atomic.Int64 // cache + coalesced replays
	misses    atomic.Int64 // executions
	reexecs   atomic.Int64 // executions whose key already had a cached body
	storeHits atomic.Int64 // lookups served by promoting a disk-store body
	sweeps    atomic.Int64 // sweep requests that executed (sweep-level misses)
	estimates atomic.Int64 // estimate requests that executed (estimate-level misses)
	rounds    atomic.Int64 // simulated rounds, summed over completed jobs

	shardJobs     atomic.Int64 // sharded jobs this process coordinated
	shardSessions atomic.Int64 // worker shard sessions this process served
	shardFailures atomic.Int64 // shard sessions or coordinated jobs that failed
	forwarded     atomic.Int64 // requests forwarded to their cache-key owner
	forwardServed atomic.Int64 // forwarded requests this owner served
	forwardFailed atomic.Int64 // forwards that fell back to local execution
}

// Snapshot is a point-in-time copy of the service counters, used by
// tests and the self-check report.
type Snapshot struct {
	InFlight, Queued, Running int64
	Completed, Failed         int64
	CacheHits, CacheMisses    int64
	Reexecutions              int64
	StoreHits                 int64
	SweepsExecuted            int64
	EstimatesExecuted         int64
	RoundsSimulated           int64
	ShardJobs                 int64
	ShardSessions             int64
	ShardFailures             int64
	Forwarded                 int64
	ForwardServed             int64
	ForwardFailed             int64
	CacheEntries              int
	PoolSize                  int
}

// Metrics returns a consistent-enough snapshot (each counter is
// individually atomic).
func (s *Server) Metrics() Snapshot {
	return Snapshot{
		InFlight:          s.met.inflight.Load(),
		Queued:            s.met.queued.Load(),
		Running:           s.met.running.Load(),
		Completed:         s.met.completed.Load(),
		Failed:            s.met.failed.Load(),
		CacheHits:         s.met.hits.Load(),
		CacheMisses:       s.met.misses.Load(),
		Reexecutions:      s.met.reexecs.Load(),
		StoreHits:         s.met.storeHits.Load(),
		SweepsExecuted:    s.met.sweeps.Load(),
		EstimatesExecuted: s.met.estimates.Load(),
		RoundsSimulated:   s.met.rounds.Load(),
		ShardJobs:         s.met.shardJobs.Load(),
		ShardSessions:     s.met.shardSessions.Load(),
		ShardFailures:     s.met.shardFailures.Load(),
		Forwarded:         s.met.forwarded.Load(),
		ForwardServed:     s.met.forwardServed.Load(),
		ForwardFailed:     s.met.forwardFailed.Load(),
		CacheEntries:      s.cache.len(),
		PoolSize:          s.pool.Size(),
	}
}

func (m *metrics) render(w io.Writer, cacheEntries, poolSize int) {
	gauge := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge("gossipd_requests_inflight", "simulation requests currently being served", m.inflight.Load())
	gauge("gossipd_jobs_queued", "jobs waiting for an execution slot", m.queued.Load())
	gauge("gossipd_jobs_running", "jobs holding an execution slot", m.running.Load())
	counter("gossipd_jobs_completed_total", "jobs that produced a result event", m.completed.Load())
	counter("gossipd_jobs_failed_total", "jobs that produced an error event", m.failed.Load())
	counter("gossipd_cache_hits_total", "responses replayed from the request cache or a coalesced flight", m.hits.Load())
	counter("gossipd_cache_misses_total", "responses computed by executing the job", m.misses.Load())
	counter("gossipd_reexecutions_total", "executions whose request key already had a cached body", m.reexecs.Load())
	counter("gossipd_store_hits_total", "lookups served from the disk result store", m.storeHits.Load())
	counter("gossipd_sweeps_executed_total", "sweep requests executed rather than replayed", m.sweeps.Load())
	counter("gossipd_estimates_executed_total", "estimate requests executed rather than replayed", m.estimates.Load())
	counter("gossipd_rounds_simulated_total", "simulated rounds summed over completed jobs", m.rounds.Load())
	counter("gossipd_shard_jobs_total", "sharded jobs coordinated by this process", m.shardJobs.Load())
	counter("gossipd_shard_sessions_total", "worker shard sessions served by this process", m.shardSessions.Load())
	counter("gossipd_shard_failures_total", "failed shard sessions and coordinated jobs", m.shardFailures.Load())
	counter("gossipd_cache_forwarded_total", "requests forwarded to their cache-key owner", m.forwarded.Load())
	counter("gossipd_cache_forward_served_total", "forwarded requests served by this owner", m.forwardServed.Load())
	counter("gossipd_cache_forward_failures_total", "forwards that fell back to local execution", m.forwardFailed.Load())
	gauge("gossipd_cache_entries", "request cache occupancy", int64(cacheEntries))
	gauge("gossipd_pool_slots", "execution pool size", int64(poolSize))
}
