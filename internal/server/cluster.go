package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"gossip/internal/adversity"
	"gossip/internal/cluster"
	"gossip/internal/gossip"
	"gossip/internal/server/api"
	"gossip/internal/sim"
)

// ForwardedHeader marks a fleet-forwarded request (see api.ForwardedHeader).
const ForwardedHeader = api.ForwardedHeader

// shardWorkers is the ordered worker pool for coordinated jobs: every
// fleet peer except this process, in sorted address order, so any
// coordinator assigns shard i to the same worker for the same fleet.
func (s *Server) shardWorkers() []string {
	if s.ring == nil {
		return nil
	}
	out := make([]string, 0, len(s.ring.Peers()))
	for _, p := range s.ring.Peers() {
		if p != s.cfg.Advertise {
			out = append(out, p)
		}
	}
	return out
}

// coordinate runs one sharded job as its coordinator: dial a shard
// session per worker, relay barrier frames, assemble the aggregate.
// The workers rebuild graph and engine state deterministically from the
// canonical request — only barrier frames cross the network — and the
// relay's shard-ordered bundles give every worker the identical merge
// the in-process engine performs, so the assembled result is
// bit-identical to a single-process run of the same canonical request.
//
// Every error out of here is transient from the cache's point of view
// (a peer died, a dial failed, replicas diverged): the caller streams it
// but must never memoize it, exactly like a timeout.
func (s *Server) coordinate(jb *job) (gossip.DriverResult, error) {
	workers := s.shardWorkers()
	if len(workers) < jb.shards {
		return gossip.DriverResult{}, fmt.Errorf("fleet has %d workers, job wants %d shards", len(workers), jb.shards)
	}
	canJSON, err := json.Marshal(jb.can)
	if err != nil {
		return gossip.DriverResult{}, err
	}
	s.met.shardJobs.Add(1)
	// The relay needs its own timeout: the leader's timer only abandons
	// the stream, while cancelling this context tears the worker
	// sessions down so their compute actually stops.
	ctx, cancel := context.WithTimeout(context.Background(), jb.timeout+5*time.Second)
	defer cancel()
	conns := make([]*cluster.WorkerConn, 0, jb.shards)
	defer func() {
		for _, wc := range conns {
			wc.Close()
		}
	}()
	for i := 0; i < jb.shards; i++ {
		wc, err := cluster.DialShard(ctx, workers[i], api.ShardJob{
			SchemaVersion: api.SchemaVersion,
			Shard:         i,
			Shards:        jb.shards,
			RequestKey:    jb.key,
			TimeoutMS:     int(jb.timeout / time.Millisecond),
			Request:       canJSON,
		})
		if err != nil {
			s.met.shardFailures.Add(1)
			return gossip.DriverResult{}, err
		}
		conns = append(conns, wc)
	}
	agg, _, err := cluster.Relay(ctx, conns)
	if err != nil {
		s.met.shardFailures.Add(1)
		return gossip.DriverResult{}, err
	}
	return gossip.DriverResult{
		Rounds:       agg.Rounds,
		Completed:    agg.Completed,
		Exchanges:    agg.Exchanges,
		Messages:     agg.Messages,
		Dropped:      agg.Dropped,
		Delivered:    agg.Delivered,
		RumorPayload: agg.RumorPayload,
		InformedAt:   agg.InformedAt,
	}, nil
}

// handleShard serves the worker half of the shard RPC. The session
// deliberately bypasses the runner pool: a coordinator already holds an
// execution slot for the whole job, and a fleet of mutual coordinators
// could deadlock if worker shards also queued for slots. Drain rejects
// new sessions before the upgrade, like any other admission.
func (s *Server) handleShard(w http.ResponseWriter, r *http.Request) {
	if !strings.EqualFold(r.Header.Get("Upgrade"), api.ShardProtocol) {
		writeFieldError(w, fieldErrf("upgrade", "shard sessions require Upgrade: %s", api.ShardProtocol))
		return
	}
	if s.Draining() {
		writeUnavailable(w)
		return
	}
	hj, ok := w.(http.Hijacker)
	if !ok {
		http.Error(w, "connection cannot be hijacked", http.StatusInternalServerError)
		return
	}
	conn, brw, err := hj.Hijack()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	defer conn.Close()
	s.met.shardSessions.Add(1)
	fmt.Fprintf(brw, "HTTP/1.1 101 Switching Protocols\r\nUpgrade: %s\r\nConnection: Upgrade\r\n\r\n", api.ShardProtocol)
	if err := brw.Flush(); err != nil {
		return
	}
	// The ceiling for one idle window: no coordinator may make this
	// worker wait longer than its own timeout policy allows. ServeShard
	// tightens the window to the job's carried timeout once it arrives,
	// and refreshes it at every barrier — an absolute session deadline
	// here used to kill healthy long runs mid-barrier.
	maxIdle := s.cfg.MaxTimeout + 30*time.Second
	// The job runs under the leader's guard, so a panic in it ends the
	// session with an error frame the coordinator reports, not a torn
	// connection.
	run := func(sj api.ShardJob, ex sim.Exchanger) (*api.ShardResult, error) {
		return guard(func() (*api.ShardResult, error) { return s.runShardJob(sj, ex) })
	}
	if err := cluster.ServeShard(conn, brw, maxIdle, run); err != nil {
		s.met.shardFailures.Add(1)
	}
}

// runShardJob executes one worker shard: reconstruct the job from the
// coordinator's canonical request, take its graph from this process's
// topology memo, run the shard-restricted engine against the
// connection's barrier exchanger.
func (s *Server) runShardJob(sj api.ShardJob, ex sim.Exchanger) (*api.ShardResult, error) {
	var can canonical
	if err := json.Unmarshal(sj.Request, &can); err != nil {
		return nil, fmt.Errorf("decoding canonical request: %w", err)
	}
	if key := hashKey(can); key != sj.RequestKey {
		// Same bytes, different key: the fleet is running mixed wire
		// schemas. Refusing here is what keeps "bit-identical" honest.
		return nil, fmt.Errorf("request key mismatch (%s here vs %s at coordinator) — mixed gossipd versions in fleet?", key, sj.RequestKey)
	}
	jb := &job{can: can}
	if can.FaultSpec != "" {
		spec, err := adversity.ParseSpec(can.FaultSpec)
		if err != nil {
			return nil, fmt.Errorf("parsing fault spec: %w", err)
		}
		jb.spec = spec
	}
	csr, err := s.topology(can)
	if err != nil {
		return nil, fmt.Errorf("building graph: %w", err)
	}
	opts := jb.driverOptions()
	opts.CSR = csr
	cfg, factory, stop, err := gossip.PrepareDist(can.Driver, nil, opts)
	if err != nil {
		return nil, err
	}
	var stats sim.DistStats
	res, err := sim.RunDist(cfg, sim.DistConfig{Shard: sj.Shard, Shards: sj.Shards, Exchanger: ex, Stats: &stats}, factory, stop)
	if err != nil {
		return nil, err
	}
	out := &api.ShardResult{
		Rounds:       res.Rounds,
		Completed:    res.Completed,
		Exchanges:    res.Exchanges,
		Messages:     res.Messages,
		Dropped:      res.Dropped,
		Delivered:    res.Delivered,
		RumorPayload: res.RumorPayload,
		Hash:         api.InformedHash(res.Rounds, res.Completed, res.InformedAt),
		Stats:        stats,
	}
	if sj.Shard == 0 {
		// One copy of the O(n) array crosses the wire; the other shards
		// prove their replica matches through Hash.
		out.InformedAt = res.InformedAt
	}
	return out, nil
}

// forwardToOwner proxies the request to the cache key's ring owner and
// streams the response through. Returns false when the peer could not
// be reached (before any response byte was committed) so the caller
// falls back to serving locally — a dead peer degrades the fleet to
// per-node caching, it never fails requests.
func (s *Server) forwardToOwner(ctx context.Context, w http.ResponseWriter, owner string, req Request) bool {
	body, err := json.Marshal(req)
	if err != nil {
		return false
	}
	host := strings.TrimSuffix(strings.TrimPrefix(strings.TrimPrefix(owner, "http://"), "https://"), "/")
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+host+"/v1/simulations", bytes.NewReader(body))
	if err != nil {
		return false
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(api.ForwardedHeader, s.cfg.Advertise)
	resp, err := s.fleet.Do(hreq)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if v := resp.Header.Get(CacheHeader); v != "" {
		w.Header().Set(CacheHeader, v)
	}
	if v := resp.Header.Get("Content-Type"); v != "" {
		w.Header().Set("Content-Type", v)
	}
	w.WriteHeader(resp.StatusCode)
	buf := make([]byte, 32<<10)
	rc := http.NewResponseController(w)
	for {
		n, rerr := resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return true // committed; the client went away
			}
			_ = rc.Flush()
		}
		if rerr != nil {
			return true
		}
	}
}

// fleetTransport tunes the intra-fleet HTTP client the same way the
// load generator tunes its client: keep-alives with enough idle
// connections per peer that forwarding measures the peer, not TCP
// setup.
func fleetTransport() *http.Transport {
	return &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 16,
		IdleConnTimeout:     90 * time.Second,
	}
}
