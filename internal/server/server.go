// Package server is gossipd's HTTP service layer: it turns the one-shot
// simulation substrate (driver registry + engine + adversity) into a
// long-running service that accepts parameterized simulation jobs,
// executes them on a bounded worker pool (runner.Pool), streams results
// back as NDJSON, and memoizes completed deterministic jobs in a
// request-keyed LRU cache.
//
// Determinism is the contract: a request's canonical form (driver, graph
// spec, seed, horizon, fault schedule, driver options — not workers, not
// timeout) fully determines the response body, byte for byte, whether
// the job is computed cold, replayed from cache, coalesced onto a
// concurrent identical request, or executed by a server with a different
// pool size. Cache status travels in the X-Gossipd-Cache header, never
// in the body.
//
// Lifecycle: Drain() stops admission (new and queued jobs get 503) while
// jobs already holding an execution slot run to completion — the
// graceful-shutdown half that pairs with http.Server.Shutdown.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/cluster"
	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/runner"
	"gossip/internal/server/api"
	"gossip/internal/transport"
)

// Request bounds no deployment ever tuned: constants, not Config fields.
const (
	maxWorkers   = 64      // per-job intra-round shard count
	maxRoundsCap = 1 << 22 // requested horizon, fork round, progress round
)

// Config tunes one Server. The zero value is production-serviceable.
type Config struct {
	// Pool is the number of jobs executed concurrently (<=0: GOMAXPROCS).
	// Queued jobs wait; they are rejected only by drain or client
	// cancellation, never by queue depth.
	Pool int
	// CacheSize is the completed-job LRU capacity in entries
	// (0: 1024; negative: caching disabled — every request executes).
	CacheSize int
	// StoreDir, when set, adds a persistent tier under the LRU: completed
	// bodies are written through to a content-addressed directory
	// (<dir>/<key[:2]>/<key>.ndjson) and survive restarts; LRU misses
	// fall through to disk and promote. Disabling the cache (negative
	// CacheSize) disables the disk tier too. The directory should exist
	// and be writable; open failures degrade to no persistent tier.
	StoreDir string
	// MaxN caps the graph size (<=0: 1<<17) — checked against the node
	// count the family builds (dumbbell 2n, ring layers·n, grid side²),
	// not just the raw n parameter.
	MaxN int
	// DefaultTimeout bounds job execution when the request does not
	// (<=0: 60s); MaxTimeout clamps what a request may ask for
	// (<=0: 5m). Queue wait is not counted.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// Peers is the full fleet membership (host:port, this process
	// included) and Advertise is this process's own entry. Setting both
	// (with at least 2 peers) enables the fleet features: the
	// consistent-hash partitioned cache (requests are forwarded to their
	// key's owner) and distributed execution (this process can
	// coordinate sharded jobs across the other peers and serve worker
	// shard sessions itself). Every fleet member must be started with
	// the identical Peers list.
	Peers     []string
	Advertise string

	// gate, when set (tests only), is called on the execution goroutine
	// before the job runs — a seam for holding a job mid-flight to
	// exercise drain and timeout behavior deterministically.
	gate func(key string)
}

func (c Config) withDefaults() Config {
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	if c.CacheSize == 0 {
		c.CacheSize = 1024
	}
	if c.MaxN <= 0 {
		c.MaxN = 1 << 17
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = 60 * time.Second
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 5 * time.Minute
	}
	return c
}

// Server is the gossipd service state. Create with New; serve via
// Handler.
type Server struct {
	cfg      Config
	pool     *runner.Pool
	cache    *lruCache[string, []byte]
	store    *diskStore // nil: no persistent tier
	topos    *lruCache[graphgen.Spec, *topoEntry]
	met      metrics
	mu       sync.Mutex
	inflight map[string]*flight

	// ring partitions the request-key space across Peers; nil outside a
	// fleet. fleet is the tuned intra-fleet HTTP client.
	ring  *cluster.Ring
	fleet *http.Client

	drainCtx context.Context
	drain    context.CancelFunc
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:      cfg,
		pool:     runner.NewPool(cfg.Pool),
		cache:    newLRU[string, []byte](cfg.CacheSize, nil),
		topos:    newLRU[graphgen.Spec](topologyBudget, topoCost),
		inflight: make(map[string]*flight),
		drainCtx: ctx,
		drain:    cancel,
	}
	if cfg.StoreDir != "" && cfg.CacheSize >= 0 {
		if st, err := newDiskStore(cfg.StoreDir); err == nil {
			s.store = st
		}
	}
	if len(cfg.Peers) >= 2 && cfg.Advertise != "" {
		if ring, err := cluster.NewRing(cfg.Peers); err == nil {
			s.ring = ring
			s.fleet = &http.Client{Transport: fleetTransport()}
		}
	}
	return s
}

// lookup consults the cache tiers in order — in-memory LRU, then the
// disk store — promoting disk hits into the LRU so hot keys stop
// paying the read.
func (s *Server) lookup(key string) ([]byte, bool) {
	if body, ok := s.cache.get(key); ok {
		return body, true
	}
	if s.store == nil {
		return nil, false
	}
	body, ok := s.store.get(key)
	if ok {
		s.met.storeHits.Add(1)
		s.cache.put(key, body)
	}
	return body, ok
}

// publish records a completed deterministic body in both tiers. A key
// whose body is already cached has just executed a second time, which
// the re-execution counter records.
func (s *Server) publish(key string, body []byte) {
	if s.cache.put(key, body) {
		s.met.reexecs.Add(1)
	}
	if s.store != nil {
		s.store.put(key, body)
	}
}

// Drain stops admission: subsequent and queued jobs get 503 while jobs
// already executing finish and stream their results. Idempotent. Callers
// shutting a process down pair it with http.Server.Shutdown, which waits
// for the in-flight handlers.
func (s *Server) Drain() { s.drain() }

// Draining reports whether Drain was called.
func (s *Server) Draining() bool { return s.drainCtx.Err() != nil }

// Handler returns the routed service: POST /v1/simulations,
// POST /v1/sweeps, POST /v1/estimates, GET /v1/drivers, GET /healthz,
// GET /metrics.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/simulations", jobHandler(s, "request", s.validate, s.serveSimulation))
	mux.HandleFunc("POST /v1/sweeps", jobHandler(s, "sweep request", s.validateSweep, s.serveSweep))
	mux.HandleFunc("POST /v1/estimates", jobHandler(s, "estimate request", s.validateEstimate, s.serveEstimate))
	mux.HandleFunc("POST "+api.ShardPath, s.handleShard)
	mux.HandleFunc("GET /v1/drivers", s.handleDrivers)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	return mux
}

// maxJoinAttempts bounds how often a follower whose leaders keep failing
// nondeterministically (timeouts) re-joins before executing uncoalesced.
const maxJoinAttempts = 4

// jobHandler is the prologue every /v1 job endpoint shares: count the
// request in flight, decode it (1 MiB body cap, strict field matching)
// and validate it — a failure of either is the structured 400 — then
// serve the job under the context that governs this request's waiting
// (queue slot, coalesced flight), which dies with the client connection
// or with drain. Job execution deliberately runs on its own context (see
// lead).
func jobHandler[Req, Job any](s *Server, noun string, validate func(Req) (Job, *FieldError),
	serve func(http.ResponseWriter, *http.Request, context.Context, Req, Job)) http.HandlerFunc {

	return func(w http.ResponseWriter, r *http.Request) {
		s.met.inflight.Add(1)
		defer s.met.inflight.Add(-1)

		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
		dec.DisallowUnknownFields()
		var req Req
		if err := dec.Decode(&req); err != nil {
			writeFieldError(w, fieldErrf("body", "decoding %s: %v", noun, err))
			return
		}
		jb, ferr := validate(req)
		if ferr != nil {
			writeFieldError(w, ferr)
			return
		}

		ctx, cancel := context.WithCancel(r.Context())
		defer cancel()
		stop := context.AfterFunc(s.drainCtx, cancel)
		defer stop()
		serve(w, r, ctx, req, jb)
	}
}

func (s *Server) serveSimulation(w http.ResponseWriter, r *http.Request, ctx context.Context, req Request, jb *job) {
	st := stream{accepted: accepted(jb.can.Driver, jb.key), timeout: jb.timeout, noun: "job", points: jb.points, chunks: 1, job: jb}

	// A real-transport job is nondeterministic: it must not replay a
	// memoized calendar body for the same canonical request, must not
	// coalesce with (or lead a flight for) deterministic requests, and
	// its own outcome is never memoized (its one chunk is nondet). It
	// bypasses the cache machinery — lookup, fleet routing, flights —
	// and executes uncoalesced.
	if jb.transport != "" {
		s.lead(w, ctx, st, nil)
		return
	}

	// Fleet cache routing: the key's ring owner holds the fleet's one
	// authoritative cache slot for this request, so a non-owner forwards
	// after missing locally — unless the request was already forwarded
	// once (the owner serves, never re-forwards: the loop guard) or the
	// owner is unreachable (degrade to local execution, never fail).
	if s.ring != nil && !s.cache.disabled() {
		if r.Header.Get(ForwardedHeader) != "" {
			s.met.forwardServed.Add(1)
		} else if owner := s.ring.Owner(jb.key); owner != s.cfg.Advertise {
			if body, ok := s.lookup(jb.key); ok {
				s.replay(w, st, body)
				return
			}
			if s.forwardToOwner(ctx, w, owner, req) {
				s.met.forwarded.Add(1)
				return
			}
			s.met.forwardFailed.Add(1)
		}
	}

	s.serveJob(w, ctx, st)
}

// serveJob is the cache/coalesce/leader loop every /v1 job endpoint
// shares: replay a memoized body (sampled for this request), join a
// concurrent identical request's flight, or become the leader and
// execute via lead, which writes its own stream and publishes the
// full-resolution body itself.
func (s *Server) serveJob(w http.ResponseWriter, ctx context.Context, st stream) {
	body, f, err := s.settle(ctx, st.accepted.RequestKey)
	switch {
	case err != nil:
		if s.Draining() {
			writeUnavailable(w)
		}
	case body != nil:
		s.replay(w, st, body)
	default:
		s.lead(w, ctx, st, f)
	}
}

// settle finds key's body without executing it when it can: memoized,
// or the outcome of a concurrent identical job's flight. Otherwise the
// caller is key's one execution, and it must resolve the returned flight
// however the execution ends. That flight is nil, so the run is
// uncoalesced, when caching is off ("every request executes") or after
// maxJoinAttempts leaders have failed nondeterministically. The error is
// ctx's, when it ends the wait.
func (s *Server) settle(ctx context.Context, key string) ([]byte, *flight, error) {
	if s.cache.disabled() {
		return nil, nil, nil
	}
	for attempt := 0; ; attempt++ {
		if body, ok := s.lookup(key); ok {
			return body, nil, nil
		}
		if attempt >= maxJoinAttempts {
			return nil, nil, nil
		}
		f, leader := s.join(key)
		if leader {
			// Re-check the cache now that we hold leadership: a previous
			// leader may have published and resolved between our cache
			// miss above and the join — without this, the same key would
			// execute twice.
			if body, ok := s.lookup(key); ok {
				s.resolve(key, f, body)
				return body, nil, nil
			}
			return nil, f, nil
		}
		select {
		case <-f.done:
			if f.body != nil {
				return f.body, nil, nil
			}
			// The leader failed nondeterministically; try again.
		case <-ctx.Done():
			return nil, nil, ctx.Err()
		}
	}
}

// chunk is one ordered piece of a job's stream after the accepted line.
type chunk struct {
	line []byte
	// nondet marks content that is not a function of the canonical
	// request: a peer died mid-job, a drain aborted fan-out work, the run
	// used a real transport, the producer panicked. It is streamed, but
	// it keeps the whole body out of the cache and lets coalesced
	// followers retry rather than inherit it.
	nondet bool
	// failed marks a stream-terminating error event: the job counts
	// failed, not completed. Driver, graph and fork errors are failed but
	// not nondet — pure functions of the canonical request, cached like
	// results so identical requests replay the identical error stream.
	failed bool
	rounds int64 // credited to rounds-simulated if the job completes
}

// producer is the kind-specific half of a stream: the validated job.
type producer interface {
	// produce computes the stream after the accepted line, in order, on
	// the leader's pool slot. A producer that fans work out across the
	// pool calls release first, so it makes progress even on a 1-slot
	// pool; otherwise the slot is handed back when produce returns.
	produce(s *Server, release func(), emit func(chunk))
}

// stream is what validation hands the leader: how to address, bound,
// open, produce and serve one job's NDJSON stream, whatever its kind. It
// is passed by value and holds nothing computed, so a hit pays nothing
// for it.
type stream struct {
	// accepted opens the stream (lead renders it); its RequestKey is the
	// cache and flight key.
	accepted api.Accepted
	// timeout bounds execution (queue wait not counted); noun names the
	// job kind in the timeout's error event.
	timeout time.Duration
	noun    string
	// points is the progress_points cap sampleStream applies to served
	// bytes (cached bodies keep full resolution); 0 serves verbatim.
	points int
	// executed, when set, counts this kind's executions (sweep- and
	// estimate-level misses).
	executed *atomic.Int64
	// chunks bounds what job may emit; the channel is buffered for the
	// whole stream so an abandoned (timed-out) producer never blocks.
	chunks int
	job    producer
}

// replay serves a memoized body as a hit, sampled for this request.
func (s *Server) replay(w http.ResponseWriter, st stream, body []byte) {
	s.met.hits.Add(1)
	openStream(w, "hit")
	flushWrite(w, sampleStream(body, st.points))
}

// lead is the one leader of every /v1 job kind: it queues st for an
// execution slot, streams the NDJSON response as the producer emits it,
// and publishes the outcome to the cache and to f's followers (f is nil
// for an uncoalesced run).
//
// The producer runs on its own goroutine and its own schedule, tied
// neither to the client connection nor to the timer: a vanished client
// does not kill a result that coalesced followers are waiting on, and a
// timeout only ends this response — either way a sweep's variant bodies
// and an estimate's candidate bodies still reach the cache. The producer
// owns the slot: release is once-only and deferred, so the slot goes
// back when the computation actually finishes — an abandoned (timed-out)
// job keeps its slot until then, which keeps the pool bound honest — or
// earlier, when a fan-out producer calls it. A panic in the producer is
// recovered into a transient chunk: one bad job costs its own stream,
// not the process.
func (s *Server) lead(w http.ResponseWriter, ctx context.Context, st stream, f *flight) {
	key := st.accepted.RequestKey
	err := s.drainCtx.Err() // a draining server admits nothing
	if err == nil {
		s.met.queued.Add(1)
		err = s.pool.Acquire(ctx)
		s.met.queued.Add(-1)
	}
	if err != nil {
		// Never ran: drain rejects it, a vanished client just goes away.
		// Followers must not wait on a leader that gave up.
		s.resolve(key, f, nil)
		if s.Draining() {
			writeUnavailable(w)
		}
		return
	}

	head := acceptedLine(st.accepted)
	s.met.misses.Add(1)
	if st.executed != nil {
		st.executed.Add(1)
	}
	openStream(w, "miss")
	flushWrite(w, head)

	out := make(chan chunk, st.chunks+1) // +1: the panic chunk
	s.met.running.Add(1)
	go func() {
		defer close(out)
		defer s.met.running.Add(-1)
		var once sync.Once
		release := func() { once.Do(s.pool.Release) }
		defer release()
		emit := func(c chunk) { out <- c }
		if _, err := guard(func() (any, error) {
			if s.cfg.gate != nil {
				s.cfg.gate(key)
			}
			st.job.produce(s, release, emit)
			return nil, nil
		}); err != nil {
			emit(chunk{line: errorLine(err.Error()), nondet: true, failed: true})
		}
	}()

	timer := time.NewTimer(st.timeout)
	defer timer.Stop()
	// The accumulated (published) body keeps full resolution; the live
	// stream is sampled to this request's progress_points.
	body := append([]byte(nil), head...)
	var nondet, failed bool
	var rounds int64
	for {
		select {
		case c, ok := <-out:
			if ok {
				nondet = nondet || c.nondet
				failed = failed || c.failed
				rounds += c.rounds
				body = append(body, c.line...)
				flushWrite(w, sampleStream(c.line, st.points))
				continue
			}
			if nondet {
				body = nil
			} else {
				s.publish(key, body)
			}
			s.resolve(key, f, body)
			if failed {
				s.met.failed.Add(1)
			} else {
				s.met.completed.Add(1)
				s.met.rounds.Add(rounds)
			}
			return
		case <-timer.C:
			// Timeouts are wall-clock, not canonical: never cached. The
			// producer keeps going (see above).
			s.resolve(key, f, nil)
			s.met.failed.Add(1)
			flushWrite(w, errorLine(fmt.Sprintf("%s exceeded its %v execution timeout", st.noun, st.timeout)))
			return
		}
	}
}

// transient marks an error that is not a function of the canonical
// request (a drain abort, a recovered panic): streamed, never cached.
type transient struct{ error }

func isTransient(err error) bool { return errors.As(err, new(transient)) }

// guard runs fn and returns a panic inside it as a transient error, so a
// goroutine that executes job code never takes the process down. The
// stack is written once to stderr.
func guard[T any](fn func() (T, error)) (out T, err error) {
	defer func() {
		if v := recover(); v != nil {
			fmt.Fprintf(os.Stderr, "gossipd: job panicked: %v\n%s", v, debug.Stack())
			err = transient{fmt.Errorf("job panicked: %v", v)}
		}
	}()
	return fn()
}

// produce computes the /v1/simulations stream: one chunk, the job's
// rendered outcome.
func (jb *job) produce(s *Server, _ func(), emit func(chunk)) {
	res, nondet, err := s.execute(jb)
	emit(chunk{line: jobTail(res, err), nondet: nondet, failed: err != nil, rounds: int64(res.Rounds)})
}

// execute runs one simulation job to its outcome on the calling
// goroutine, which holds the slot. nondet marks outcomes that are not a
// function of the canonical request: every error out of a coordinated
// run (a worker died, a dial failed), and success and failure alike on
// a real transport.
func (s *Server) execute(jb *job) (res gossip.DriverResult, nondet bool, err error) {
	if jb.shards > 0 {
		// Coordinator path: the workers rebuild the graph; this process
		// only relays barrier frames.
		res, err = s.coordinate(jb)
		return res, err != nil, err
	}
	csr, err := s.topology(jb.can)
	if err != nil {
		return res, false, fmt.Errorf("building graph: %w", err)
	}
	if jb.transport != "" {
		res, err = runChanTransport(jb, csr)
		return res, true, err
	}
	opts := jb.driverOptions()
	opts.CSR = csr
	res, err = gossip.Dispatch(jb.can.Driver, nil, opts)
	return res, false, err
}

// runChanTransport executes jb for real on an in-process goroutine mesh
// — the server face of `gossipsim -mode net`'s execution half. The
// driver's own protocol structs run one goroutine per node on real
// clocks (gossip.RunNet); the result is nondeterministic and the caller
// marks the outcome transient so it is never memoized.
func runChanTransport(jb *job, csr *graph.CSR) (gossip.DriverResult, error) {
	mesh := transport.NewChanMesh(csr.N(), 0)
	defer mesh.Close()
	res, err := gossip.RunNet(gossip.NetConfig{
		Mesh:      mesh,
		CSR:       csr,
		Driver:    jb.can.Driver,
		Opts:      jb.driverOptions(),
		MaxRounds: jb.can.MaxRounds,
	})
	if err != nil {
		return gossip.DriverResult{}, err
	}
	return gossip.DriverResult{
		Rounds:     res.Rounds,
		Completed:  res.Completed,
		Messages:   res.Messages,
		Dropped:    res.Drops,
		InformedAt: res.InformedAt,
	}, nil
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if s.Draining() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, `{"status":"draining"}`)
		return
	}
	fmt.Fprintln(w, `{"status":"ok"}`)
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.render(w, s.cache.len(), s.pool.Size())
}

// driverInfo is one /v1/drivers entry: the machine-readable options
// schema clients validate against before submitting.
type driverInfo struct {
	Name        string      `json:"name"`
	Description string      `json:"description"`
	RequestKeys []string    `json:"request_keys"`
	Options     []optionDoc `json:"options"`
}

type optionDoc struct {
	Name string   `json:"name"`
	Doc  string   `json:"doc"`
	Keys []string `json:"keys,omitempty"`
}

func (s *Server) handleDrivers(w http.ResponseWriter, _ *http.Request) {
	out := make([]driverInfo, 0, 8)
	for _, name := range gossip.Names() {
		d, _ := gossip.Lookup(name)
		info := driverInfo{
			Name:        d.Name,
			Description: d.Description,
			RequestKeys: d.RequestKeys(),
		}
		for _, o := range d.Options {
			info.Options = append(info.Options, optionDoc{Name: o.Name, Doc: o.Doc, Keys: o.Keys})
		}
		out = append(out, info)
	}
	w.Header().Set("Content-Type", "application/json")
	// a write error means the client went away mid-response; nothing to do
	_ = json.NewEncoder(w).Encode(out)
}

func writeFieldError(w http.ResponseWriter, ferr *FieldError) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusBadRequest)
	_ = json.NewEncoder(w).Encode(map[string]*FieldError{"error": ferr})
}

func writeUnavailable(w http.ResponseWriter) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, `{"error":{"message":"server is draining; job rejected"}}`)
}

// openStream commits the response head of an NDJSON stream.
func openStream(w http.ResponseWriter, cacheStatus string) {
	w.Header().Set(CacheHeader, cacheStatus)
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(http.StatusOK)
}

// flushWrite writes and flushes one chunk of the stream; write errors
// mean the client went away and are deliberately ignored (the job's
// outcome is published via cache/flight regardless).
func flushWrite(w http.ResponseWriter, b []byte) {
	if _, err := w.Write(b); err != nil {
		return
	}
	_ = http.NewResponseController(w).Flush()
}
