package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"gossip/internal/gossip"
	"gossip/internal/graph"
	"gossip/internal/graphgen"
	"gossip/internal/loadgen"
	"gossip/internal/server"
	"gossip/internal/server/api"
	"gossip/internal/sim"
)

// scale fixes every size a workload depends on. fullScale is what
// BENCHMARK.json measures; tinyScale keeps the same code paths under five
// seconds for the package's tests.
type scale struct {
	sparseN, sparseOps, sparseWarm                  int
	ringN, ringLayers, ringLatency, latOps, latWarm int
	coldOps, coldWarm                               int
	hotSeeds, hotOps, hotWarm                       int
}

// The op counts are tuned once so each workload's measured window is
// about refSeconds on the 2-core reference box in its faster state (the
// box slows by up to a third for minutes at a time, and all 92 runs the
// driver makes must still fit its time cap then), and frozen: a later
// change is compared on the same list of ops, not on the same duration.
var (
	fullScale = scale{
		sparseN: 1 << 15, sparseOps: 80, sparseWarm: 2,
		ringN: 64, ringLayers: 8, ringLatency: 16, latOps: 192, latWarm: 3,
		coldOps: 65700, coldWarm: 1152,
		hotSeeds: 28, hotOps: 800000, hotWarm: 8192,
	}
	tinyScale = scale{
		sparseN: 1 << 10, sparseOps: 24, sparseWarm: 1,
		ringN: 8, ringLayers: 4, ringLatency: 16, latOps: 24, latWarm: 1,
		coldOps: 270, coldWarm: 18,
		hotSeeds: 2, hotOps: 1200, hotWarm: 36,
	}
)

// refSeconds is BENCHMARK.json's run_seconds: the measured window the
// full-scale op counts were tuned to. Another -seconds scales the op
// lists in proportion.
const refSeconds = 23

// mixJobs is the number of jobs in loadgen.DefaultMix.
const mixJobs = 9

// workload is one fixed list of ops run by `clients` closed-loop callers.
type workload struct {
	name    string
	clients int
	ops     func(sc scale) int
	// setup is the workload's complete set-up: build the inputs, start the
	// server, prime its cache and run the warm-up ops. Inputs are made for
	// ops [0, ops); warm-up ops use indexes past them. A non-nil tr wraps
	// the server's handler so that requests carrying opHeader record a span.
	setup func(seed uint64, sc scale, ops int, tr *tracer) (*instance, error)
}

var workloads = []workload{
	{name: "sim-sparse", clients: 1, ops: func(sc scale) int { return sc.sparseOps }, setup: setupSparse},
	{name: "sim-latency", clients: 1, ops: func(sc scale) int { return sc.latOps }, setup: setupLatency},
	{name: "serve-cold", clients: 2, ops: func(sc scale) int { return sc.coldOps }, setup: setupCold},
	{name: "serve-hot", clients: 2, ops: func(sc scale) int { return sc.hotOps }, setup: setupHot},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// opOut is what one op produced: the sha256 of its output, which the run
// digest chains in op order, and the simulated work behind it.
type opOut struct {
	sum               [sha256.Size]byte
	rounds, exchanges int64
}

// instance is a set-up workload, ready to run ops.
type instance struct {
	// op runs measured op i on behalf of client c and checks its output.
	// With a tracer it runs the same work decomposed into the layers'
	// public calls, each inside a span whose parent is the op's span.
	op func(c, i int, tr *tracer, parent int) (opOut, error)
	// pause, when set, runs untimed before every op.
	pause func()
	// stats reads the server's counters; nil for the sim workloads.
	stats func() server.Snapshot
	close func()
}

// warm runs n warm-up ops starting at index first, exactly as the measured
// loop runs ops; a failure closes the instance.
func (inst *instance) warm(first, n int) error {
	for i := first; i < first+n; i++ {
		if inst.pause != nil {
			inst.pause()
		}
		if _, err := inst.op(0, i, nil, -1); err != nil {
			inst.close()
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// --- sim workloads ---------------------------------------------------------

// simSum hashes the fields of a simulation outcome the digest covers.
func simSum(rounds int, completed bool, exchanges int64, winner string, informedAt []int) [sha256.Size]byte {
	h := sha256.New()
	buf := make([]byte, 0, 8*len(informedAt))
	for _, r := range informedAt {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(r)))
	}
	at := sha256.Sum256(buf)
	fmt.Fprintf(h, "%d %t %d %q %x", rounds, completed, exchanges, winner, at)
	var out [sha256.Size]byte
	h.Sum(out[:0])
	return out
}

// checkInformed reports an incomplete dissemination as an op failure.
func checkInformed(completed bool, informedAt []int) error {
	if !completed {
		return fmt.Errorf("dissemination did not complete")
	}
	for u, r := range informedAt {
		if r < 0 {
			return fmt.Errorf("node %d never informed", u)
		}
	}
	return nil
}

func sparseOptions(csr *graph.CSR, i, workers int) gossip.DriverOptions {
	return gossip.DriverOptions{
		ExecOptions: gossip.ExecOptions{CSR: csr, Workers: workers},
		Source:      0,
		Seed:        uint64(i),
		MaxRounds:   4096,
	}
}

func buildSparse(seed uint64, n int) (*graph.CSR, error) {
	return graphgen.RingMatchingExpanderCSR(n, 1, graphgen.NewRand(seed))
}

func setupSparse(seed uint64, sc scale, ops int, _ *tracer) (*instance, error) {
	csr, err := buildSparse(seed, sc.sparseN)
	if err != nil {
		return nil, err
	}
	inst := &instance{pause: runtime.GC, close: func() {}}
	inst.op = func(_, i int, tr *tracer, parent int) (opOut, error) {
		opts := sparseOptions(csr, i, 1)
		var res sim.Result
		if tr == nil {
			dr, err := gossip.Dispatch("push-pull", nil, opts)
			if err != nil {
				return opOut{}, err
			}
			res = *dr.Sim
		} else {
			id := tr.begin("gossip.PrepareDist", parent, i)
			cfg, factory, stop, err := gossip.PrepareDist("push-pull", nil, opts)
			tr.end(id)
			if err != nil {
				return opOut{}, err
			}
			id = tr.begin("sim.Run", parent, i)
			res, err = sim.Run(cfg, factory, stop)
			tr.end(id)
			if err != nil {
				return opOut{}, err
			}
		}
		out := opOut{sum: simSum(res.Rounds, res.Completed, res.Exchanges, "", res.InformedAt),
			rounds: int64(res.Rounds), exchanges: res.Exchanges}
		return out, checkInformed(res.Completed, res.InformedAt)
	}
	return inst, inst.warm(ops, sc.sparseWarm)
}

func ringSpec(seed uint64, sc scale) graphgen.Spec {
	return graphgen.Spec{Family: "ring", N: sc.ringN, Layers: sc.ringLayers, Latency: sc.ringLatency, Seed: seed}
}

// autoArms runs the two arms the auto driver races — push-pull from the
// source and the spanner pipeline on the next seed — each through the
// registry, and folds them the way the driver does.
func autoArms(g *graph.Graph, i int, tr *tracer, parent int) (gossip.DriverResult, error) {
	id := tr.begin("gossip.Dispatch/push-pull", parent, i)
	pp, err := gossip.Dispatch("push-pull", g, gossip.DriverOptions{Seed: uint64(i)})
	tr.end(id)
	if err != nil {
		return gossip.DriverResult{}, err
	}
	id = tr.begin("gossip.Dispatch/spanner", parent, i)
	sp, err := gossip.Dispatch("spanner", g, gossip.DriverOptions{KnownLatencies: true, Seed: uint64(i) + 1})
	tr.end(id)
	if err != nil {
		return gossip.DriverResult{}, err
	}
	out := gossip.DriverResult{Completed: pp.Completed || sp.Completed, Exchanges: pp.Exchanges + sp.Exchanges}
	switch {
	case !out.Completed:
		out.Rounds, out.Winner = -1, "none"
	case pp.Completed && (!sp.Completed || pp.Rounds <= sp.Rounds):
		out.Rounds, out.Winner = pp.Rounds, "push-pull"
	default:
		out.Rounds, out.Winner = sp.Rounds, "spanner"
	}
	return out, nil
}

func setupLatency(seed uint64, sc scale, ops int, _ *tracer) (*instance, error) {
	g, err := graphgen.Build(ringSpec(seed, sc))
	if err != nil {
		return nil, err
	}
	inst := &instance{pause: runtime.GC, close: func() {}}
	inst.op = func(_, i int, tr *tracer, parent int) (opOut, error) {
		var res gossip.DriverResult
		var err error
		if tr == nil {
			res, err = gossip.Dispatch("auto", g, gossip.DriverOptions{KnownLatencies: true, Seed: uint64(i)})
		} else {
			res, err = autoArms(g, i, tr, parent)
		}
		if err != nil {
			return opOut{}, err
		}
		out := opOut{sum: simSum(res.Rounds, res.Completed, res.Exchanges, res.Winner, res.InformedAt),
			rounds: int64(res.Rounds), exchanges: res.Exchanges}
		return out, checkInformed(res.Completed, res.InformedAt)
	}
	return inst, inst.warm(ops, sc.latWarm)
}

// --- serve workloads -------------------------------------------------------

// opHeader carries the op id to the handler middleware of a traced run.
const opHeader = "X-Bench-Op"

// local is an in-process gossipd on a loopback listener, as
// loadgen.StartLocal builds it; it is rebuilt here only so a traced run
// can wrap the handler from outside.
type local struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	client *http.Client
	// bufs holds one reusable response buffer per client.
	bufs []bytes.Buffer
}

// startLocal boots the server. With a tracer, requests that carry opHeader
// record a server.Handler span under the client's op span.
func startLocal(clients int, tr *tracer) (*local, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	l := &local{srv: server.New(server.Config{}), url: "http://" + lis.Addr().String(), bufs: make([]bytes.Buffer, clients)}
	handler := l.srv.Handler()
	if tr != nil {
		inner := handler
		handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			// The header is "<op>/<parent span>", written by post below.
			opText, parentText, traced := strings.Cut(r.Header.Get(opHeader), "/")
			if !traced {
				inner.ServeHTTP(w, r)
				return
			}
			op, _ := strconv.Atoi(opText)
			parent, _ := strconv.Atoi(parentText)
			id := tr.begin("server.Handler", parent, op)
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	l.hs = &http.Server{Handler: handler}
	go func() {
		// Serve returns ErrServerClosed after close; any other failure
		// surfaces as failed ops.
		_ = l.hs.Serve(lis)
	}()
	// One keep-alive connection per closed-loop client; bodies are compared
	// byte for byte, so no transparent compression.
	l.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        clients,
		MaxIdleConnsPerHost: clients,
		DisableCompression:  true,
	}}
	return l, nil
}

func (l *local) close() {
	l.client.CloseIdleConnections()
	l.srv.Drain()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = l.hs.Shutdown(ctx)
}

// post sends one simulation request for client c and returns the cache
// outcome and the body, which stays valid until c's next post.
func (l *local) post(c, op int, payload []byte, tr *tracer, parent int) (string, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, l.url+"/v1/simulations", bytes.NewReader(payload))
	if err != nil {
		return "", nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tr != nil {
		req.Header.Set(opHeader, strconv.Itoa(op)+"/"+strconv.Itoa(parent))
	}
	resp, err := l.client.Do(req)
	if err != nil {
		return "", nil, err
	}
	defer resp.Body.Close()
	buf := &l.bufs[c]
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return "", nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return "", nil, fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	}
	return resp.Header.Get(api.CacheHeader), buf.Bytes(), nil
}

var (
	resultPrefix = []byte(`{"schema_version":` + strconv.Itoa(api.SchemaVersion) + `,"event":"result"`)
	errorEvent   = []byte(`"event":"error"`)
	completedYes = []byte(`"completed":true`)
)

// checkBody accepts a stream that ends in a completed result event and
// carries no error event, and returns that last line.
func checkBody(body []byte) ([]byte, error) {
	if bytes.Contains(body, errorEvent) {
		return nil, fmt.Errorf("in-stream error event: %.200s", body)
	}
	trimmed := bytes.TrimSuffix(body, []byte("\n"))
	last := trimmed[bytes.LastIndexByte(trimmed, '\n')+1:]
	if !bytes.HasPrefix(last, resultPrefix) || !bytes.Contains(last, completedYes) {
		return nil, fmt.Errorf("stream does not end in a completed result: %.200s", last)
	}
	return last, nil
}

// simulated adds the result line's rounds and exchanges to out; only
// traced runs pay for the parse.
func simulated(last []byte, out *opOut) error {
	var ev api.Event
	if err := json.Unmarshal(last, &ev); err != nil || ev.Result == nil {
		return fmt.Errorf("parsing result line %.200s: %v", last, err)
	}
	out.rounds, out.exchanges = int64(ev.Result.Rounds), ev.Result.Exchanges
	return nil
}

// mixSeed is the base seed of pass p of the mix. The mix's first two jobs
// are the same request on seed and seed+1, so consecutive passes step by
// two: a stride of one would turn every pass's job 0 into a hit on the
// previous pass's job 1.
func mixSeed(seed uint64, pass int) uint64 { return (seed+1)<<24 + 2*uint64(pass) }

// mixPayloads marshals passes [first, first+passes) of the mix, in order.
func mixPayloads(seed uint64, first, passes int) ([][]byte, error) {
	out := make([][]byte, 0, passes*mixJobs)
	for p := first; p < first+passes; p++ {
		for _, req := range loadgen.DefaultMix(mixSeed(seed, p)) {
			raw, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, raw)
		}
	}
	return out, nil
}

func passesFor(requests int) int { return (requests + mixJobs - 1) / mixJobs }

// setupCold starts a server and fills its LRU past capacity with warm-up
// misses, so the measured ops run at the steady state where every insert
// evicts. Measured op i is request i of the pass sequence: all distinct.
func setupCold(seed uint64, sc scale, ops int, tr *tracer) (*instance, error) {
	measured := passesFor(ops)
	payloads, err := mixPayloads(seed, 0, measured+passesFor(sc.coldWarm))
	if err != nil {
		return nil, err
	}
	l, err := startLocal(2, tr)
	if err != nil {
		return nil, err
	}
	inst := &instance{stats: l.srv.Metrics, close: l.close}
	inst.op = func(c, i int, tr *tracer, parent int) (opOut, error) {
		cache, body, err := l.post(c, i, payloads[i], tr, parent)
		if err != nil {
			return opOut{}, err
		}
		out := opOut{sum: sha256.Sum256(body)}
		if cache != "miss" {
			return out, fmt.Errorf("cache outcome %q, want miss", cache)
		}
		last, err := checkBody(body)
		if err == nil && tr != nil {
			err = simulated(last, &out)
		}
		return out, err
	}
	return inst, inst.warm(measured*mixJobs, sc.coldWarm)
}

// setupHot starts a server, primes hotSeeds passes of the mix — fewer
// keys than the LRU holds — and replays them; measured op i asks for key
// i mod (number of keys) and must get the primed body back as a hit.
func setupHot(seed uint64, sc scale, _ int, tr *tracer) (*instance, error) {
	payloads, err := mixPayloads(seed, 0, sc.hotSeeds)
	if err != nil {
		return nil, err
	}
	l, err := startLocal(2, tr)
	if err != nil {
		return nil, err
	}
	primed := make([][]byte, len(payloads))
	sums := make([][sha256.Size]byte, len(payloads))
	for k, payload := range payloads {
		cache, body, err := l.post(0, k, payload, nil, -1)
		if err == nil && cache != "miss" {
			err = fmt.Errorf("cache outcome %q, want miss", cache)
		}
		if err == nil {
			_, err = checkBody(body)
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("priming key %d: %w", k, err)
		}
		primed[k] = bytes.Clone(body)
		sums[k] = sha256.Sum256(body)
	}
	inst := &instance{stats: l.srv.Metrics, close: l.close}
	inst.op = func(c, i int, tr *tracer, parent int) (opOut, error) {
		k := i % len(payloads)
		cache, body, err := l.post(c, i, payloads[k], tr, parent)
		if err != nil {
			return opOut{}, err
		}
		out := opOut{sum: sums[k]}
		if cache != "hit" {
			return out, fmt.Errorf("cache outcome %q, want hit", cache)
		}
		if !bytes.Equal(body, primed[k]) {
			return opOut{}, fmt.Errorf("key %d: replayed body differs from the primed one", k)
		}
		return out, nil
	}
	return inst, inst.warm(0, sc.hotWarm)
}
