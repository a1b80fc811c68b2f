package gossip

import (
	"encoding/binary"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/sim"
	"gossip/internal/transport"
)

// This file is the real-transport execution mode: the same protocol
// structs the calendar engine drives (PushPull, Flood — the drivers
// registered with RealTransport) run here on one goroutine per node,
// exchanging real messages through a transport.Mesh on real clocks.
// Nothing about the protocol changes — Activate still picks a neighbor
// index, a Receiver's OnDeliver still observes exchanges — only the
// fabric underneath does, which is exactly the claim a real-network mode
// exists to test.
//
// The wire exchange mirrors the paper's combined push-pull primitive:
// an initiation is a SYN carrying the sender's rumor journal, the
// responder merges and answers with an ACK carrying its own pre-merge
// journal, and the initiator merges that. A single exchange therefore
// moves rumors in both directions, just as one simulated exchange does.
// Real fabrics drop (bounded inboxes, torn-down sockets), so a blocking
// protocol waiting on its ACK is unstuck by an ack timeout that
// synthesizes the clearing OnDeliver — the delivery never happened, the
// protocol just stops waiting for it.

// Wire message kinds inside mesh payloads.
const (
	netSyn byte = 1 // initiator's journal snapshot
	netAck byte = 2 // responder's pre-merge journal snapshot
)

// ackTimeout is how many rounds an initiator waits for an ACK before the
// exchange is written off.
const ackTimeout = 4

// NetConfig configures one real-transport run.
type NetConfig struct {
	// Mesh moves the bytes: a ChanMesh (single process, all nodes local)
	// or one process's TCPMesh half (contiguous node range local).
	Mesh transport.Mesh
	// CSR is the topology; every process of a multi-process run must
	// build the identical CSR.
	CSR *graph.CSR
	// Driver names a registered RealTransport driver (push-pull, flood).
	Driver string
	// Opts selects source, seed, variant, known-latencies — the same
	// option surface a simulated run takes. Execution knobs (Workers) are
	// ignored: concurrency here is one goroutine per node, for real.
	Opts DriverOptions
	// Round is the wall-clock tick length (default 2ms). Every node
	// activates once per tick, mirroring the synchronous round model.
	Round time.Duration
	// MaxRounds is the horizon (default 10·n): multi-process runs cannot
	// observe global completion locally, so the horizon is the only
	// guaranteed stop.
	MaxRounds int
}

// NetResult is the outcome of one real-transport run, shaped like the
// sim result so the ICC machinery consumes either.
type NetResult struct {
	// Rounds is the last tick at which a locally hosted node was
	// informed (or the horizon, when incomplete).
	Rounds int
	// Completed reports whether every locally hosted node was informed.
	// Multi-process runs AND this over processes.
	Completed bool
	// InformedAt[u] is the tick node u first held the watched rumor, -1
	// for never and for nodes this process does not host.
	InformedAt []int
	// Messages counts SYNs and ACKs sent by local nodes.
	Messages int64
	// Drops is the mesh's dropped-packet count at the end of the run.
	Drops int64
}

// netNode is one node's real-execution state, owned by its goroutine.
type netNode struct {
	nv      *sim.NodeView
	proto   sim.Protocol
	pending []int // initiation rounds of SYNs still awaiting an ACK
}

// deliver hands d to the node's protocol when it is a sim.Receiver, as
// the engine does.
func (nd *netNode) deliver(d sim.Delivery) {
	if r, ok := nd.proto.(sim.Receiver); ok {
		r.OnDeliver(d)
	}
}

// RealTransport resolves name to a driver RunNet can execute. It is the
// one gate of every real-network entry point (RunNet, gossipd's
// transport:"chan", gossipsim -mode net, gossipnode -algo), and its error
// lists the registry's real-transport drivers.
func RealTransport(name string) (*Driver, error) {
	d, ok := Lookup(name)
	if !ok || !d.RealTransport {
		return nil, fmt.Errorf("driver %q has no real-transport mode (have %s)", name, strings.Join(RealTransportNames(), ", "))
	}
	return d, nil
}

// RealTransportNames returns the sorted canonical names of the
// real-transport drivers.
func RealTransportNames() []string {
	return namesWhere(func(d *Driver) bool { return d.RealTransport })
}

// RunNet executes the named driver's protocol over cfg.Mesh. It blocks
// until every locally hosted node is informed (when the mesh hosts the
// whole topology) or the horizon passes. The run is nondeterministic by
// nature — validate results statistically (package envelope), not by
// golden outputs.
func RunNet(cfg NetConfig) (NetResult, error) {
	if cfg.Mesh == nil || cfg.CSR == nil {
		return NetResult{}, fmt.Errorf("gossip: RunNet needs a mesh and a CSR topology")
	}
	d, err := RealTransport(cfg.Driver)
	if err != nil {
		return NetResult{}, fmt.Errorf("gossip: %w", err)
	}
	n := cfg.CSR.N()
	opts := cfg.Opts
	opts.CSR = cfg.CSR
	// Prepare is reused solely for its factory: the one driver-owned
	// definition of "this protocol's per-node instance". The returned
	// sim.Config and stop condition belong to the calendar engine and are
	// discarded.
	_, factory, _, err := d.Prepare(opts)
	if err != nil {
		return NetResult{}, err
	}
	if opts.Source < 0 || opts.Source >= n {
		return NetResult{}, fmt.Errorf("gossip: source %d outside [0, %d)", opts.Source, n)
	}
	roundDur := cfg.Round
	if roundDur <= 0 {
		roundDur = 2 * time.Millisecond
	}
	maxRounds := cfg.MaxRounds
	if maxRounds <= 0 {
		maxRounds = 10 * n
	}

	local := cfg.Mesh.Local()
	fullyLocal := len(local) == n

	informedAt := make([]int, n)
	for i := range informedAt {
		informedAt[i] = -1
	}
	var informed atomic.Int64
	var messages atomic.Int64
	done := make(chan struct{})
	var doneOnce sync.Once
	target := int64(len(local))

	nodes := make(map[int]*netNode, len(local))
	for _, u := range local {
		nv := sim.NewNetView(cfg.CSR, u, opts.Seed, opts.KnownLatencies)
		nodes[u] = &netNode{nv: nv, proto: factory(nv)}
		if u == int(opts.Source) {
			nv.Gain(u)
			informedAt[u] = 0
			if informed.Add(1) == target && fullyLocal {
				doneOnce.Do(func() { close(done) })
			}
		}
	}

	start := time.Now()
	var wg sync.WaitGroup
	for _, u := range local {
		nd := nodes[u]
		u := u
		wg.Add(1)
		go func() {
			defer wg.Done()
			inbox := cfg.Mesh.Inbox(u)
			timer := time.NewTimer(roundDur)
			defer timer.Stop()
			send := func(kind byte, to int, journal []int32) {
				if err := cfg.Mesh.Send(u, to, encodeNetMsg(kind, journal)); err == nil {
					messages.Add(1)
				}
			}
			// gain merges one received journal into the node, recording
			// the informed tick and advancing the completion counter when
			// the watched rumor arrives.
			gain := func(rumors []int32, round int) int {
				fresh := 0
				for _, r := range rumors {
					if nd.nv.Gain(int(r)) {
						fresh++
						if int(r) == int(opts.Source) {
							informedAt[u] = round
							if informed.Add(1) == target && fullyLocal {
								doneOnce.Do(func() { close(done) })
							}
						}
					}
				}
				return fresh
			}
			for round := 1; round <= maxRounds; round++ {
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(time.Until(start.Add(time.Duration(round) * roundDur)))
			drain:
				for {
					select {
					case p, open := <-inbox:
						if !open {
							return
						}
						kind, rumors, derr := decodeNetMsg(p.Payload, n)
						if derr != nil {
							continue // undecodable: dropped like any lost packet
						}
						switch kind {
						case netSyn:
							// Answer with the pre-merge journal so the
							// exchange pulls as well as pushes, exactly
							// like one simulated exchange.
							snap := append([]int32(nil), nd.nv.Journal()...)
							fresh := gain(rumors, round)
							send(netAck, p.From, snap)
							nd.deliver(sim.Delivery{
								Round:         round,
								Peer:          p.From,
								NeighborIndex: nd.nv.NeighborIndex(p.From),
								Initiator:     false,
								NewRumors:     fresh,
							})
						case netAck:
							fresh := gain(rumors, round)
							if len(nd.pending) > 0 {
								nd.pending = nd.pending[1:]
							}
							nd.deliver(sim.Delivery{
								Round:         round,
								Peer:          p.From,
								NeighborIndex: nd.nv.NeighborIndex(p.From),
								Initiator:     true,
								NewRumors:     fresh,
							})
						}
					case <-done:
						return
					case <-timer.C:
						break drain
					}
				}
				// Write off exchanges whose ACK is overdue — the real-world
				// replacement for the calendar's guaranteed delivery. The
				// synthesized delivery only tells the protocol to stop
				// waiting; no rumors move.
				for len(nd.pending) > 0 && round-nd.pending[0] > ackTimeout {
					nd.pending = nd.pending[1:]
					nd.deliver(sim.Delivery{Round: round, Initiator: true})
				}
				if idx, ok := nd.proto.Activate(round); ok {
					nd.pending = append(nd.pending, round)
					send(netSyn, nd.nv.NeighborID(idx), nd.nv.Journal())
				}
			}
		}()
	}
	wg.Wait()

	res := NetResult{
		InformedAt: informedAt,
		Completed:  true,
		Messages:   messages.Load(),
		Drops:      cfg.Mesh.Drops(),
	}
	for _, u := range local {
		if informedAt[u] < 0 {
			res.Completed = false
		} else if informedAt[u] > res.Rounds {
			res.Rounds = informedAt[u]
		}
	}
	if !res.Completed {
		res.Rounds = maxRounds
	}
	return res, nil
}

// encodeNetMsg frames one SYN/ACK: kind byte, rumor count, rumor ids
// (all varint). The journal is snapshotted into the payload — ownership
// transfers to the mesh.
func encodeNetMsg(kind byte, journal []int32) []byte {
	buf := make([]byte, 1, 1+(len(journal)+1)*binary.MaxVarintLen32)
	buf[0] = kind
	buf = binary.AppendUvarint(buf, uint64(len(journal)))
	for _, r := range journal {
		buf = binary.AppendUvarint(buf, uint64(r))
	}
	return buf
}

// decodeNetMsg parses one SYN/ACK addressed to a node of an n-node
// topology. The bytes come off a socket, so nothing in them is trusted:
// the rumor count is bounded by the bytes that remain (a rumor id takes at
// least one), which keeps the allocation sized by the input, and an id
// outside [0, n) is refused because the caller indexes its rumor set by
// it.
func decodeNetMsg(p []byte, n int) (kind byte, rumors []int32, err error) {
	if len(p) < 1 {
		return 0, nil, fmt.Errorf("gossip: empty net message")
	}
	kind = p[0]
	rest := p[1:]
	count, m := binary.Uvarint(rest)
	if m <= 0 {
		return 0, nil, fmt.Errorf("gossip: truncated net message")
	}
	rest = rest[m:]
	if count > uint64(len(rest)) {
		return 0, nil, fmt.Errorf("gossip: net message claims %d rumors in %d bytes", count, len(rest))
	}
	rumors = make([]int32, 0, count)
	for i := uint64(0); i < count; i++ {
		v, m := binary.Uvarint(rest)
		if m <= 0 {
			return 0, nil, fmt.Errorf("gossip: truncated net message")
		}
		if v >= uint64(n) {
			return 0, nil, fmt.Errorf("gossip: net message carries rumor %d outside [0, %d)", v, n)
		}
		rest = rest[m:]
		rumors = append(rumors, int32(v))
	}
	return kind, rumors, nil
}
