// Package sim is a deterministic event-driven simulator for the paper's
// network model (Section 1, "Model"): synchronous rounds, one exchange
// initiation per node per round, bidirectional rumor exchange over an edge
// of latency ℓ completing ℓ rounds later, non-blocking initiations.
//
// Exchange semantics. When node u activates edge (u,v) at round t, the
// simulator snapshots both endpoints' rumor sets at t and merges each
// snapshot into the opposite endpoint at round t+ℓ. Information therefore
// crosses an edge in exactly ℓ rounds in either direction and a round trip
// costs ℓ in total, matching the paper's collapsed round-trip model
// (footnote 3: equivalent within constant factors to send-then-respond).
//
// The simulator owns the rumor sets (every protocol in the paper exchanges
// "all rumors known", so the transport is protocol-independent); protocol
// implementations control only the activation schedule and may attach
// small metadata to exchanges.
//
// # Execution model
//
// The engine is event-driven. Rounds are not enumerated one by one;
// instead an activation calendar tracks, per node, the next round at
// which the node's protocol may act, and a delivery calendar — a ring of
// per-round buckets, with an overflow heap for the rare deliveries beyond
// its horizon — tracks in-flight exchanges. The engine processes only
// rounds where something can happen — a delivery, an eligible activation,
// or a scheduled fault event — and jumps over idle spans, so a run costs
// O(events), not O(maxRounds·n). By default a protocol is woken every
// round (exactly the classical loop: push-pull behaves identically);
// protocols opt into sleeping by implementing Sleeper. A delivery always
// re-wakes its endpoints.
//
// There is one round loop (engine.run). Serial, worker-sharded
// (Config.Workers) and distributed (RunDist) runs execute the same
// stages; they differ only in which nodes an engine owns and in whether
// a barrier with other workers sits between activation and merge.
//
// # Rumor transport
//
// Snapshots are never materialized. Each node keeps a journal of the
// rumors it gained, in gain order; "u's rumor set at round t" is exactly
// a prefix of u's journal, so an exchange records two (start,end) journal
// windows instead of cloning two O(n)-bit sets. The calendar entry holds
// only the integers; the slice views over the journals are taken once per
// round, serially, for the exchanges that come due, into one scratch
// table the delivery shards read. Per-edge high-water marks
// shrink the windows to deltas (only rumors gained since the previous
// exchange on that edge). A mark advances only on an exchange that will
// deliver — its fate is fixed at initiation — so the windows chain over
// the delivered sequence of each edge and a drop anywhere in an edge's
// history cannot eat rumors. Under LatencyJitter (where completions can
// reorder) the engine conservatively falls back to full-prefix windows.
// Delivered payload accounting is unchanged: the journal prefix length at
// initiation time is the size of the full-state snapshot the model sends.
//
// An empty window is not captured at all: its News stays nil and the
// sender's journal is not read. The loop keeps each node's journal length
// in a flat table beside informedAt and wake, and the discovered
// latencies in a flat per-half-edge table, so initiating an exchange and
// delivering one that moves nothing read no NodeView. On a one-to-all
// run over a large network that is almost every delivery.
//
// A receiver applies a window in one of three ways, all of which grow its
// journal by the same ids in the same order. A receiver that already
// holds all n rumors gains nothing and skips the window unread; in the
// all-to-all pipelines that is every node from the middle of the
// neighborhood-gathering repetitions on. A receiver whose set is a bitmap
// handed a long window (at least max(32, ⌈n/32⌉) ids) takes it by the
// word (NodeView.gainWindow): mark the window into its shard's scratch
// words, absorb them into the set in one word pass, and read back only
// the new ids. Lists and short windows keep the per-rumor loop. Only
// a delivery that gains a rumor can inform its receiver, so only one
// that gains checks the watched rumor.
//
// # Pipelines
//
// A multi-phase algorithm runs its phases on one engine (Pipeline). Each
// phase after the first reloads the engine in place for its
// configuration, re-deriving every table the configuration shapes, and
// enters with the rumor sets the previous phase left, each journal
// re-seeded in ascending id order. That is the very state a fresh engine
// given those sets as Config.InitialRumors starts from, so a pipeline
// phase is bit-identical to a fresh Run of it. A node holding all n
// rumors is re-seeded without writing: its journal is the engine's one
// listing 0…n−1, made the first time some node is full, which no gain
// appends to and which a journal leaves before it is emptied again.
package sim

import (
	"fmt"
	"math/rand/v2"

	"gossip/internal/adversity"
	"gossip/internal/bitset"
	"gossip/internal/graph"
)

// Config describes one simulation run.
type Config struct {
	// CSR is the network, in compressed sparse row form: the one topology
	// representation the engine executes on. Required. A caller holding
	// the adjacency-map builder takes the graph's one CSR from its CSR()
	// method, which preserves adjacency order and converts a graph once.
	CSR *graph.CSR
	// Workers shards intra-round execution across this many goroutines:
	// nodes are partitioned into contiguous worker-owned shards,
	// activations and deliveries run shard-parallel, and shard-buffered
	// exchange intents are merged at the round barrier in node order.
	// Because every node draws from its own seed-derived RNG stream and
	// cross-shard effects are applied at barriers, results are
	// bit-identical for every worker count. 0 or 1 runs serial.
	Workers int
	// Seed drives all per-node randomness.
	Seed uint64
	// KnownLatencies exposes adjacent edge latencies to nodes from round
	// zero (the Section 4 model). Otherwise latencies are discovered
	// when an exchange on the edge completes.
	KnownLatencies bool
	// MaxRounds is the safety horizon; the run fails (Completed=false)
	// when the stop condition has not been met by then. Default 1<<20.
	MaxRounds int
	// Mode selects the initial rumor assignment.
	Mode RumorMode
	// Source is the rumor source for OneToAll mode.
	Source graph.NodeID
	// InitialRumors, when non-nil, seeds each node's rumor set instead
	// of Mode's default assignment (the sets are cloned). It is the
	// reference seeding a Pipeline phase is tested against: pipelines
	// carry their rumor sets from phase to phase themselves, so a
	// pipeline phase leaves it nil. It stays a Config field although no
	// non-test code sets it, because internal/gossip's pipeline tests
	// seed their fresh-engine reference through it from outside this
	// package, which a test helper in sim cannot serve.
	InitialRumors []*bitset.Set
	// Sources, when non-empty in OneToAll mode, seeds several sources
	// (multi-source dissemination); Source is ignored and completion is
	// judged against all of them.
	Sources []graph.NodeID
	// Adversity attaches a declarative fault schedule: per-edge message
	// loss, node churn (leave/rejoin with retention or amnesia), link
	// flaps and crash batches — see package adversity. The spec is
	// compiled at Run and its leave/rejoin transitions become calendar
	// events interleaved with deliveries. Loss draws come from per-node
	// PCG streams (separate from the protocol streams), and loss/drop
	// outcomes are fixed at initiation time in node order, so runs under
	// any fault schedule stay bit-identical for every worker count.
	// Whether an in-flight exchange survives is decided from the
	// schedule alone: it is lost iff an endpoint is down, or the link is
	// flapped down, at any round of its transit window — a node that
	// leaves mid-flight neither responds nor forwards. Nil means benign.
	Adversity *adversity.Spec
	// MaxInPerRound, when positive, caps how many incoming exchange
	// initiations a node accepts per round (the bounded in-degree model
	// of Daum et al. discussed in the paper's conclusion). Initiations
	// beyond the cap are dropped: the messages are counted but nothing
	// is delivered.
	MaxInPerRound int
	// LatencyJitter in [0,1) perturbs each exchange's actual completion
	// time to round(ℓ·(1+U[-j,+j])), minimum 1 — the fluctuating link
	// quality of the paper's footnote 2. Nominal latencies are what
	// nodes know in KnownLatencies mode; discovery observes the
	// perturbed value of the measuring exchange, so planned schedules
	// can be stale.
	LatencyJitter float64
}

// RumorMode selects how rumors are seeded.
type RumorMode int

const (
	// OneToAll seeds only Config.Source with its rumor.
	OneToAll RumorMode = iota + 1
	// AllToAll seeds every node with its own rumor.
	AllToAll
)

// Delivery describes one completed exchange from the perspective of one
// endpoint, as a Receiver is handed it. The simulator has already merged
// News into the node's rumor set when OnDeliver is invoked.
type Delivery struct {
	// Round is the completion round (initiation round + edge latency).
	Round int
	// InitRound is the round the exchange was initiated.
	InitRound int
	// Peer is the other endpoint.
	Peer graph.NodeID
	// NeighborIndex is the adjacency index of Peer at this node.
	NeighborIndex int
	// Latency is the latency of the traversed edge (now discovered).
	Latency int
	// Initiator reports whether this node initiated the exchange.
	Initiator bool
	// News lists the rumor ids this exchange conveyed from the peer, in
	// the order the peer gained them (a delta against what earlier
	// exchanges on this edge already carried; the union of all deltas on
	// an edge reconstructs the peer's full snapshot). It is a view into
	// engine-owned storage: valid only during OnDeliver, read-only. It is
	// nil when the window is empty.
	News []int32
	// NewRumors counts rumors this delivery added to the node.
	NewRumors int
	// PeerMeta is the peer protocol's metadata snapshot (nil unless the
	// peer protocol implements MetaProducer), as Meta returned it at
	// initiation: read-only.
	PeerMeta []int32
}

// Protocol is a per-node gossip protocol. The simulator calls Activate
// once per node per round: the model's "choose one neighbor" step, and
// all a protocol must do. Everything else is an optional facet: a
// protocol that reacts to completed exchanges implements Receiver.
type Protocol interface {
	// Activate returns the adjacency index of the neighbor to contact
	// this round, or ok=false to stay silent.
	Activate(round int) (neighborIndex int, ok bool)
}

// Receiver is an optional Protocol extension: OnDeliver is called when an
// exchange involving the node completes, after the simulator has merged
// the exchange's rumors and recorded the edge's latency. A protocol whose
// state does not depend on deliveries (non-blocking push-pull) leaves it
// out, and then a delivery never touches the protocol.
type Receiver interface {
	// OnDeliver reports a completed exchange.
	OnDeliver(d Delivery)
}

// MetaProducer is an optional Protocol extension: Meta is sampled at
// exchange initiation and delivered to the peer alongside the rumors.
// A returned slice is immutable from then on: the engine keeps it until
// the phase ends and hands it to every peer of an exchange it rode on.
// Handing out the same slice again (same first element, same length) is
// how a producer says "unchanged", and it costs the engine nothing.
type MetaProducer interface {
	Meta() []int32
}

// DoneReporter is an optional Protocol extension used by quiescence-based
// stop conditions: Done reports that this node's protocol has terminated.
type DoneReporter interface {
	Done() bool
}

// LeaderReporter is an optional Protocol extension for coordination
// protocols: Leader returns the node this protocol currently considers
// leader and whether that choice has stabilized (the protocol's own
// decision criterion — e.g. "no change for k rounds"). Leader-quantified
// stop conditions (StopLeaderStable) read it at round barriers only.
type LeaderReporter interface {
	Leader() (leader int, decided bool)
}

// AmnesiaReseter is an optional Protocol extension for protocols that
// keep node-local state beyond the engine-owned rumor set — heard sets,
// done flags, round-robin cursors, in-flight markers. When a node
// rejoins from an amnesic churn interval the engine resets its rumor
// state and then calls OnAmnesia so the protocol restarts from its
// initial state too; without this facet a protocol would keep acting on
// knowledge the node no longer holds. Discovered link latencies are
// retained either way (they are measured, not gossiped).
type AmnesiaReseter interface {
	OnAmnesia()
}

// Waiter is an optional Protocol extension for protocols with internal
// timers (e.g. timeouts): while Waiting returns true the simulator will
// not declare quiescence even when no activations or deliveries are
// pending, so the protocol gets future Activate calls to fire its timer.
type Waiter interface {
	Waiting() bool
}

// WakeOnDelivery is the Sleeper sentinel for "park me": the protocol has
// nothing to do until an exchange involving it completes (the engine
// re-wakes a node at every delivery it receives), or ever.
const WakeOnDelivery = int(^uint(0) >> 1)

// Sleeper is an optional Protocol extension feeding the activation
// calendar. After each Activate call at round r the engine asks NextWake
// for the earliest round at which the protocol could act again or mutate
// state (e.g. fire a timeout); the engine will not call Activate before
// that round, which lets it skip the idle span entirely. Return
// WakeOnDelivery to park until the next completed exchange.
//
// Contract: between the current round (exclusive) and the reported wake
// round, Activate would have returned ok=false without changing any
// state — including the node's RNG stream. Protocols that cannot promise
// this must not implement Sleeper; they are woken every round, the
// classical schedule. A delivery re-wakes the node regardless of the
// reported round, so "sleep until my exchange returns" is simply
// WakeOnDelivery.
type Sleeper interface {
	NextWake(round int) int
}

// NodeView is the node-local world handed to a protocol: identity,
// adjacency (CSR slices — no per-node allocations), (possibly
// discovered) latencies, the node's rumor set and a private RNG stream.
type NodeView struct {
	id   graph.NodeID
	n    int
	nbrs []int32 // CSR neighbor view, adjacency order
	lats []int32 // CSR latency view, parallel to nbrs
	// known is the latency per adjacency index as this node knows it;
	// -1 = not yet discovered.
	known []int32
	// rum answers rumor membership: a list of the ids, and a bitmap once
	// it holds n/32 of them, so one-to-all runs at n=10⁶ do not pay n bits
	// per node.
	rum bitset.NodeSet
	// journal lists the node's rumors in gain order; the set at any past
	// round is a prefix, which is how exchanges snapshot without cloning.
	journal []int32
	rng     *rand.Rand
}

// gain adds rumor r to the node's set and journal; it reports whether the
// rumor was new. All rumor mutation goes through here so the journal
// stays an exact gain-ordered index of the set. A full set gains nothing
// and its journal, perhaps the engine's shared listing, is not touched.
func (nv *NodeView) gain(r int) bool {
	if len(nv.journal) == nv.n || !nv.rum.Add(r, nv.n, false) {
		return false
	}
	nv.journal = append(nv.journal, int32(r))
	return true
}

// gainWindow is gain applied to a whole delivery window, by the word, for
// a node whose set is a bitmap: the window is marked into mark (one word
// per 32 rumor ids, zero on entry and again on return), the set absorbs
// the marks in one word pass, and only when some bit was new does a
// second pass over the window append the new ids to the journal, in
// window order, clearing each mark bit as it goes. The journal gains
// exactly the ids, in exactly the order, the per-rumor loop would append.
func (nv *NodeView) gainWindow(window, mark []int32) {
	for _, r := range window {
		mark[r>>5] |= 1 << (r & 31)
	}
	if !nv.rum.AbsorbNew(mark) {
		return
	}
	for _, r := range window {
		w, b := r>>5, int32(1)<<(r&31)
		if mark[w]&b != 0 {
			mark[w] &^= b
			nv.journal = append(nv.journal, r)
		}
	}
}

// ID returns the node's identity.
func (nv *NodeView) ID() graph.NodeID { return nv.id }

// N returns the network size (the paper's nodes know a polynomial bound
// on n; we expose n itself and note that every algorithm below uses it
// only inside logarithms, where a polynomial bound changes constants).
func (nv *NodeView) N() int { return nv.n }

// Degree returns the node's degree.
func (nv *NodeView) Degree() int { return len(nv.nbrs) }

// NeighborID returns the node ID of the i-th neighbor.
func (nv *NodeView) NeighborID(i int) graph.NodeID { return int(nv.nbrs[i]) }

// NeighborIndex returns the adjacency index of the given neighbor ID, or
// -1 when id is not adjacent.
func (nv *NodeView) NeighborIndex(id graph.NodeID) int {
	for i, nb := range nv.nbrs {
		if int(nb) == id {
			return i
		}
	}
	return -1
}

// Latency returns the latency of the edge to the i-th neighbor and
// whether the node knows it (true always in KnownLatencies mode; after
// discovery otherwise).
func (nv *NodeView) Latency(i int) (int, bool) {
	l := nv.known[i]
	if l < 0 {
		return 0, false
	}
	return int(l), true
}

// Knows reports whether the node holds rumor r.
func (nv *NodeView) Knows(r int) bool { return nv.rum.Contains(r) }

// Rumors returns the node's rumor set, a read-only view into node-owned
// storage that the node's next gain may change.
func (nv *NodeView) Rumors() bitset.NodeSet { return nv.rum }

// RumorCount returns how many rumors the node holds (the journal length;
// O(1), no popcount).
func (nv *NodeView) RumorCount() int { return len(nv.journal) }

// RNG returns the node's private deterministic random stream.
func (nv *NodeView) RNG() *rand.Rand { return nv.rng }

// Result summarizes a run.
type Result struct {
	// Rounds is the round at which the stop condition first held
	// (deliveries at round r are visible to a stop check at r).
	Rounds int
	// Completed is false when the horizon was hit first.
	Completed bool
	// Exchanges counts initiated exchanges; Messages counts directed
	// messages (2 per exchange, per the bidirectional model).
	Exchanges int64
	Messages  int64
	// Dropped counts exchanges lost to the in-degree cap or the adversity
	// schedule (message loss, churn, crashes, link flaps).
	Dropped int64
	// Delivered counts exchanges whose payload reached both endpoints.
	// Among initiated exchanges, Delivered + (dropped in flight) +
	// (still in flight at stop) == Exchanges; note Dropped additionally
	// counts in-degree-cap refusals, which are never initiated, so
	// Delivered + Dropped can exceed Exchanges when MaxInPerRound is
	// set.
	Delivered int64
	// RumorPayload totals the rumor units carried by delivered
	// exchanges (both directions): the bandwidth cost of full-state
	// gossip, which Section 6 contrasts against push-pull's ability to
	// run with small messages.
	RumorPayload int64
	// InformedAt[u] is the first round node u held the watched rumor
	// (Config.Source's rumor in OneToAll mode; u's own otherwise gives 0),
	// or -1 if never.
	InformedAt []int
	// World exposes the final global state (rumor sets, protocols) so
	// multi-phase procedures can inspect and carry it forward.
	World *World
}

// FinalRumors returns every node's rumor set at the end of the run as
// dense bitsets (a word-level copy where the node already holds one,
// materialized from the gain journal otherwise), suitable for
// Config.InitialRumors of a follow-up phase.
func (r Result) FinalRumors() []*bitset.Set { return rumorSets(r.World.Views) }

func (r Result) String() string {
	return fmt.Sprintf("result{rounds=%d completed=%v exchanges=%d}", r.Rounds, r.Completed, r.Exchanges)
}
