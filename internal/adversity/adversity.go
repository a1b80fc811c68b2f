// Package adversity declares deterministic fault schedules for the
// simulator: per-edge message loss, node churn (leave/rejoin with rumor
// retention or amnesia), link up/down flaps, and fail-stop crash batches.
//
// A Spec is declarative and seed-free: every round number is absolute
// simulation time and every probability is drawn inside the engine from
// per-node PCG streams, so the same (topology, seed, spec) triple yields
// bit-identical runs at any intra-round worker count. Compile validates a
// Spec against a node count and produces the engine-ready Schedule —
// per-node down intervals, per-edge loss/flap lookups, and the sorted
// calendar of leave/rejoin events the engine interleaves with deliveries.
package adversity

import (
	"fmt"
	"math"
	"sort"

	"gossip/internal/graph"
)

// Forever marks a churn interval whose node never rejoins (equivalent to
// a fail-stop crash at the leave round).
const Forever = -1

// Spec is a declarative fault schedule. The zero value (and nil) is the
// benign network. All rounds are absolute simulation rounds; multi-phase
// pipelines rebase a Spec between phases with Shift.
type Spec struct {
	// Loss is the default per-exchange loss probability in [0,1] applied
	// to every edge: a lost exchange is initiated (and counted) but
	// delivers nothing to either endpoint, like the collapsed round-trip
	// message vanishing in transit.
	Loss float64
	// EdgeLoss overrides Loss on specific edges.
	EdgeLoss []EdgeLoss
	// Churn lists node leave/rejoin intervals.
	Churn []Churn
	// Flaps lists link down intervals.
	Flaps []Flap
	// Crashes lists fail-stop crash batches (permanent leaves).
	Crashes []Crash
}

// EdgeLoss sets the loss probability of one undirected edge.
type EdgeLoss struct {
	U, V graph.NodeID
	// P is the per-exchange loss probability in [0,1].
	P float64
}

// Churn takes a node down during [Leave, Rejoin). While down the node
// does not initiate, and any exchange involving it in flight during the
// interval is lost. Rejoin == Forever means the node never returns.
type Churn struct {
	Node graph.NodeID
	// Leave is the first down round; Rejoin the first round back up.
	Leave, Rejoin int
	// Amnesia discards the node's state at rejoin: the rumor set
	// restarts from the run's initial assignment (own rumor in
	// all-to-all mode, the source rumor if it is a source; in a
	// multi-phase pipeline, the state the node entered the current
	// phase with — the restart cannot reach behind the phase boundary)
	// and the protocol restarts too when it implements
	// sim.AmnesiaReseter. Without Amnesia the node retains everything.
	Amnesia bool
}

// Flap takes the link {U,V} down during [From, To): exchanges traversing
// the edge at any point in the interval are lost. Nodes are unaffected.
type Flap struct {
	U, V     graph.NodeID
	From, To int
}

// Crash fail-stops Nodes at Round (a batch of the classical crash
// schedule): each node leaves at Round and never returns.
type Crash struct {
	Round int
	Nodes []graph.NodeID
}

// Empty reports whether s declares no faults at all (nil-safe).
func (s *Spec) Empty() bool {
	return s == nil || (s.Loss == 0 && len(s.EdgeLoss) == 0 &&
		len(s.Churn) == 0 && len(s.Flaps) == 0 && len(s.Crashes) == 0)
}

// HasFailures reports whether s takes any node down (churn or crashes),
// i.e. whether completion must be judged over alive nodes (nil-safe).
func (s *Spec) HasFailures() bool {
	return s != nil && (len(s.Churn) > 0 || len(s.Crashes) > 0)
}

// HasAmnesia reports whether any churn interval discards state
// (nil-safe). Informed-set growth is monotonic exactly when this is
// false.
func (s *Spec) HasAmnesia() bool {
	if s == nil {
		return false
	}
	for _, c := range s.Churn {
		if c.Amnesia && c.Rejoin != Forever {
			return true
		}
	}
	return false
}

// NeverReturns reports whether node u is permanently gone by the end of
// the schedule: crashed, or churned out without a rejoin (nil-safe).
func (s *Spec) NeverReturns(u graph.NodeID) bool {
	if s == nil {
		return false
	}
	for _, c := range s.Churn {
		if c.Node == u && c.Rejoin == Forever {
			return true
		}
	}
	for _, b := range s.Crashes {
		for _, v := range b.Nodes {
			if v == u {
				return true
			}
		}
	}
	return false
}

// Shift rebases every absolute round by -offset, for a phase that starts
// after offset rounds have already elapsed: intervals entirely in the
// past are dropped (their effect is already baked into the rumor state
// carried between phases), straddling intervals are clamped to start at
// round 0, and loss probabilities are untouched. Nil-safe.
func (s *Spec) Shift(offset int) *Spec {
	if s == nil {
		return nil
	}
	if offset <= 0 {
		return s
	}
	out := &Spec{Loss: s.Loss, EdgeLoss: s.EdgeLoss}
	for _, c := range s.Churn {
		if c.Rejoin != Forever && c.Rejoin-offset <= 0 {
			continue // fully elapsed: retention is a no-op, amnesia already applied
		}
		nc := c
		nc.Leave = max(0, c.Leave-offset)
		if c.Rejoin != Forever {
			nc.Rejoin = c.Rejoin - offset
		}
		out.Churn = append(out.Churn, nc)
	}
	for _, f := range s.Flaps {
		if f.To-offset <= 0 {
			continue
		}
		nf := f
		nf.From = max(0, f.From-offset)
		nf.To = f.To - offset
		out.Flaps = append(out.Flaps, nf)
	}
	for _, b := range s.Crashes {
		nb := b
		nb.Round = max(0, b.Round-offset)
		out.Crashes = append(out.Crashes, nb)
	}
	return out
}

// span is one compiled down interval: [from, to), to == forever for ∞.
type span struct {
	from, to int
	amnesia  bool
}

const forever = math.MaxInt

// Rejoin is one node returning at an Event.
type Rejoin struct {
	Node graph.NodeID
	// Amnesia discards the node's rumor state on return.
	Amnesia bool
}

// Event is one round's worth of alive-set transitions, in the sorted
// calendar the engine walks alongside deliveries and activations.
type Event struct {
	Round  int
	Leave  []graph.NodeID
	Rejoin []Rejoin
}

// Schedule is the compiled, engine-ready form of a Spec.
type Schedule struct {
	loss     float64
	edgeLoss map[uint64]float64
	// down[u] is node u's sorted, disjoint down intervals (nil for the
	// vast majority of nodes, the constant-time fast path).
	down  [][]span
	flaps map[uint64][]span
	// events is the leave/rejoin calendar, sorted by round.
	events  []Event
	hasLoss bool
	// edgeRefs lists every edge named by EdgeLoss/Flaps so the engine
	// can validate them against the topology.
	edgeRefs [][2]graph.NodeID
}

func edgeKey(u, v graph.NodeID) uint64 {
	if u > v {
		u, v = v, u
	}
	return uint64(uint32(u))<<32 | uint64(uint32(v))
}

func validProb(p float64) bool {
	return p >= 0 && p <= 1 // the negated form would also catch NaN; this rejects it too
}

// Compile validates s against an n-node network and returns the
// engine-ready schedule. Malformed probabilities, out-of-range node ids,
// inverted or overlapping intervals all error; Compile never panics.
func (s *Spec) Compile(n int) (*Schedule, error) {
	if n <= 0 {
		return nil, fmt.Errorf("adversity: node count %d", n)
	}
	c := &Schedule{down: make([][]span, n)}
	if s == nil {
		return c, nil
	}
	if !validProb(s.Loss) {
		return nil, fmt.Errorf("adversity: loss probability %v outside [0,1]", s.Loss)
	}
	c.loss = s.Loss
	c.hasLoss = s.Loss > 0
	for _, el := range s.EdgeLoss {
		if err := checkEdge(el.U, el.V, n); err != nil {
			return nil, fmt.Errorf("adversity: edge loss: %w", err)
		}
		if !validProb(el.P) {
			return nil, fmt.Errorf("adversity: edge (%d,%d) loss probability %v outside [0,1]", el.U, el.V, el.P)
		}
		if c.edgeLoss == nil {
			c.edgeLoss = map[uint64]float64{}
		}
		k := edgeKey(el.U, el.V)
		if _, dup := c.edgeLoss[k]; dup {
			return nil, fmt.Errorf("adversity: duplicate edge loss for (%d,%d)", el.U, el.V)
		}
		c.edgeLoss[k] = el.P
		if el.P > 0 {
			c.hasLoss = true
		}
		c.edgeRefs = append(c.edgeRefs, [2]graph.NodeID{el.U, el.V})
	}
	for _, ch := range s.Churn {
		if ch.Node < 0 || ch.Node >= n {
			return nil, fmt.Errorf("adversity: churn node %d out of range [0,%d)", ch.Node, n)
		}
		if ch.Leave < 0 {
			return nil, fmt.Errorf("adversity: churn node %d leave round %d negative", ch.Node, ch.Leave)
		}
		to := ch.Rejoin
		if to == Forever {
			to = forever
		} else if to <= ch.Leave {
			return nil, fmt.Errorf("adversity: churn node %d interval [%d,%d) empty or inverted", ch.Node, ch.Leave, ch.Rejoin)
		}
		c.down[ch.Node] = append(c.down[ch.Node], span{from: ch.Leave, to: to, amnesia: ch.Amnesia})
	}
	for _, b := range s.Crashes {
		if b.Round < 0 {
			return nil, fmt.Errorf("adversity: crash round %d negative", b.Round)
		}
		// A node named in two batches fails the overlap check below: its
		// first crash interval never ends.
		for _, u := range b.Nodes {
			if u < 0 || u >= n {
				return nil, fmt.Errorf("adversity: crash node %d out of range [0,%d)", u, n)
			}
			c.down[u] = append(c.down[u], span{from: b.Round, to: forever})
		}
	}
	for u := range c.down {
		if len(c.down[u]) == 0 {
			continue
		}
		sort.Slice(c.down[u], func(i, j int) bool { return c.down[u][i].from < c.down[u][j].from })
		for i := 1; i < len(c.down[u]); i++ {
			if c.down[u][i-1].to >= c.down[u][i].from {
				return nil, fmt.Errorf("adversity: node %d has overlapping or touching down intervals", u)
			}
		}
	}
	for _, f := range s.Flaps {
		if err := checkEdge(f.U, f.V, n); err != nil {
			return nil, fmt.Errorf("adversity: flap: %w", err)
		}
		if f.From < 0 || f.To <= f.From {
			return nil, fmt.Errorf("adversity: flap (%d,%d) interval [%d,%d) empty or inverted", f.U, f.V, f.From, f.To)
		}
		if c.flaps == nil {
			c.flaps = map[uint64][]span{}
		}
		k := edgeKey(f.U, f.V)
		c.flaps[k] = append(c.flaps[k], span{from: f.From, to: f.To})
		c.edgeRefs = append(c.edgeRefs, [2]graph.NodeID{f.U, f.V})
	}
	for k := range c.flaps {
		fs := c.flaps[k]
		sort.Slice(fs, func(i, j int) bool { return fs[i].from < fs[j].from })
		for i := 1; i < len(fs); i++ {
			if fs[i-1].to > fs[i].from {
				return nil, fmt.Errorf("adversity: overlapping flap intervals on edge (%d,%d)", int(k>>32), int(uint32(k)))
			}
		}
	}
	c.buildEvents()
	return c, nil
}

func checkEdge(u, v graph.NodeID, n int) error {
	if u < 0 || u >= n || v < 0 || v >= n {
		return fmt.Errorf("edge (%d,%d) out of range [0,%d)", u, v, n)
	}
	if u == v {
		return fmt.Errorf("edge (%d,%d) is a self-loop", u, v)
	}
	return nil
}

// buildEvents flattens the per-node down intervals into the sorted
// leave/rejoin calendar, nodes in id order within each round so event
// application is deterministic.
func (c *Schedule) buildEvents() {
	byRound := map[int]*Event{}
	at := func(r int) *Event {
		ev := byRound[r]
		if ev == nil {
			ev = &Event{Round: r}
			byRound[r] = ev
		}
		return ev
	}
	for u := range c.down {
		for _, sp := range c.down[u] {
			at(sp.from).Leave = append(at(sp.from).Leave, u)
			if sp.to != forever {
				at(sp.to).Rejoin = append(at(sp.to).Rejoin, Rejoin{Node: u, Amnesia: sp.amnesia})
			}
		}
	}
	for _, ev := range byRound {
		sort.Ints(ev.Leave)
		sort.Slice(ev.Rejoin, func(i, j int) bool { return ev.Rejoin[i].Node < ev.Rejoin[j].Node })
		c.events = append(c.events, *ev)
	}
	sort.Slice(c.events, func(i, j int) bool { return c.events[i].Round < c.events[j].Round })
}

// HasLoss reports whether any edge can lose exchanges (the engine only
// allocates per-node loss streams when true).
func (c *Schedule) HasLoss() bool { return c.hasLoss }

// LossProb returns the loss probability of edge {u,v}.
func (c *Schedule) LossProb(u, v graph.NodeID) float64 {
	if c.edgeLoss != nil {
		if p, ok := c.edgeLoss[edgeKey(u, v)]; ok {
			return p
		}
	}
	return c.loss
}

// Down reports whether node u is down at round r.
func (c *Schedule) Down(u graph.NodeID, r int) bool {
	spans := c.down[u]
	if len(spans) == 0 {
		return false
	}
	for _, sp := range spans {
		if sp.from > r {
			return false
		}
		if r < sp.to {
			return true
		}
	}
	return false
}

// DownDuring reports whether node u is down at any round in [from, to]
// (the transit window of an exchange: if so, the exchange is lost).
func (c *Schedule) DownDuring(u graph.NodeID, from, to int) bool {
	spans := c.down[u]
	if len(spans) == 0 {
		return false
	}
	for _, sp := range spans {
		if sp.from > to {
			return false
		}
		if sp.to > from {
			return true
		}
	}
	return false
}

// LinkDownDuring reports whether edge {u,v} flaps down at any round in
// [from, to].
func (c *Schedule) LinkDownDuring(u, v graph.NodeID, from, to int) bool {
	if c.flaps == nil {
		return false
	}
	for _, sp := range c.flaps[edgeKey(u, v)] {
		if sp.from > to {
			return false
		}
		if sp.to > from {
			return true
		}
	}
	return false
}

// Events returns the sorted leave/rejoin calendar.
func (c *Schedule) Events() []Event { return c.events }

// EdgeRefs returns every edge named by the spec (loss overrides and
// flaps) so callers can validate them against the topology.
func (c *Schedule) EdgeRefs() [][2]graph.NodeID { return c.edgeRefs }
