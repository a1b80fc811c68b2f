package graph

import (
	"fmt"
	"slices"
	"sync"
)

// CSR is an immutable compressed-sparse-row view of a latency graph: the
// substrate representation for million-node simulations. Adjacency lives
// in three flat int32 arrays (neighbor ids, latencies, reverse half-edge
// indices) indexed by a per-node offset table, so degree and neighbor
// slicing are O(1) with no per-node allocations and no pointer chasing.
//
// Half-edge h of node u (h in [Offset(u), Offset(u+1))) points at
// neighbor nbr[h] over an edge of latency lat[h]; mate[h] is the index of
// the reverse half-edge, so the adjacency index of u at its neighbor is
// mate[h]-Offset(nbr[h]) — an O(1) answer to the reverse-index query the
// simulator asks on every exchange.
//
// Build one with a CSRBuilder (streaming generators) or Graph.CSR()
// (conversion that preserves the legacy adjacency order, which keeps
// seeded protocol runs bit-identical across representations).
type CSR struct {
	n      int
	offs   []int32 // len n+1
	nbr    []int32 // len 2m
	lat    []int32 // len 2m
	mate   []int32 // len 2m
	maxLat int

	// Validate's verdict, computed once: the arrays never change after
	// construction, and every engine phase of a pipeline asks.
	validOnce sync.Once
	validErr  error
}

// N returns the number of nodes.
func (c *CSR) N() int { return c.n }

// M returns the number of undirected edges.
func (c *CSR) M() int { return len(c.nbr) / 2 }

// HalfEdges returns the number of directed half-edges (2·M).
func (c *CSR) HalfEdges() int { return len(c.nbr) }

// Offset returns the index of node u's first half-edge.
func (c *CSR) Offset(u int) int32 { return c.offs[u] }

// Degree returns the number of edges incident to u.
func (c *CSR) Degree(u int) int { return int(c.offs[u+1] - c.offs[u]) }

// NeighborIDs returns u's neighbors as a read-only view into the CSR
// arrays, in adjacency order.
func (c *CSR) NeighborIDs(u int) []int32 { return c.nbr[c.offs[u]:c.offs[u+1]] }

// Latencies returns the latencies of u's incident edges as a read-only
// view parallel to NeighborIDs.
func (c *CSR) Latencies(u int) []int32 { return c.lat[c.offs[u]:c.offs[u+1]] }

// Mates returns, parallel to NeighborIDs, the flat half-edge index of each
// incident edge's reverse half — the key under which a per-half-edge side
// table holds the neighbor's view of the same edge.
func (c *CSR) Mates(u int) []int32 { return c.mate[c.offs[u]:c.offs[u+1]] }

// PeerIndex returns the adjacency index of u in the list of its i-th
// neighbor — the reverse-index lookup, O(1) via the mate table.
func (c *CSR) PeerIndex(u, i int) int {
	h := c.offs[u] + int32(i)
	return int(c.mate[h] - c.offs[c.nbr[h]])
}

// HalfIndex returns the flat half-edge index of u's i-th adjacency slot,
// usable as a key into per-half-edge side tables.
func (c *CSR) HalfIndex(u, i int) int { return int(c.offs[u]) + i }

// MaxDegree returns the maximum degree over all nodes.
func (c *CSR) MaxDegree() int {
	max := 0
	for u := 0; u < c.n; u++ {
		if d := c.Degree(u); d > max {
			max = d
		}
	}
	return max
}

// MaxLatency returns the largest edge latency (0 for an edgeless graph).
func (c *CSR) MaxLatency() int { return c.maxLat }

// DistinctLatencies returns the sorted set of distinct edge latencies.
func (c *CSR) DistinctLatencies() []int {
	seen := make(map[int32]bool)
	for _, l := range c.lat {
		seen[l] = true
	}
	out := make([]int, 0, len(seen))
	for l := range seen {
		out = append(out, int(l))
	}
	slices.Sort(out)
	return out
}

// Volume returns the sum of degrees of the nodes for which in[u] is true.
func (c *CSR) Volume(in []bool) int {
	vol := 0
	for u := 0; u < c.n; u++ {
		if in[u] {
			vol += c.Degree(u)
		}
	}
	return vol
}

// ForEachEdge calls fn once per undirected edge (u < v by half-edge
// canonicalization: the half with the smaller flat index reports).
func (c *CSR) ForEachEdge(fn func(u, v, latency int)) {
	for u := 0; u < c.n; u++ {
		for h := c.offs[u]; h < c.offs[u+1]; h++ {
			if c.mate[h] > h {
				fn(u, int(c.nbr[h]), int(c.lat[h]))
			}
		}
	}
}

// Connected reports whether the graph is connected (ignoring latencies).
func (c *CSR) Connected() bool {
	if c.n == 0 {
		return true
	}
	seen := make([]bool, c.n)
	stack := make([]int32, 0, 1024)
	stack = append(stack, 0)
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, v := range c.NeighborIDs(int(u)) {
			if !seen[v] {
				seen[v] = true
				count++
				stack = append(stack, v)
			}
		}
	}
	return count == c.n
}

// Validate checks the structural invariants of a paper-model network in
// CSR form: at least one node, connected, positive latencies, and a
// consistent mate involution (mate[mate[h]] == h with matching
// endpoints and latencies). The CSR is immutable, so the check runs once
// and every later call (from any goroutine) returns the same verdict.
func (c *CSR) Validate() error {
	c.validOnce.Do(func() { c.validErr = c.validate() })
	return c.validErr
}

func (c *CSR) validate() error {
	if c.n == 0 {
		return fmt.Errorf("graph: empty CSR")
	}
	if len(c.offs) != c.n+1 || int(c.offs[c.n]) != len(c.nbr) ||
		len(c.lat) != len(c.nbr) || len(c.mate) != len(c.nbr) {
		return fmt.Errorf("graph: inconsistent CSR array lengths")
	}
	for u := 0; u < c.n; u++ {
		for h := c.offs[u]; h < c.offs[u+1]; h++ {
			v := c.nbr[h]
			if v < 0 || int(v) >= c.n {
				return fmt.Errorf("graph: CSR neighbor %d out of range", v)
			}
			if int(v) == u {
				return fmt.Errorf("graph: CSR self-loop at node %d", u)
			}
			if c.lat[h] < 1 {
				return fmt.Errorf("graph: CSR edge (%d,%d) has latency %d < 1", u, v, c.lat[h])
			}
			m := c.mate[h]
			if m < 0 || int(m) >= len(c.nbr) || c.mate[m] != h {
				return fmt.Errorf("graph: CSR mate table broken at half-edge %d", h)
			}
			if int(c.nbr[m]) != u || c.lat[m] != c.lat[h] ||
				m < c.offs[v] || m >= c.offs[v+1] {
				return fmt.Errorf("graph: CSR mate of (%d,%d) does not point back", u, v)
			}
		}
	}
	if !c.Connected() {
		return fmt.Errorf("graph: not connected")
	}
	return nil
}

// String summarizes the CSR for debugging.
func (c *CSR) String() string {
	return fmt.Sprintf("csr{n=%d m=%d Δ=%d ℓmax=%d}", c.n, c.M(), c.MaxDegree(), c.maxLat)
}

// CSR returns g's compressed sparse row form, which preserves g's
// adjacency order exactly: protocols that index neighbors by adjacency
// position (every registered driver) behave bit-identically on either
// representation under the same seed. The first call converts and
// publishes the result; every later call until the next edit returns the
// same pointer, so one graph is converted, and validated, once.
// Concurrent first calls all return the one published CSR.
func (g *Graph) CSR() *CSR {
	if c := g.csr.Load(); c != nil {
		return c
	}
	g.csr.CompareAndSwap(nil, g.convert())
	return g.csr.Load()
}

// convert builds a fresh CSR from g's adjacency lists.
func (g *Graph) convert() *CSR {
	n := g.n
	c := &CSR{n: n, offs: make([]int32, n+1)}
	for u := 0; u < n; u++ {
		c.offs[u+1] = c.offs[u] + int32(len(g.adj[u]))
	}
	total := int(c.offs[n])
	c.nbr = make([]int32, total)
	c.lat = make([]int32, total)
	c.mate = make([]int32, total)
	// epos[e] is the first-seen half-edge position of edge index e, so the
	// second half can link mates without any map.
	epos := make([]int32, len(g.edges))
	for i := range epos {
		epos[i] = -1
	}
	for u := 0; u < n; u++ {
		for i, h := range g.adj[u] {
			p := c.offs[u] + int32(i)
			c.nbr[p] = int32(h.to)
			c.lat[p] = int32(h.latency)
			if h.latency > c.maxLat {
				c.maxLat = h.latency
			}
			if q := epos[h.index]; q >= 0 {
				c.mate[p] = q
				c.mate[q] = p
			} else {
				epos[h.index] = p
			}
		}
	}
	return c
}

// CSRBuilder accumulates a streamed undirected edge list and finalizes
// it into a CSR in two passes (degree count, then placement) — flat
// arrays only, no intermediate adjacency maps, which is what makes
// million-node graph generation feasible.
type CSRBuilder struct {
	n    int
	us   []int32
	vs   []int32
	lats []int32
}

// NewCSRBuilder returns a builder for a graph on n nodes.
func NewCSRBuilder(n int) *CSRBuilder {
	if n <= 0 {
		panic(fmt.Sprintf("graph: non-positive node count %d", n))
	}
	return &CSRBuilder{n: n}
}

// AddEdge appends the undirected edge (u,v). Endpoint range, self-loops
// and latency positivity are checked here; duplicate edges are detected
// at Finalize (a streaming builder has no per-pair index to consult).
func (b *CSRBuilder) AddEdge(u, v, latency int) error {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if latency < 1 {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive latency %d", u, v, latency)
	}
	b.us = append(b.us, int32(u))
	b.vs = append(b.vs, int32(v))
	b.lats = append(b.lats, int32(latency))
	return nil
}

// MustAddEdge is AddEdge that panics on error; generators use it because
// their edge sets are correct by construction.
func (b *CSRBuilder) MustAddEdge(u, v, latency int) {
	if err := b.AddEdge(u, v, latency); err != nil {
		panic(err)
	}
}

// Finalize builds the CSR: counting pass, prefix sum, placement pass,
// with mates linked directly and duplicates rejected by a stamped
// single-array sweep (no sorting, no maps).
func (b *CSRBuilder) Finalize() (*CSR, error) {
	n := b.n
	c := &CSR{n: n, offs: make([]int32, n+1)}
	deg := make([]int32, n)
	for i := range b.us {
		deg[b.us[i]]++
		deg[b.vs[i]]++
	}
	for u := 0; u < n; u++ {
		c.offs[u+1] = c.offs[u] + deg[u]
	}
	total := int(c.offs[n])
	c.nbr = make([]int32, total)
	c.lat = make([]int32, total)
	c.mate = make([]int32, total)
	cursor := deg // reuse: cursor[u] = next free slot of u
	copy(cursor, c.offs[:n])
	for i := range b.us {
		u, v, l := b.us[i], b.vs[i], b.lats[i]
		pu, pv := cursor[u], cursor[v]
		cursor[u]++
		cursor[v]++
		c.nbr[pu], c.lat[pu] = v, l
		c.nbr[pv], c.lat[pv] = u, l
		c.mate[pu], c.mate[pv] = pv, pu
		if int(l) > c.maxLat {
			c.maxLat = int(l)
		}
	}
	// Duplicate sweep: stamp[v] = u+1 while scanning u's list.
	stamp := make([]int32, n)
	for u := 0; u < n; u++ {
		for _, v := range c.NeighborIDs(u) {
			if stamp[v] == int32(u)+1 {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
			}
			stamp[v] = int32(u) + 1
		}
	}
	return c, nil
}
