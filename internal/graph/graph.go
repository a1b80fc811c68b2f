// Package graph implements the weighted undirected graphs of the paper's
// model: connected graphs whose edges carry positive integer latencies.
// Generators build the adjacency-map Graph; everything downstream of them
// reads its immutable CSR form, which answers the structural queries —
// degrees, volumes, distinct latencies, Dijkstra distances and the
// weighted diameter.
package graph

import "fmt"

// NodeID identifies a node; nodes are always numbered 0..N-1.
type NodeID = int

// Edge is an undirected edge with an integer latency (the paper's edge
// weight). Invariant: U < V and Latency >= 1.
type Edge struct {
	U, V    NodeID
	Latency int
}

// halfEdge is the adjacency-list entry stored at each endpoint.
type halfEdge struct {
	to      NodeID
	latency int
	index   int // index into Graph.edges
}

// Graph is a weighted undirected multigraph-free graph. The zero value is
// unusable; construct with New.
type Graph struct {
	n     int
	adj   [][]halfEdge
	edges []Edge
	// edgeIdx maps the canonical (u,v) pair (u<v) to the edge index so
	// duplicate insertions are rejected and latency lookups are O(1)
	// without scanning adjacency lists.
	edgeIdx map[[2]NodeID]int
}

// New returns an empty graph on n nodes.
func New(n int) *Graph {
	if n <= 0 {
		panic(fmt.Sprintf("graph: non-positive node count %d", n))
	}
	return &Graph{
		n:       n,
		adj:     make([][]halfEdge, n),
		edgeIdx: make(map[[2]NodeID]int),
	}
}

// N returns the number of nodes.
func (g *Graph) N() int { return g.n }

// M returns the number of edges.
func (g *Graph) M() int { return len(g.edges) }

// AddEdge inserts the undirected edge (u,v) with the given latency.
// It returns an error when the endpoints are invalid, equal, the latency
// is < 1, or the edge already exists.
func (g *Graph) AddEdge(u, v NodeID, latency int) error {
	if u < 0 || u >= g.n || v < 0 || v >= g.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, g.n)
	}
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if latency < 1 {
		return fmt.Errorf("graph: edge (%d,%d) has non-positive latency %d", u, v, latency)
	}
	if u > v {
		u, v = v, u
	}
	key := [2]NodeID{u, v}
	if _, ok := g.edgeIdx[key]; ok {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	idx := len(g.edges)
	g.edges = append(g.edges, Edge{U: u, V: v, Latency: latency})
	g.edgeIdx[key] = idx
	g.adj[u] = append(g.adj[u], halfEdge{to: v, latency: latency, index: idx})
	g.adj[v] = append(g.adj[v], halfEdge{to: u, latency: latency, index: idx})
	return nil
}

// MustAddEdge is AddEdge that panics on error; generators use it because
// their edge sets are correct by construction.
func (g *Graph) MustAddEdge(u, v NodeID, latency int) {
	if err := g.AddEdge(u, v, latency); err != nil {
		panic(err)
	}
}

// HasEdge reports whether the undirected edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := g.edgeIdx[[2]NodeID{u, v}]
	return ok
}

// Latency returns the latency of edge (u,v) and whether the edge exists.
func (g *Graph) Latency(u, v NodeID) (int, bool) {
	if u > v {
		u, v = v, u
	}
	idx, ok := g.edgeIdx[[2]NodeID{u, v}]
	if !ok {
		return 0, false
	}
	return g.edges[idx].Latency, true
}

// SetLatency changes the latency of an existing edge.
func (g *Graph) SetLatency(u, v NodeID, latency int) error {
	if latency < 1 {
		return fmt.Errorf("graph: non-positive latency %d", latency)
	}
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	idx, ok := g.edgeIdx[[2]NodeID{a, b}]
	if !ok {
		return fmt.Errorf("graph: edge (%d,%d) does not exist", u, v)
	}
	g.edges[idx].Latency = latency
	for _, end := range []NodeID{a, b} {
		for i := range g.adj[end] {
			if g.adj[end][i].index == idx {
				g.adj[end][i].latency = latency
			}
		}
	}
	return nil
}

// RemoveEdge deletes the undirected edge (u,v). The last edge in the edge
// list is swapped into the vacated slot, so edge order is not stable
// across removals.
func (g *Graph) RemoveEdge(u, v NodeID) error {
	a, b := u, v
	if a > b {
		a, b = b, a
	}
	idx, ok := g.edgeIdx[[2]NodeID{a, b}]
	if !ok {
		return fmt.Errorf("graph: cannot remove missing edge (%d,%d)", u, v)
	}
	dropHalf := func(node NodeID) {
		adj := g.adj[node]
		for i := range adj {
			if adj[i].index == idx {
				adj[i] = adj[len(adj)-1]
				g.adj[node] = adj[:len(adj)-1]
				return
			}
		}
	}
	dropHalf(a)
	dropHalf(b)
	delete(g.edgeIdx, [2]NodeID{a, b})
	last := len(g.edges) - 1
	if idx != last {
		moved := g.edges[last]
		g.edges[idx] = moved
		g.edgeIdx[[2]NodeID{moved.U, moved.V}] = idx
		for _, end := range []NodeID{moved.U, moved.V} {
			for i := range g.adj[end] {
				if g.adj[end][i].index == last {
					g.adj[end][i].index = idx
				}
			}
		}
	}
	g.edges = g.edges[:last]
	return nil
}

// Degree returns the number of edges incident to u.
func (g *Graph) Degree(u NodeID) int { return len(g.adj[u]) }

// MaxDegree returns the maximum degree over all nodes.
func (g *Graph) MaxDegree() int {
	max := 0
	for u := 0; u < g.n; u++ {
		if d := len(g.adj[u]); d > max {
			max = d
		}
	}
	return max
}

// Neighbor describes one incident edge from the perspective of a node.
type Neighbor struct {
	ID      NodeID
	Latency int
}

// Neighbors returns u's neighbors with edge latencies, in insertion order.
func (g *Graph) Neighbors(u NodeID) []Neighbor {
	out := make([]Neighbor, len(g.adj[u]))
	for i, h := range g.adj[u] {
		out[i] = Neighbor{ID: h.to, Latency: h.latency}
	}
	return out
}

// NeighborIDs returns just the neighbor IDs of u, in insertion order.
func (g *Graph) NeighborIDs(u NodeID) []NodeID {
	out := make([]NodeID, len(g.adj[u]))
	for i, h := range g.adj[u] {
		out[i] = h.to
	}
	return out
}

// Edges returns a copy of the edge list.
func (g *Graph) Edges() []Edge {
	return append([]Edge(nil), g.edges...)
}

// ForEachEdge calls fn once per undirected edge.
func (g *Graph) ForEachEdge(fn func(e Edge)) {
	for _, e := range g.edges {
		fn(e)
	}
}

// MaxLatency returns the largest edge latency (ℓmax), or 0 for an
// edgeless graph.
func (g *Graph) MaxLatency() int {
	max := 0
	for _, e := range g.edges {
		if e.Latency > max {
			max = e.Latency
		}
	}
	return max
}

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	for _, e := range g.edges {
		c.MustAddEdge(e.U, e.V, e.Latency)
	}
	return c
}

// Connected reports whether the graph is connected (ignoring latencies).
func (g *Graph) Connected() bool {
	if g.n == 0 {
		return true
	}
	seen := make([]bool, g.n)
	stack := []NodeID{0}
	seen[0] = true
	count := 1
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[u] {
			if !seen[h.to] {
				seen[h.to] = true
				count++
				stack = append(stack, h.to)
			}
		}
	}
	return count == g.n
}

// Validate checks the structural invariants a paper-model network must
// satisfy: at least one node, connected, all latencies >= 1.
func (g *Graph) Validate() error {
	if g.n == 0 {
		return fmt.Errorf("graph: empty graph")
	}
	for _, e := range g.edges {
		if e.Latency < 1 {
			return fmt.Errorf("graph: edge (%d,%d) has latency %d < 1", e.U, e.V, e.Latency)
		}
	}
	if !g.Connected() {
		return fmt.Errorf("graph: not connected")
	}
	return nil
}

// String summarizes the graph for debugging.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{n=%d m=%d Δ=%d ℓmax=%d}", g.n, g.M(), g.MaxDegree(), g.MaxLatency())
}
