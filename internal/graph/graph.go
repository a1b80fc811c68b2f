// Package graph implements the weighted undirected graphs of the paper's
// model: connected graphs whose edges carry positive integer latencies.
// Graph is the builder: generators, loaders and editors add, re-weight and
// remove edges through its pair index. Everything downstream reads the
// graph's one immutable CSR, which answers every structural query —
// degrees, connectivity, validity, volumes, distinct latencies, Dijkstra
// distances and the weighted diameter. A graph converts once: Graph.CSR
// memoizes its CSR until the next edit.
package graph

import (
	"fmt"
	"sync/atomic"
)

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

// Graph is a weighted undirected multigraph-free graph under
// construction. The zero value is unusable; construct with New. Edits and
// CSR calls must not run concurrently with each other, but any number of
// goroutines may call CSR at once on a graph no one is editing.
type Graph struct {
	n     int
	adj   [][]halfEdge
	edges []Edge
	// edgeIdx maps the canonical (u,v) pair (u<v) to the edge index so
	// duplicate insertions are rejected and latency lookups are O(1)
	// without scanning adjacency lists.
	edgeIdx map[[2]NodeID]int
	// csr is the graph's CSR, published by the first CSR call and dropped
	// by every edit.
	csr atomic.Pointer[CSR]
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
	g.csr.Store(nil)
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
	g.csr.Store(nil)
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
	g.csr.Store(nil)
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

// Neighbor describes one incident edge from the perspective of a node.
type Neighbor struct {
	ID      NodeID
	Latency int
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
