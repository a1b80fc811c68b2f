package graph

import (
	"container/heap"
	"math"
	"slices"
)

// Infinity is the distance reported for unreachable nodes.
const Infinity = math.MaxInt64 / 4

// distItem is a priority-queue entry for Dijkstra.
type distItem struct {
	node NodeID
	dist int64
}

type distHeap []distItem

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distItem)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// Distances returns the weighted shortest-path distance (sum of latencies)
// from src to every node. Unreachable nodes get Infinity.
func (c *CSR) Distances(src NodeID) []int64 {
	dist := make([]int64, c.n)
	for i := range dist {
		dist[i] = Infinity
	}
	dist[src] = 0
	h := &distHeap{{node: src, dist: 0}}
	for h.Len() > 0 {
		it := heap.Pop(h).(distItem)
		if it.dist > dist[it.node] {
			continue
		}
		for h2 := c.offs[it.node]; h2 < c.offs[it.node+1]; h2++ {
			v := c.nbr[h2]
			if nd := it.dist + int64(c.lat[h2]); nd < dist[v] {
				dist[v] = nd
				heap.Push(h, distItem{node: int(v), dist: nd})
			}
		}
	}
	return dist
}

// Eccentricity returns the maximum weighted distance from src to any node,
// or Infinity when some node is unreachable.
func (c *CSR) Eccentricity(src NodeID) int64 {
	return slices.Max(c.Distances(src))
}

// WeightedDiameter returns the exact weighted diameter D: the maximum over
// all pairs of the shortest-path distance. It runs Dijkstra from every
// node (O(n·m·log n)), which is fine at experiment scale.
// Returns Infinity for disconnected graphs.
func (c *CSR) WeightedDiameter() int64 {
	max := int64(0)
	for u := 0; u < c.n; u++ {
		if ecc := c.Eccentricity(u); ecc > max {
			max = ecc
		}
	}
	return max
}
