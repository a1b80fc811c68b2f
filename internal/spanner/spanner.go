// Package spanner implements the directed (2k-1)-spanner construction of
// Section 4.1.2: Baswana-Sen clustering adapted so that every edge added
// to the spanner is oriented away from the node that added it, which keeps
// the maximum out-degree at O(n^(1/k) log n) w.h.p. (Lemma 19) — O(log n)
// for k = ceil(log2 n).
//
// The construction is centralized. The paper runs it as a local
// computation at every node after the ℓ-DTG phases have collected the
// (k+1)-hop neighborhood (Theorem 20); cluster-center coin flips are a
// deterministic function of (iteration, centerID) under a shared seed,
// which is equivalent to each center flipping one coin and broadcasting it
// within the collected neighborhood.
package spanner

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"

	"gossip/internal/graph"
)

// Spanner is the oriented spanner: Out[v] lists v's outgoing spanner
// edges. The undirected spanner is the union of all oriented edges.
type Spanner struct {
	// K is the clustering depth; the undirected stretch is 2K-1.
	K int
	// Out[v] holds v's out-edges with their latencies, sorted by ID.
	Out   [][]graph.Neighbor
	edges int
}

// Options configures Build.
type Options struct {
	// K is the number of clustering iterations (stretch 2K-1).
	// Default DefaultK(n).
	K int
	// NHat is the network-size estimate nˆ used for the sampling
	// probability nˆ^(-1/k); the paper only needs n <= nˆ <= poly(n).
	// Default n.
	NHat int
	// Seed drives the shared cluster-sampling coins.
	Seed uint64
	// MaxLatency, when positive, restricts the construction to edges of
	// latency <= MaxLatency (the G_k subgraph used by RR Broadcast).
	MaxLatency int
}

// DefaultK is the clustering depth the paper uses on n >= 1 nodes:
// ceil(log2 n), at least 1.
func DefaultK(n int) int { return max(bits.Len(uint(n-1)), 1) }

// Build runs the oriented Baswana-Sen construction on g.
func Build(g *graph.Graph, opts Options) (*Spanner, error) {
	return BuildCSR(g.CSR(), opts)
}

// clusterEdge is the cheapest alive edge from the node being processed
// into one adjacent cluster: half-edge h, reaching node to at latency lat.
type clusterEdge struct {
	center  graph.NodeID
	h       int
	to, lat int
	// drop marks the cluster's edges for discarding once a rule has fired.
	drop bool
}

// less orders two edges out of node v by (latency, smaller endpoint,
// larger endpoint) — the distinct-weight tie-break the paper prescribes
// ("use the unique node IDs to break ties").
func (a *clusterEdge) less(b *clusterEdge, v graph.NodeID) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	if alo, blo := min(v, a.to), min(v, b.to); alo != blo {
		return alo < blo
	}
	return max(v, a.to) < max(v, b.to)
}

// BuildCSR runs the oriented Baswana-Sen construction on c, entirely over
// the CSR half-edge arrays: an alive mask and a spanner mask per half-edge
// (cleared in pairs through the mate table) and one per-center scratch
// slot array, so the allocations are a fixed handful of flat slices
// however many clustering iterations run.
func BuildCSR(c *graph.CSR, opts Options) (*Spanner, error) {
	n := c.N()
	if n < 1 {
		return nil, fmt.Errorf("spanner: empty graph")
	}
	k := opts.K
	if k <= 0 {
		k = DefaultK(n)
	}
	nHat := opts.NHat
	if nHat <= 0 {
		nHat = n
	}
	if nHat < n {
		return nil, fmt.Errorf("spanner: nHat=%d below n=%d", nHat, n)
	}
	rng := rand.New(rand.NewPCG(opts.Seed, opts.Seed^0xabcdef1234567891))
	sampleP := math.Pow(float64(nHat), -1.0/float64(k))

	// alive[h]: half-edge h is still under consideration; both halves of
	// an edge leave together. out[h]: the edge is in the spanner, oriented
	// away from h's owner.
	alive := make([]bool, c.HalfEdges())
	out := make([]bool, c.HalfEdges())
	for u := 0; u < n; u++ {
		off := int(c.Offset(u))
		for i, l := range c.Latencies(u) {
			alive[off+i] = opts.MaxLatency <= 0 || int(l) <= opts.MaxLatency
		}
	}
	// cluster[v] is the center of v's current cluster, or -1 once v has
	// fallen out of the clustering (Rule 1 fired for v). Surviving clusters
	// are the sampled ones, which keep every member including the center,
	// so ctr is an active center exactly when cluster[ctr] == ctr.
	cluster := make([]graph.NodeID, n)
	next := make([]graph.NodeID, n)
	for v := range cluster {
		cluster[v] = v // iteration 0: every node is its own center
	}
	sampled := make([]bool, n)
	// slot[ctr] is 1 + the index in best of center ctr's entry while one
	// node is being processed; best is also the touched list that resets it.
	slot := make([]int32, n)
	var best []clusterEdge

	// bestEdges fills best with the minimum alive edge from v into every
	// adjacent cluster.
	bestEdges := func(v graph.NodeID) {
		best = best[:0]
		off := int(c.Offset(v))
		lats := c.Latencies(v)
		for i, u := range c.NeighborIDs(v) {
			ctr := cluster[u]
			if !alive[off+i] || ctr < 0 {
				continue // discarded, or the neighbor has left the clustering
			}
			e := clusterEdge{center: ctr, h: off + i, to: int(u), lat: int(lats[i])}
			if s := slot[ctr]; s == 0 {
				best = append(best, e)
				slot[ctr] = int32(len(best))
			} else if e.less(&best[s-1], v) {
				best[s-1] = e
			}
		}
	}
	// release discards every alive edge from v into a cluster marked drop
	// and returns the slots bestEdges claimed.
	release := func(v graph.NodeID) {
		off := int(c.Offset(v))
		mates := c.Mates(v)
		for i, u := range c.NeighborIDs(v) {
			if ctr := cluster[u]; alive[off+i] && ctr >= 0 && best[slot[ctr]-1].drop {
				alive[off+i], alive[mates[i]] = false, false
			}
		}
		for i := range best {
			slot[best[i].center] = 0
		}
	}

	for it := 1; it < k; it++ {
		// Sample the surviving centers; drawing in ascending center order
		// keeps runs reproducible. Members of sampled clusters stay put.
		for ctr := 0; ctr < n; ctr++ {
			sampled[ctr] = cluster[ctr] == ctr && rng.Float64() < sampleP
		}
		for v := 0; v < n; v++ {
			next[v] = -1
			if cluster[v] >= 0 && sampled[cluster[v]] {
				next[v] = cluster[v]
			}
		}
		for v := 0; v < n; v++ {
			if cluster[v] < 0 || next[v] >= 0 {
				continue // out of the clustering, or in a sampled cluster
			}
			bestEdges(v)
			// e_v: the least edge into an adjacent *sampled* cluster.
			var join *clusterEdge
			for i := range best {
				if ce := &best[i]; sampled[ce.center] && (join == nil || ce.less(join, v)) {
					join = ce
				}
			}
			// Rule 1 (no adjacent sampled cluster): keep the least weight
			// edge to every adjacent cluster, discard the rest, and leave
			// the clustering. Rule 2: join the closest sampled cluster via
			// e_v and keep one edge to every adjacent cluster strictly
			// cheaper than e_v. Either way all edges into the clusters so
			// processed leave consideration — the joined one included,
			// since e_v is already in the spanner and later iterations only
			// look at inter-cluster edges.
			for i := range best {
				ce := &best[i]
				if ce.drop = join == nil || ce == join || ce.less(join, v); ce.drop {
					out[ce.h] = true
				}
			}
			if join != nil {
				next[v] = join.center
			}
			release(v)
		}
		cluster, next = next, cluster
	}

	// Final iteration: every node keeps its least weight edge to each
	// adjacent surviving cluster.
	for v := 0; v < n; v++ {
		bestEdges(v)
		for i := range best {
			out[best[i].h] = true
			slot[best[i].center] = 0
		}
	}

	// Materialize the out mask: Out lists carved from one backing array,
	// and the undirected edge count (an edge oriented both ways is one).
	sp := &Spanner{K: k, Out: make([][]graph.Neighbor, n)}
	total := 0
	for _, o := range out {
		if o {
			total++
		}
	}
	backing := make([]graph.Neighbor, 0, total)
	for v := 0; v < n; v++ {
		off := int(c.Offset(v))
		lats, mates := c.Latencies(v), c.Mates(v)
		start := len(backing)
		for i, u := range c.NeighborIDs(v) {
			if !out[off+i] {
				continue
			}
			backing = append(backing, graph.Neighbor{ID: int(u), Latency: int(lats[i])})
			if m := int(mates[i]); !out[m] || off+i < m {
				sp.edges++
			}
		}
		sp.Out[v] = backing[start:len(backing):len(backing)]
		slices.SortFunc(sp.Out[v], func(a, b graph.Neighbor) int { return a.ID - b.ID })
	}
	return sp, nil
}

// NumEdges returns the number of distinct undirected spanner edges.
func (s *Spanner) NumEdges() int { return s.edges }

// MaxOutDegree returns the maximum out-degree over all nodes.
func (s *Spanner) MaxOutDegree() int {
	deg := 0
	for _, outs := range s.Out {
		deg = max(deg, len(outs))
	}
	return deg
}

// csr returns the undirected spanner as a CSR on the same node set.
func (s *Spanner) csr() *graph.CSR {
	b := graph.NewCSRBuilder(len(s.Out))
	for u, outs := range s.Out {
		for _, e := range outs {
			// An edge both ends added is kept once, from its smaller end.
			if u < e.ID || !slices.ContainsFunc(s.Out[e.ID], func(x graph.Neighbor) bool { return x.ID == u }) {
				b.MustAddEdge(u, e.ID, e.Latency)
			}
		}
	}
	c, err := b.Finalize()
	if err != nil {
		panic(err) // Build never orients one edge twice from the same end
	}
	return c
}

// Stretch samples up to pairs node pairs and returns the maximum observed
// ratio spanner-distance / graph-distance (both weighted). A correct
// (2k-1)-spanner never exceeds 2K-1.
func (s *Spanner) Stretch(g *graph.CSR, pairs int, rng *rand.Rand) float64 {
	sg := s.csr()
	worst := 1.0
	for i := 0; i < pairs; i++ {
		u := rng.IntN(g.N())
		dg := g.Distances(u)
		ds := sg.Distances(u)
		for v := 0; v < g.N(); v++ {
			if v == u || dg[v] <= 0 || dg[v] >= graph.Infinity {
				continue
			}
			if ds[v] >= graph.Infinity {
				return math.Inf(1)
			}
			if r := float64(ds[v]) / float64(dg[v]); r > worst {
				worst = r
			}
		}
	}
	return worst
}
