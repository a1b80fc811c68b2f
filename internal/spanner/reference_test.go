package spanner

import (
	"fmt"
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// This file is the map-based Baswana-Sen construction the package shipped
// before BuildCSR, kept verbatim (identifiers prefixed ref) as the
// differential oracle for the flat-array rewrite: BuildCSR must reproduce
// its Out lists bit for bit.

// refEdgeKey orders edges by (latency, endpoints) — the distinct-weight
// tie-break the paper prescribes ("use the unique node IDs to break ties").
type refEdgeKey struct {
	lat  int
	u, v graph.NodeID
}

func refKeyOf(u, v graph.NodeID, lat int) refEdgeKey {
	if u > v {
		u, v = v, u
	}
	return refEdgeKey{lat: lat, u: u, v: v}
}

func (a refEdgeKey) less(b refEdgeKey) bool {
	if a.lat != b.lat {
		return a.lat < b.lat
	}
	if a.u != b.u {
		return a.u < b.u
	}
	return a.v < b.v
}

// referenceBuild runs the oriented Baswana-Sen construction on g.
func referenceBuild(g *graph.Graph, opts Options) (*Spanner, error) {
	n := g.N()
	if n < 1 {
		return nil, fmt.Errorf("spanner: empty graph")
	}
	k := opts.K
	if k <= 0 {
		k = log2Ceil(n)
		if k < 1 {
			k = 1
		}
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

	sp := &Spanner{K: k, Out: make([][]graph.Neighbor, n)}
	addOut := func(from, to graph.NodeID, lat int) {
		for _, e := range sp.Out[from] {
			if e.ID == to {
				return
			}
		}
		sp.Out[from] = append(sp.Out[from], graph.Neighbor{ID: to, Latency: lat})
	}

	// alive[u] maps neighbor -> latency for edges still under
	// consideration; both endpoint entries are removed together.
	alive := make([]map[graph.NodeID]int, n)
	for u := 0; u < n; u++ {
		alive[u] = make(map[graph.NodeID]int)
	}
	for _, e := range g.Edges() {
		if opts.MaxLatency > 0 && e.Latency > opts.MaxLatency {
			continue
		}
		alive[e.U][e.V] = e.Latency
		alive[e.V][e.U] = e.Latency
	}
	// cluster[v] is the center of v's current cluster, or -1 once v has
	// fallen out of the clustering (Rule 1 fired for v).
	cluster := make([]graph.NodeID, n)
	for v := range cluster {
		cluster[v] = v // iteration 0: every node is its own center
	}

	for it := 1; it < k; it++ {
		// Sample the surviving centers. A deterministic pass in center
		// order keeps runs reproducible.
		sampled := make(map[graph.NodeID]bool)
		centers := refActiveCenters(cluster)
		for _, c := range centers {
			if rng.Float64() < sampleP {
				sampled[c] = true
			}
		}
		next := make([]graph.NodeID, n)
		for v := range next {
			next[v] = -1
		}
		// Members of sampled clusters stay put.
		for v := 0; v < n; v++ {
			if cluster[v] >= 0 && sampled[cluster[v]] {
				next[v] = cluster[v]
			}
		}
		for v := 0; v < n; v++ {
			if cluster[v] < 0 || next[v] >= 0 {
				continue // out of the clustering, or in a sampled cluster
			}
			// Group v's alive edges by the neighbor's current cluster.
			best := refBestEdgePerCluster(v, alive[v], cluster)
			// Q: adjacent *sampled* clusters.
			var bestSampled *refClusterEdge
			for i := range best {
				ce := &best[i]
				if sampled[ce.center] {
					if bestSampled == nil || ce.key.less(bestSampled.key) {
						bestSampled = ce
					}
				}
			}
			if bestSampled == nil {
				// Rule 1: no adjacent sampled cluster. Keep the least
				// weight edge to every adjacent cluster, discard the
				// rest, and leave the clustering.
				for _, ce := range best {
					addOut(v, ce.to, ce.lat)
					refDiscardClusterEdges(v, alive, cluster, ce.center)
				}
				next[v] = -1
			} else {
				// Rule 2: join the closest sampled cluster via e_v, and
				// keep one edge to every adjacent cluster strictly
				// cheaper than e_v; discard all edges into the
				// processed clusters.
				addOut(v, bestSampled.to, bestSampled.lat)
				next[v] = bestSampled.center
				for _, ce := range best {
					if ce.center == bestSampled.center {
						continue
					}
					if ce.key.less(bestSampled.key) {
						addOut(v, ce.to, ce.lat)
						refDiscardClusterEdges(v, alive, cluster, ce.center)
					}
				}
				// All edges into the joined cluster leave consideration:
				// e_v is already in the spanner and future iterations
				// only look at inter-cluster edges.
				refDiscardClusterEdges(v, alive, cluster, bestSampled.center)
			}
		}
		cluster = next
	}

	// Final iteration: every node keeps its least weight edge to each
	// adjacent surviving cluster.
	for v := 0; v < n; v++ {
		for _, ce := range refBestEdgePerCluster(v, alive[v], cluster) {
			addOut(v, ce.to, ce.lat)
		}
	}
	for v := range sp.Out {
		sort.Slice(sp.Out[v], func(i, j int) bool { return sp.Out[v][i].ID < sp.Out[v][j].ID })
	}
	return sp, nil
}

// refClusterEdge is the cheapest alive edge from a node into one cluster.
type refClusterEdge struct {
	center graph.NodeID
	to     graph.NodeID
	lat    int
	key    refEdgeKey
}

// refBestEdgePerCluster returns, for every cluster adjacent to v over alive
// edges, the minimum-key edge into it, in deterministic center order.
func refBestEdgePerCluster(v graph.NodeID, adj map[graph.NodeID]int, cluster []graph.NodeID) []refClusterEdge {
	best := make(map[graph.NodeID]refClusterEdge)
	for u, lat := range adj {
		c := cluster[u]
		if c < 0 {
			continue // neighbor has left the clustering
		}
		k := refKeyOf(v, u, lat)
		if cur, ok := best[c]; !ok || k.less(cur.key) {
			best[c] = refClusterEdge{center: c, to: u, lat: lat, key: k}
		}
	}
	out := make([]refClusterEdge, 0, len(best))
	for _, ce := range best {
		out = append(out, ce)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].center < out[j].center })
	return out
}

// refDiscardClusterEdges removes every alive edge from v into cluster c.
func refDiscardClusterEdges(v graph.NodeID, alive []map[graph.NodeID]int, cluster []graph.NodeID, c graph.NodeID) {
	for u := range alive[v] {
		if cluster[u] == c {
			delete(alive[v], u)
			delete(alive[u], v)
		}
	}
}

// refActiveCenters returns the distinct non-negative cluster centers.
func refActiveCenters(cluster []graph.NodeID) []graph.NodeID {
	seen := make(map[graph.NodeID]bool)
	var out []graph.NodeID
	for _, c := range cluster {
		if c >= 0 && !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Ints(out)
	return out
}

func log2Ceil(x int) int {
	k, v := 0, 1
	for v < x {
		v <<= 1
		k++
	}
	return k
}

// refNumEdges is the old map-based NumEdges: distinct undirected edges.
func refNumEdges(s *Spanner) int {
	seen := make(map[[2]graph.NodeID]bool)
	for u, outs := range s.Out {
		for _, e := range outs {
			a, b := u, e.ID
			if a > b {
				a, b = b, a
			}
			seen[[2]graph.NodeID{a, b}] = true
		}
	}
	return len(seen)
}

// assertMatchesReference builds the spanner both ways and requires
// identical Out lists (hence orientation, order and out-degrees) and edge
// counts.
func assertMatchesReference(t *testing.T, g *graph.Graph, opts Options) {
	t.Helper()
	want, err := referenceBuild(g, opts)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BuildCSR(g.CSR(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if got.K != want.K {
		t.Fatalf("%+v: K = %d, reference %d", opts, got.K, want.K)
	}
	for v := range want.Out {
		if !slices.Equal(got.Out[v], want.Out[v]) {
			t.Fatalf("%+v: Out[%d] = %v, reference %v", opts, v, got.Out[v], want.Out[v])
		}
	}
	if got.NumEdges() != refNumEdges(want) {
		t.Fatalf("%+v: NumEdges = %d, reference %d", opts, got.NumEdges(), refNumEdges(want))
	}
}

// TestBuildCSRMatchesReference is the differential oracle for the
// flat-array rewrite: random connected graphs with random latencies ×
// K ∈ {1, 2, ⌈log₂ n⌉} × MaxLatency ∈ {0, 1, mid, max} × 20 seeds.
func TestBuildCSRMatchesReference(t *testing.T) {
	const maxLat = 12
	rng := graphgen.NewRand(41)
	for _, shape := range []struct {
		n int
		p float64
	}{{9, 0.5}, {24, 0.3}, {48, 0.15}, {64, 0.6}} {
		g, err := graphgen.ErdosRenyi(shape.n, shape.p, 1, rng)
		if err != nil {
			t.Fatal(err)
		}
		graphgen.AssignRandomLatencies(g, 1, maxLat, rng)
		for _, k := range []int{1, 2, log2Ceil(shape.n)} {
			for _, ml := range []int{0, 1, maxLat / 2, maxLat} {
				for seed := uint64(0); seed < 20; seed++ {
					assertMatchesReference(t, g, Options{K: k, MaxLatency: ml, Seed: seed})
				}
			}
		}
	}
}

// TestBuildCSRMatchesReferenceOnRing pins the benchmark's own graph: the
// 8×64 latency-16 lower-bound ring at K = ⌈log₂ 512⌉ = 9, unfiltered and
// restricted to the fast links.
func TestBuildCSRMatchesReferenceOnRing(t *testing.T) {
	g, err := graphgen.Build(graphgen.Spec{Family: "ring", N: 64, Layers: 8, Latency: 16, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, ml := range []int{0, 1, 16} {
		for seed := uint64(0); seed < 3; seed++ {
			assertMatchesReference(t, g, Options{K: 9, MaxLatency: ml, Seed: seed})
		}
	}
}
