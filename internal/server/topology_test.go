package server

import (
	"sync"
	"testing"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

func topoCan(family string, n int, seed uint64) canonical {
	return canonical{Graph: GraphSpec{Family: family, N: n, Latency: 3, P: 0.4}, Seed: seed}
}

func mustTopology(t *testing.T, s *Server, can canonical) *graph.CSR {
	t.Helper()
	csr, err := s.topology(can)
	if err != nil {
		t.Fatal(err)
	}
	return csr
}

// TestTopologyMemoSharesConcurrentMisses: misses racing on one spec
// build it once and all run on the same CSR.
func TestTopologyMemoSharesConcurrentMisses(t *testing.T) {
	s := New(Config{})
	got := make([]*graph.CSR, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if got[i], err = s.topology(topoCan("dumbbell", 8, 1)); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for i, csr := range got {
		if csr != got[0] {
			t.Fatalf("miss %d got its own CSR", i)
		}
	}
	if s.topos.len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", s.topos.len())
	}
}

// TestTopologyMemoSeedKey: the seeds of a family that never reads its
// seed share one entry; the seeds of er, which does, do not.
func TestTopologyMemoSeedKey(t *testing.T) {
	s := New(Config{})
	if a, b := mustTopology(t, s, topoCan("clique", 12, 1)), mustTopology(t, s, topoCan("clique", 12, 2)); a != b {
		t.Fatal("two seeds of clique built two CSRs")
	}
	if a, b := mustTopology(t, s, topoCan("er", 12, 1)), mustTopology(t, s, topoCan("er", 12, 2)); a == b {
		t.Fatal("two seeds of er share a CSR")
	}
	if s.topos.len() != 3 {
		t.Fatalf("memo holds %d entries, want 3", s.topos.len())
	}
}

// TestTopologyMemoBudget: eviction keeps the memo's half-edges within
// its budget, coldest spec first, and a topology larger than the whole
// budget is built for each job and never kept.
func TestTopologyMemoBudget(t *testing.T) {
	s := New(Config{})
	// A path on n nodes has 2(n-1) half-edges: 18 for n = 10.
	s.topos = newLRU[graphgen.Spec](40, topoCost)
	first := mustTopology(t, s, topoCan("path", 10, 0))
	for n := 11; n <= 14; n++ {
		mustTopology(t, s, topoCan("path", n, 0))
		if s.topos.total > s.topos.max {
			t.Fatalf("after path %d the memo holds %d half-edges, budget %d", n, s.topos.total, s.topos.max)
		}
	}
	if s.topos.len() != 1 {
		t.Fatalf("memo holds %d entries, want 1", s.topos.len())
	}
	if mustTopology(t, s, topoCan("path", 10, 0)) == first {
		t.Fatal("the coldest topology survived eviction")
	}

	big := topoCan("clique", 8, 0) // 56 half-edges
	a, b := mustTopology(t, s, big), mustTopology(t, s, big)
	if a == b {
		t.Fatal("an over-budget topology was kept")
	}
	if a.HalfEdges() != 56 || b.HalfEdges() != 56 {
		t.Fatalf("over-budget builds: %v and %v, want 56 half-edges each", a, b)
	}
	if s.topos.total > s.topos.max {
		t.Fatalf("memo holds %d half-edges, budget %d", s.topos.total, s.topos.max)
	}
}
