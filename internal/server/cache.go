package server

import (
	"container/list"
	"sync"

	"gossip/internal/graph"
	"gossip/internal/graphgen"
)

// lruCache is a least-recently-used map bounded by a total cost: each
// entry costs cost(value) (one unit when cost is nil), and a put evicts
// from the cold end until the total fits max. It has two users: the
// completed-job cache (request key → the full NDJSON response body, one
// unit per entry; replaying an entry is what makes an identical request
// bit-identical to its first execution for free) and the topology memo
// (graph spec → CSR, one unit per half-edge).
type lruCache[K comparable, V any] struct {
	mu    sync.Mutex
	max   int
	cost  func(V) int
	total int
	order *list.List // front = most recently used
	items map[K]*list.Element
}

type lruEntry[K comparable, V any] struct {
	key  K
	val  V
	cost int
}

func newLRU[K comparable, V any](max int, cost func(V) int) *lruCache[K, V] {
	return &lruCache[K, V]{max: max, cost: cost, order: list.New(), items: make(map[K]*list.Element)}
}

// disabled reports a non-positive capacity: memoization is off and — so
// that "every request executes" holds as documented — the server also
// skips request coalescing.
func (c *lruCache[K, V]) disabled() bool { return c.max <= 0 }

// get returns the cached value and refreshes the entry's recency.
func (c *lruCache[K, V]) get(key K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry[K, V]).val, true
}

// getOrPut returns key's value, storing fresh() first when key is absent.
func (c *lruCache[K, V]) getOrPut(key K, fresh func() V) V {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*lruEntry[K, V]).val
	}
	v := fresh()
	c.insert(key, v)
	return v
}

// put stores (or refreshes) a value, evicting from the cold end past
// max, and reports whether key already held one. A value that alone
// costs more than max is not stored, and any older value under its key
// is dropped.
func (c *lruCache[K, V]) put(key K, v V) (replaced bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, replaced := c.items[key]
	if replaced {
		c.remove(el)
	}
	c.insert(key, v)
	return replaced
}

func (c *lruCache[K, V]) insert(key K, v V) {
	cost := 1
	if c.cost != nil {
		cost = c.cost(v)
	}
	if cost > c.max {
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry[K, V]{key: key, val: v, cost: cost})
	c.total += cost
	for c.total > c.max {
		c.remove(c.order.Back())
	}
}

func (c *lruCache[K, V]) remove(el *list.Element) {
	e := c.order.Remove(el).(*lruEntry[K, V])
	delete(c.items, e.key)
	c.total -= e.cost
}

func (c *lruCache[K, V]) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// topologyBudget bounds the topology memo in half-edges (12 bytes each
// across the CSR's three arrays, so about 12 MiB). A topology larger
// than the whole budget is built for its job and not kept.
const topologyBudget = 1 << 20

// topoEntry is one memoized topology, built once by whichever miss
// created the entry; concurrent misses on the same spec wait on once
// and share the result.
type topoEntry struct {
	once sync.Once
	csr  *graph.CSR
	err  error
}

// topoCost is a memo entry's share of topologyBudget: its half-edges,
// or one unit while unbuilt or when the build failed (deterministic
// errors are memoized too).
func topoCost(e *topoEntry) int {
	if e.csr == nil {
		return 1
	}
	return max(1, e.csr.HalfEdges())
}

// topology is the one place the server turns a canonical request into
// the topology its engines run on: the memoized CSR of its graph spec.
// The memo key is the spec with Seed zeroed for the families that never
// read it, so the seeds of a sweep or a load mix on a deterministic
// family share one entry; the CSR is immutable, so every job may share
// it.
func (s *Server) topology(can canonical) (*graph.CSR, error) {
	spec := can.graphSpec()
	if !spec.ReadsSeed() {
		spec.Seed = 0
	}
	e := s.topos.getOrPut(spec, func() *topoEntry { return new(topoEntry) })
	e.once.Do(func() {
		e.csr, e.err = graphgen.BuildCSR(spec)
		s.topos.put(spec, e) // charge the built size
	})
	return e.csr, e.err
}

// flight is one in-flight execution of a request key. Concurrent
// identical jobs coalesce onto it — requests and an estimate's candidate
// evaluations alike: the first arrival (the leader) executes, everyone
// else waits on done and replays body. A nil body with a closed done
// means the leader failed nondeterministically (a timeout); followers
// retry — each key executes at most once per success, which
// Snapshot.Reexecutions counts the breaches of.
type flight struct {
	done chan struct{}
	body []byte
}

// join returns the flight for key, creating it when absent; the creator
// is the leader (second return true) and must eventually resolve it.
func (s *Server) join(key string) (*flight, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.inflight[key]; ok {
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	s.inflight[key] = f
	return f, true
}

// resolve publishes the leader's outcome (nil body = failed) and wakes
// the followers; a nil flight (an uncoalesced run) has none. The entry
// leaves the table first so a post-resolve arrival starts fresh rather
// than observing a settled flight.
func (s *Server) resolve(key string, f *flight, body []byte) {
	if f == nil {
		return
	}
	s.mu.Lock()
	delete(s.inflight, key)
	f.body = body
	s.mu.Unlock()
	close(f.done)
}
