package server

import (
	"container/list"
	"sync"
)

// lruCache memoizes completed deterministic jobs: request key → the full
// NDJSON response body. Replaying an entry is what makes an identical
// request bit-identical to its first execution for free.
type lruCache struct {
	mu    sync.Mutex
	max   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type lruEntry struct {
	key  string
	body []byte
}

func newLRU(max int) *lruCache {
	return &lruCache{max: max, order: list.New(), items: make(map[string]*list.Element)}
}

// disabled reports a non-positive capacity: memoization is off and — so
// that "every request executes" holds as documented — the server also
// skips request coalescing.
func (c *lruCache) disabled() bool { return c.max <= 0 }

// get returns the cached body and refreshes the entry's recency.
func (c *lruCache) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).body, true
}

// put stores (or refreshes) a body, evicting from the cold end past max.
func (c *lruCache) put(key string, body []byte) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, body: body})
	for c.order.Len() > c.max {
		cold := c.order.Back()
		c.order.Remove(cold)
		delete(c.items, cold.Value.(*lruEntry).key)
	}
}

func (c *lruCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// flight is one in-flight execution of a request key. Concurrent
// identical requests coalesce onto it: the first arrival (the leader)
// executes, everyone else waits on done and replays body. A nil body
// with a closed done means the leader failed nondeterministically (a
// timeout); followers retry — each key executes at most once per
// success, which is what makes cache-miss counts deterministic under
// concurrency (misses == distinct keys).
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
