package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from this package around
// the layer's public functions. Times are nanoseconds since the tracer
// started. Parent is the index of the span that caused this one (-1 for a
// root) and Op the workload op — or, inside the layer probes, the mix job
// — it belongs to (-1 when there is none).
type span struct {
	Name       string
	Start, End int64
	Parent, Op int
}

// tracer keeps spans and counts in memory until the run ends. A nil
// tracer records nothing, so untraced and traced code share call sites.
type tracer struct {
	mu     sync.Mutex
	t0     time.Time
	spans  []span
	counts map[string]int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]int64{}}
}

// begin opens a span and returns its index, to pass to end and to
// children as their parent.
func (t *tracer) begin(name string, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) count(name string, delta int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.counts[name] += delta
	t.mu.Unlock()
}

// selfTimes returns, per span, its duration minus the part of its
// interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.End - s.Start
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, covered), min(spans[k].End, s.End)
			if hi > lo {
				self[i] -= hi - lo
				covered = hi
			}
		}
	}
	return self
}

// writeFile stores the spans compactly: a name table, then one
// [name, start_ns, end_ns, parent, op] row per span, then the counts.
func (t *tracer) writeFile(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	index := map[string]int{}
	var names []string
	for _, s := range t.spans {
		if _, ok := index[s.Name]; !ok {
			index[s.Name] = len(names)
			names = append(names, s.Name)
		}
	}
	head, err := json.Marshal(map[string]any{"columns": []string{"name", "start_ns", "end_ns", "parent", "op"}, "names": names, "counts": t.counts})
	if err != nil {
		return err
	}
	// Splice the rows into the header object so the file is one JSON value.
	fmt.Fprintf(w, "%s,\"spans\":[", head[:len(head)-1])
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n[%d,%d,%d,%d,%d]", index[s.Name], s.Start, s.End, s.Parent, s.Op)
	}
	w.WriteString("\n]}\n")
	return w.Flush()
}
