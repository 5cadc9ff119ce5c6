package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public functions. Spans of one operation (a solve, a job)
// share Op; Parent is the index of the enclosing span in the tracer's
// slice, -1 for an operation's root.
type span struct {
	Name    string `json:"name"`
	Op      int    `json:"op"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; nothing is written until the run ends.
// A nil tracer records nothing, so one code path serves the traced and
// the untraced operations (which is how trace.overhead_share is measured).
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent, StartNS: now, EndNS: -1})
	return len(t.spans) - 1
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].EndNS = now
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere (the server's
// own job timestamps, placed on the tracer's clock).
func (t *tracer) add(name string, op, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: op, Parent: parent,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds()})
	t.mu.Unlock()
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, op, parent int, fn func()) {
	id := t.begin(name, op, parent)
	fn()
	t.end(id)
}

// spanStats are the per-name aggregates the layer metrics are read from.
type spanStats struct {
	count  int
	total  float64 // seconds, whole span
	self   float64 // seconds, span minus the part its children cover
	durSec []float64
}

// aggregate computes, per span name, the count, total and self time. A
// span's self time is its duration minus its children's durations
// (children of one parent never overlap here: each is a sequential call).
func (t *tracer) aggregate() map[string]*spanStats {
	out := map[string]*spanStats{}
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 && s.EndNS >= 0 {
			child[s.Parent] += s.EndNS - s.StartNS
		}
	}
	for i, s := range t.spans {
		if s.EndNS < 0 {
			continue
		}
		st := out[s.Name]
		if st == nil {
			st = &spanStats{}
			out[s.Name] = st
		}
		d := float64(s.EndNS-s.StartNS) / 1e9
		st.count++
		st.total += d
		st.self += d - float64(child[i])/1e9
		st.durSec = append(st.durSec, d)
	}
	return out
}

// coverage reports, over the operations rooted at spans called root, the
// smallest share of a root span's wall time that its direct children
// cover, and whether every span nests inside its parent.
func (t *tracer) coverage(root string) (minShare float64, nested bool) {
	minShare, nested = 1, true
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	covered := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent < 0 {
			continue
		}
		p := t.spans[s.Parent]
		if s.StartNS < p.StartNS || s.EndNS > p.EndNS || s.Op != p.Op {
			nested = false
		}
		covered[s.Parent] += s.EndNS - s.StartNS
	}
	for i, s := range t.spans {
		if s.Name != root || s.EndNS <= s.StartNS {
			continue
		}
		if share := float64(covered[i]) / float64(s.EndNS-s.StartNS); share < minShare {
			minShare = share
		}
	}
	return
}

// write dumps every span as JSON.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
