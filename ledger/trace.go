package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// public function it calls.
type span struct {
	Name   string `json:"name"`
	Label  string `json:"label,omitempty"`
	Start  int64  `json:"start_ns"` // since the tracer started
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index of the enclosing span, -1 for none
	Worker int    `json:"worker"`
	Op     int64  `json:"op"` // spans of one operation share it
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per call.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index (-1 when untraced).
func (t *tracer) begin(name, label string, parent, worker int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Label: label, Start: now, End: -1, Parent: parent, Worker: worker, Op: op})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records an already-measured child interval (pipeline stage timings
// arrive as durations after the call returns).
func (t *tracer) add(name string, parent int, start time.Time, d time.Duration) {
	if t == nil {
		return
	}
	s := start.Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent]
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + d.Nanoseconds(), Parent: parent, Worker: p.Worker, Op: p.Op})
}

// timed runs fn inside a span and returns its duration; untraced it only
// times fn.
func (t *tracer) timed(name, label string, parent, worker int, op int64, fn func()) time.Duration {
	id := t.begin(name, label, parent, worker, op)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	t.end(id)
	return d
}

// durations returns the wall time of every span named name, in ms.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}

// layerSummary is one span name's count and self time.
type layerSummary struct {
	Count  int     `json:"count"`
	SelfMS float64 `json:"self_ms"`
	WallMS float64 `json:"wall_ms"`
}

// summarize derives each span name's count, wall time and self time: a
// span's duration minus the part of it its children cover.
func (t *tracer) summarize() map[string]layerSummary {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]layerSummary{}
	for i, s := range t.spans {
		if s.End < 0 {
			continue
		}
		wall := s.End - s.Start
		self := wall - covered(children[i], s.Start, s.End)
		ls := out[s.Name]
		ls.Count++
		ls.WallMS += float64(wall) / 1e6
		ls.SelfMS += float64(self) / 1e6
		out[s.Name] = ls
	}
	return out
}

// covered returns the length of the union of the children's intervals,
// clipped to [lo, hi].
func covered(ch []span, lo, hi int64) int64 {
	sort.Slice(ch, func(i, j int) bool { return ch[i].Start < ch[j].Start })
	var total int64
	cur, curEnd := int64(-1), int64(-1)
	for _, c := range ch {
		s, e := max(c.Start, lo), min(c.End, hi)
		if e <= s {
			continue
		}
		if s > curEnd {
			if curEnd > cur {
				total += curEnd - cur
			}
			cur, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	if curEnd > cur {
		total += curEnd - cur
	}
	return total
}

// spanCost measures what recording one span costs, so a traced run can
// state its own overhead.
func spanCost() time.Duration {
	const n = 20000
	t := newTracer()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		t.end(t.begin("probe", "", -1, 0, int64(i)))
	}
	return time.Since(t0) / n
}

// writeTrace writes the spans and their per-layer summary as JSON under
// .bench_build/traces in the working directory.
func (b *bench) writeTrace(summary map[string]layerSummary) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
	b.tr.mu.Lock()
	data, err := json.Marshal(map[string]any{"meta": b.meta, "layers": summary, "spans": b.tr.spans})
	b.tr.mu.Unlock()
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	b.meta["trace_file"] = path
	return nil
}
