package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. Spans of one request
// share req; parent is the span that caused it (0: a root span).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out once, at the end
// of the run. Safe for concurrent use.
type tracer struct {
	t0      time.Time
	mu      sync.Mutex
	spans   []span
	reqs    int
	samples map[string][]float64 // per-request values that are not spans
}

func newTracer() *tracer { return &tracer{t0: time.Now(), samples: make(map[string][]float64)} }

// sample records one value under name.
func (t *tracer) sample(name string, v float64) {
	t.mu.Lock()
	t.samples[name] = append(t.samples[name], v)
	t.mu.Unlock()
}

// sampled returns a copy of the values recorded under name.
func (t *tracer) sampled(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]float64(nil), t.samples[name]...)
}

// newReq allocates a request id.
func (t *tracer) newReq() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

// record adds a root span for req (0: a new request) and returns its id.
func (t *tracer) record(name string, req int, start, end time.Time) int {
	if req == 0 {
		req = t.newReq()
	}
	return t.add(span{Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// recordChild adds a span caused by parent, in parent's request.
func (t *tracer) recordChild(name string, parent int, start, end time.Time) int {
	t.mu.Lock()
	req := t.spans[parent-1].Req
	t.mu.Unlock()
	return t.add(span{Parent: parent, Req: req, Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// begin opens a span — a child of parent, or the root span of a new
// request when parent is 0 — and returns its id; finish closes it. A
// nil tracer records nothing.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Now()
	if parent == 0 {
		return t.record(name, 0, now, now)
	}
	return t.recordChild(name, parent, now, now)
}

func (t *tracer) finish(id int) {
	if t == nil {
		return
	}
	end := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = end
	t.mu.Unlock()
}

// timed runs fn inside a span named name under parent.
func (t *tracer) timed(name string, parent int, fn func() error) error {
	id := t.begin(name, parent)
	err := fn()
	t.finish(id)
	return err
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval its children cover. Children of one parent are
// sequential in this benchmark, so their overlap with the parent's
// interval is summed.
func selfTimes(spans []span) []time.Duration {
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = s.dur()
	}
	for _, c := range spans {
		if c.Parent == 0 {
			continue
		}
		p := spans[c.Parent-1]
		lo, hi := max(c.Start, p.Start), min(c.End, p.End)
		if hi > lo {
			self[c.Parent-1] -= time.Duration(hi - lo)
		}
	}
	for i := range self {
		if self[i] < 0 {
			self[i] = 0
		}
	}
	return self
}

// durations returns the durations in µs of every span named name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.dur())/1e3)
		}
	}
	return out
}

// spanStat is the self-time summary of the spans sharing a name and a
// parent name.
type spanStat struct {
	name, parent string
	n            int
	totalMs      float64
	selfMs       float64
	selfP50us    float64
}

// summary aggregates spans by name and parent name, ordered by total
// self time.
func (t *tracer) summary() []spanStat {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	type key struct{ name, parent string }
	by := map[key]*spanStat{}
	selfs := map[key][]float64{}
	for i, s := range spans {
		k := key{name: s.Name}
		if s.Parent != 0 {
			k.parent = spans[s.Parent-1].Name
		}
		st := by[k]
		if st == nil {
			st = &spanStat{name: k.name, parent: k.parent}
			by[k] = st
		}
		st.n++
		st.totalMs += float64(s.dur()) / 1e6
		st.selfMs += float64(self[i]) / 1e6
		selfs[k] = append(selfs[k], float64(self[i])/1e3)
	}
	out := make([]spanStat, 0, len(by))
	for k, st := range by {
		st.selfP50us = median(selfs[k])
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

// printSummary writes the self-time table.
func (t *tracer) printSummary(w io.Writer, title string) {
	fmt.Fprintf(w, "# self time by span (%s)\n", title)
	fmt.Fprintf(w, "#   %-28s %-22s %8s %11s %11s %12s\n", "span", "parent", "count", "total_ms", "self_ms", "self_p50_us")
	for _, s := range t.summary() {
		fmt.Fprintf(w, "#   %-28s %-22s %8d %11.2f %11.2f %12.2f\n",
			s.name, s.parent, s.n, s.totalMs, s.selfMs, s.selfP50us)
	}
}

// write dumps every span as JSON to path.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
