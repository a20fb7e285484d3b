package main

import (
	"encoding/json"
	"os"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls
// into each layer; spans inside the programs are a later change. They
// stay in memory until the run ends.

// span is one timed call. Parent 0 marks a root; the spans of one build
// or one sampled query share their root.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// tracer collects spans. A nil tracer records nothing, which is how the
// traced run measures what its own spans cost (trace.overhead_pct).
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span under parent (0 for a root) and returns its id.
func (t *tracer) start(parent int, name string) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, StartNS: int64(time.Since(t.epoch))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].EndNS = int64(time.Since(t.epoch))
}

// in runs f inside a span and returns the span's duration.
func (t *tracer) in(parent int, name string, f func()) time.Duration {
	id := t.start(parent, name)
	start := time.Now()
	f()
	d := time.Since(start)
	t.end(id)
	return d
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// selfTimes returns, per span name, the summed duration minus the part
// the span's children cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	self := make(map[string]time.Duration)
	for _, s := range t.spans {
		self[s.Name] += s.dur()
		if s.Parent != 0 {
			self[t.spans[s.Parent-1].Name] -= s.dur()
		}
	}
	return self
}

// coverage returns, per root-span name, the share of the roots' summed
// duration their direct children cover — 1 means the stage spans
// account for the whole build or query.
func (t *tracer) coverage() map[string]float64 {
	root := make(map[string]time.Duration)
	covered := make(map[string]time.Duration)
	for _, s := range t.spans {
		switch {
		case s.Parent == 0:
			root[s.Name] += s.dur()
		case t.spans[s.Parent-1].Parent == 0:
			covered[t.spans[s.Parent-1].Name] += s.dur()
		}
	}
	out := make(map[string]float64, len(root))
	for name, d := range root {
		if d > 0 && covered[name] > 0 {
			out[name] = float64(covered[name]) / float64(d)
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
