package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call into a layer: its name, its interval relative to
// the tracer's epoch, the span that caused it, and the run it belongs to.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Run    string        `json:"run"`
}

// tracer keeps every span of one benchmark run in memory; write dumps them
// once the run is over. It is used from one goroutine at a time.
type tracer struct {
	run   string
	epoch time.Time
	spans []span
	stack []int
}

func newTracer(run string) *tracer { return &tracer{run: run, epoch: time.Now()} }

// begin opens a span as a child of the innermost open span and returns its
// id; end closes it.
func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: time.Since(t.epoch), Run: t.run})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].End = time.Since(t.epoch)
	t.stack = t.stack[:len(t.stack)-1]
}

// do runs f inside a span named name.
func (t *tracer) do(name string, f func()) {
	id := t.begin(name)
	f()
	t.end(id)
}

// duration returns the length of span id.
func (t *tracer) duration(id int) time.Duration { return t.spans[id].End - t.spans[id].Start }

// selfTimes returns, per span name, the summed self time of its spans: each
// span's duration minus the part of it that its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	kids := make([][]int, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		// Children open in start order, so one sweep merges their intervals.
		var covered time.Duration
		reach := s.Start
		for _, k := range kids[s.ID] {
			c := t.spans[k]
			if c.End <= reach {
				continue
			}
			if c.Start > reach {
				reach = c.Start
			}
			covered += c.End - reach
			reach = c.End
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// totalTimes returns, per span name, the summed duration of its spans.
func (t *tracer) totalTimes() map[string]time.Duration {
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		out[s.Name] += s.End - s.Start
	}
	return out
}

// write stores the spans as one JSON array in path.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
