package main

// Spans recorded by the benchmark around each public call it makes into a
// layer. They stay in memory and are written once, at the end of a traced
// run, as a Chrome trace-event file (chrome://tracing, Perfetto). The
// per-layer metrics are medians over the spans of one name. Spans are timed
// on the process CPU clock, like the end-to-end metrics (see cpuNow), so
// the trace's time axis is CPU time since the tracer was made.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// span is one timed call. op groups the spans of one operation (or one
// probe step); parent is the index of the enclosing span, -1 at the root.
type span struct {
	name       string
	op         int
	parent     int
	start, end time.Duration
}

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pay one nil test per call site.
type tracer struct {
	epoch time.Duration
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: cpuNow()} }

// begin opens a span and returns its index (-1 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: cpuNow() - t.epoch})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = cpuNow() - t.epoch
}

// durations returns the durations of every span named name, in order.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start))
		}
	}
	return out
}

// medianNs is the median duration in nanoseconds of the spans named name.
func (t *tracer) medianNs(name string) float64 { return median(t.durations(name)) }

// write stores the spans as Chrome trace events: one complete ("X") event
// per span, with the operation as the thread so each operation reads as
// one track.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.op,
			Ts:   float64(s.start) / 1e3,
			Dur:  float64(s.end-s.start) / 1e3,
			Args: map[string]int{"id": i, "parent": s.parent, "op": s.op},
		}
	}
	slices.SortStableFunc(events, func(a, b event) int { return a.Tid - b.Tid })
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
