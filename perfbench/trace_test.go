package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestTracerWritesChromeEvents(t *testing.T) {
	tr := newTracer()
	root := tr.begin("op", 3, -1)
	child := tr.begin("serve.roundtrip.decompose", 3, root)
	tr.end(child)
	tr.end(root)
	path := filepath.Join(t.TempDir(), "traces", "t.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Dur  float64        `json:"dur"`
			Tid  int            `json:"tid"`
			Args map[string]int `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("%d events, want 2", len(doc.TraceEvents))
	}
	c := doc.TraceEvents[1]
	if c.Name != "serve.roundtrip.decompose" || c.Ph != "X" || c.Tid != 3 || c.Args["parent"] != root || c.Dur < 0 {
		t.Fatalf("child event %+v", c)
	}
	if got := len(tr.durations("op")); got != 1 {
		t.Fatalf("%d op spans, want 1", got)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	id := tr.begin("op", 0, -1)
	tr.end(id)
	if id != -1 {
		t.Fatalf("nil tracer returned span %d", id)
	}
}

// BenchmarkSpan measures one begin/end pair, the cost a traced run adds per
// span.
func BenchmarkSpan(b *testing.B) {
	tr := newTracer()
	for i := 0; b.Loop(); i++ {
		tr.end(tr.begin("op", i, -1))
	}
}
