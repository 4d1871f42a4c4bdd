package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one call the harness made into a layer's public API. Spans of
// one op share Op; Parent is the ID of the enclosing span (0 for a root).
// Times are host nanoseconds since the tracer's epoch.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer records the harness's own spans in memory. All calls come from
// the single driver goroutine, so the open spans form a stack. A nil
// tracer is the end-to-end run: begin/end cost one nil check.
type tracer struct {
	epoch time.Time
	spans []span
	open  []int // indices into spans
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// nextOp starts a new op id; the spans of an op and of its probes share it.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.open = append(t.open, len(t.spans))
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: t.op, Name: name,
		StartNs: int64(time.Since(t.epoch)),
	})
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	n := len(t.open) - 1
	t.spans[t.open[n]].EndNs = int64(time.Since(t.epoch))
	t.open = t.open[:n]
}

// selfTimes folds the spans by name into self time — a span's duration
// minus the part its direct children cover — and call counts.
func (t *tracer) selfTimes() (self map[string]time.Duration, calls map[string]int) {
	self, calls = make(map[string]time.Duration), make(map[string]int)
	children := make([]int64, len(t.spans)+1)
	for _, s := range t.spans {
		children[s.Parent] += s.EndNs - s.StartNs
	}
	for _, s := range t.spans {
		self[s.Name] += time.Duration(s.EndNs - s.StartNs - children[s.ID])
		calls[s.Name]++
	}
	return self, calls
}

// write dumps the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
