package obs

import (
	"io"
	"sync"
	"time"

	"hypertp/internal/simtime"
)

// Streaming span pipeline: the one way a span leaves the recorder. When
// a *root* span ends, its whole subtree is flattened into SpanRecords,
// folded into the metrics (fold.go), handed to the recorder's
// StreamSinks and released, so the recorder's
// memory is O(open spans), and a run's resident span memory is whatever
// its sinks keep: a FlightRecorder's ring, a Collector's whole run, or
// nothing at all.
//
// Determinism: records are flattened depth-first in creation order with
// virtual timestamps, and root spans end in deterministic order (span
// mutation happens on the sequential side of the stack — engine phases
// on the discrete-event clock, scheduler Commit hooks), so what a sink
// sees, and every export written from it, is identical across -workers
// counts.

// SpanRecord is one span flattened out of the tree: the immutable,
// export-ready form a StreamSink consumes. IDs and parent IDs are the
// recorder's span ids; Track is the resolved (inherited) track.
type SpanRecord struct {
	ID     int
	Parent int // -1 for roots
	Depth  int
	Name   string
	Track  string
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  []Attr
	Events []Point
}

// StreamSink consumes completed root subtrees. Consume is called with
// the records of one root span (depth-first, creation order; index 0 is
// the root itself) after the root has ended. Sinks are invoked
// sequentially in registration order, outside the recorder's lock; a
// sink must not call back into the recorder's span-mutation API.
type StreamSink interface {
	Consume(root []SpanRecord)
}

// AddSink registers a streaming sink. Safe on a nil recorder (no-op).
func (r *Recorder) AddSink(s StreamSink) {
	if r == nil || s == nil {
		return
	}
	r.mu.Lock()
	r.sinks = append(r.sinks, s)
	r.mu.Unlock()
}

// SetRetain is a no-op: the recorder keeps no ended span. It stays only
// because the bench module (bench/fleet.go) still calls it; ROADMAP item
// 14 drops that call.
func (r *Recorder) SetRetain(bool) {}

// flattenSpan appends s's subtree to out depth-first in creation order,
// resolving inherited tracks as it descends.
func flattenSpan(s *Span, parent, depth int, track string, out []SpanRecord) []SpanRecord {
	t := s.Track
	if t == "" {
		t = track
	}
	out = append(out, SpanRecord{
		ID: s.id, Parent: parent, Depth: depth,
		Name: s.Name, Track: t,
		Start: s.start, End: s.end,
		Attrs: s.attrs, Events: s.events,
	})
	for _, c := range s.children {
		out = flattenSpan(c, s.id, depth+1, t, out)
	}
	return out
}

// flushRootLocked flattens an ended root span for the sinks under r.mu
// and returns the records to dispatch after unlocking: nil for a
// non-root span, or with no sink, which folds the tree in place.
func (r *Recorder) flushRootLocked(s *Span) []SpanRecord {
	if s.parent != nil {
		return nil
	}
	if len(r.sinks) == 0 {
		r.metrics.foldTree(s, "")
		return nil
	}
	return flattenSpan(s, -1, 0, "", nil)
}

// dispatch folds one flattened root, then hands it to every sink,
// outside the lock.
func (r *Recorder) dispatch(recs []SpanRecord) {
	if len(recs) == 0 {
		return
	}
	r.metrics.Fold(recs)
	r.mu.Lock()
	sinks := r.sinks
	r.mu.Unlock()
	for _, s := range sinks {
		s.Consume(recs)
	}
}

// HeadSampler forwards a deterministic fraction of root subtrees to the
// next sink: the sampling decision is made once per root ("head"
// sampling, so a kept trace is always complete) from a seed-keyed hash
// of the root's name and virtual start time. The same (seed, frac)
// therefore keeps the same roots on every run and at every -workers
// count — sampled exports stay byte-identical — while a 100k-host run
// exports O(sample), not O(fleet).
type HeadSampler struct {
	seed uint64
	frac float64
	next StreamSink
}

// NewHeadSampler returns a sampler keeping ~frac of roots (frac ≥ 1
// keeps everything, frac ≤ 0 drops everything) and forwarding them to
// next.
func NewHeadSampler(seed uint64, frac float64, next StreamSink) *HeadSampler {
	return &HeadSampler{seed: seed, frac: frac, next: next}
}

// Keep reports the sampling decision for a root record: a pure function
// of (seed, name, start), independent of span ids and arrival order.
func (h *HeadSampler) Keep(root SpanRecord) bool {
	if h.frac >= 1 {
		return true
	}
	if h.frac <= 0 {
		return false
	}
	key := uint64(14695981039346656037) // FNV-64a
	for i := 0; i < len(root.Name); i++ {
		key = (key ^ uint64(root.Name[i])) * 1099511628211
	}
	key ^= uint64(root.Start.Nanoseconds())
	u := simtime.Mix(h.seed^key) >> 11 // top 53 bits → uniform [0,1)
	return float64(u)/float64(1<<53) < h.frac
}

// Consume implements StreamSink.
func (h *HeadSampler) Consume(root []SpanRecord) {
	if len(root) > 0 && h.Keep(root[0]) && h.next != nil {
		h.next.Consume(root)
	}
}

// Collector is a StreamSink that keeps every record it is handed, root
// by root in the order the roots ended: the whole run, for the exporters
// (WriteArtifacts) and tpctl's workflow tree. Attach one only when the
// run's spans are wanted whole; its memory is O(everything recorded).
type Collector struct {
	mu   sync.Mutex
	recs []SpanRecord
}

// Consume implements StreamSink.
func (c *Collector) Consume(root []SpanRecord) {
	c.mu.Lock()
	c.recs = append(c.recs, root...)
	c.mu.Unlock()
}

// Records returns the records collected so far, roots in end order.
// The slice is shared: callers must not modify it.
func (c *Collector) Records() []SpanRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.recs
}

// FlightRecorder is a fixed-capacity ring buffer of the most recently
// streamed spans — the black box a violation handler reads instead of a
// full span tree. Capacity is respected strictly: the recorder holds at
// most Cap ring records plus at most Cap pinned records, however long
// the run. Records matching the optional pin predicate (rollback /
// recovery / fault spans, typically) bypass the ring and are retained
// until the pinned buffer itself is full, so the spans *near* faults
// survive even when steady-state traffic would have evicted them.
type FlightRecorder struct {
	mu      sync.Mutex
	cap     int
	ring    []SpanRecord
	next    int
	wrapped bool
	total   uint64
	pin     func(SpanRecord) bool
	pinned  []SpanRecord
}

// NewFlightRecorder returns a flight recorder retaining the last
// capacity spans (minimum 1).
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity < 1 {
		capacity = 1
	}
	return &FlightRecorder{cap: capacity, ring: make([]SpanRecord, 0, capacity)}
}

// SetPin installs the retention predicate: matching records go to the
// bounded pinned buffer instead of the ring.
func (f *FlightRecorder) SetPin(pin func(SpanRecord) bool) {
	f.mu.Lock()
	f.pin = pin
	f.mu.Unlock()
}

// Consume implements StreamSink.
func (f *FlightRecorder) Consume(root []SpanRecord) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, rec := range root {
		f.total++
		if f.pin != nil && f.pin(rec) && len(f.pinned) < f.cap {
			f.pinned = append(f.pinned, rec)
			continue
		}
		if len(f.ring) < f.cap {
			f.ring = append(f.ring, rec)
			continue
		}
		f.ring[f.next] = rec
		f.next = (f.next + 1) % f.cap
		f.wrapped = true
	}
}

// Cap returns the configured ring capacity.
func (f *FlightRecorder) Cap() int { return f.cap }

// Total returns the number of records ever consumed.
func (f *FlightRecorder) Total() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Evicted returns how many records were overwritten by ring wraparound
// or dropped by a full pinned buffer.
func (f *FlightRecorder) Evicted() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total - uint64(len(f.ring)+len(f.pinned))
}

// Snapshot returns the retained records — pinned first, then the ring —
// each group in arrival order. The slice is a copy.
func (f *FlightRecorder) Snapshot() []SpanRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]SpanRecord, 0, len(f.pinned)+len(f.ring))
	out = append(out, f.pinned...)
	if f.wrapped {
		out = append(out, f.ring[f.next:]...)
		out = append(out, f.ring[:f.next]...)
	} else {
		out = append(out, f.ring...)
	}
	return out
}

// WriteJSONL dumps the retained records in Snapshot order in the
// spans.jsonl line format (WriteJSONL).
func (f *FlightRecorder) WriteJSONL(w io.Writer) error { return WriteJSONL(w, f.Snapshot()) }
