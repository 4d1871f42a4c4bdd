package obs

import (
	"io"
	"sync"
	"time"

	"hypertp/internal/simtime"
)

// Streaming span pipeline. The tree recorder of obs.go is the right
// shape for a single transplant, but a 100k-host fleet run cannot hold
// (or export) every span of every host: the full forest is O(fleet).
// This file adds the incremental alternative — when a *root* span ends,
// its whole subtree is flattened into SpanRecords and handed to the
// recorder's StreamSinks, and (with retention off) released from the
// recorder, so resident memory is O(open spans + sink capacity), not
// O(everything ever recorded).
//
// Determinism carries over from the tree exporters: records are
// flattened depth-first in creation order with virtual timestamps, and
// root spans end in deterministic order (span mutation happens on the
// sequential side of the stack — engine phases on the discrete-event
// clock, scheduler Commit hooks), so what a sink sees is identical
// across -workers counts just like WriteJSONL's output.

// SpanRecord is one span flattened out of the tree: the immutable,
// export-ready form a StreamSink consumes. IDs and parent IDs are the
// recorder's span ids; Track is the resolved (inherited) track.
type SpanRecord struct {
	ID     int
	Parent int // -1 for roots
	Depth  int
	Name   string
	Track  string
	Start  time.Duration
	End    time.Duration
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

// SetRetain controls whether ended root spans stay in the recorder's
// forest. The default (true) keeps the whole forest for the tree
// exporters (WriteArtifacts). With retain off, an ended root is
// flattened to the sinks and then released, so memory stays bounded
// regardless of run length — the 100k-host mode. Tree exporters then
// only see still-open roots; a streaming sink (FlightRecorder, Auditor)
// consumes the spans instead.
func (r *Recorder) SetRetain(retain bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.noRetain = !retain
	r.mu.Unlock()
}

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

// flushRootLocked handles an ended root span under r.mu: flatten for
// the sinks (when any are registered) and drop it from the forest when
// retention is off. Returns the records to dispatch after unlocking.
func (r *Recorder) flushRootLocked(s *Span) []SpanRecord {
	if s.parent != nil || (len(r.sinks) == 0 && !r.noRetain) {
		return nil
	}
	var recs []SpanRecord
	if len(r.sinks) > 0 {
		recs = flattenSpan(s, -1, 0, "", nil)
	}
	if r.noRetain {
		for i := len(r.roots) - 1; i >= 0; i-- {
			if r.roots[i] == s {
				r.roots = append(r.roots[:i], r.roots[i+1:]...)
				break
			}
		}
	}
	return recs
}

// dispatch hands one flattened root to every sink, outside the lock.
func (r *Recorder) dispatch(recs []SpanRecord) {
	if len(recs) == 0 {
		return
	}
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

	mu            sync.Mutex
	kept, dropped int64
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
	if len(root) == 0 {
		return
	}
	if !h.Keep(root[0]) {
		h.mu.Lock()
		h.dropped++
		h.mu.Unlock()
		return
	}
	h.mu.Lock()
	h.kept++
	h.mu.Unlock()
	if h.next != nil {
		h.next.Consume(root)
	}
}

// Kept returns the number of roots forwarded so far.
func (h *HeadSampler) Kept() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.kept
}

// Dropped returns the number of roots discarded so far.
func (h *HeadSampler) Dropped() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.dropped
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

// Len returns the number of records currently retained (ring + pinned);
// never more than 2×Cap.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.ring) + len(f.pinned)
}

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

// WriteJSONL dumps the retained records in Snapshot order, one JSON
// line per span (the Recorder.WriteJSONL format).
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	var b []byte
	for _, rec := range f.Snapshot() {
		b = rec.appendJSONL(b)
	}
	_, err := w.Write(b)
	return err
}
