// Package obs is the observability layer of the reproduction: a
// hierarchical span recorder and a metrics registry that together turn a
// transplant run into the structured event record the paper's evaluation
// is built on (Fig. 3 workflow, Fig. 7/8 downtime breakdowns, Table 4
// per-phase costs).
//
// Spans carry *virtual* start/end times read from the simulation clock,
// so every exported timestamp is deterministic: the same run produces
// byte-identical trace files for any -workers count. Wall-clock-derived
// metrics are marked Volatile and excluded from deterministic output
// (see export.go).
//
// The package also holds the evaluation harness's statistics and text
// rendering (stats.go): time series, percentile summaries, box-plot
// statistics and tables — the one metrics package of the tree.
//
// A nil *Recorder is valid everywhere and free: every method on a nil
// Recorder or nil Span is a no-op, so instrumented code needs no "is
// tracing on" branches — the nil check inside each method is the
// fast path.
package obs

import (
	"fmt"
	"sync"
	"time"

	"hypertp/internal/simtime"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// A returns an Attr, formatting the value with fmt.Sprint. It keeps call
// sites short: rec.Start("translate", obs.A("vms", n)).
func A(key string, value any) Attr {
	return Attr{Key: key, Value: fmt.Sprint(value)}
}

// Point is an instant event attached to a span.
type Point struct {
	T      time.Duration // virtual timestamp
	Name   string
	Detail string
}

// Span is one timed node of the span tree. Virtual times come from the
// recorder's clock (or were supplied explicitly via StartAt).
type Span struct {
	rec    *Recorder
	id     int
	parent *Span

	Name  string
	Track string // exporter track/tid grouping; "" = parent's track

	start, end time.Duration

	attrs    []Attr
	children []*Span
	events   []Point
	ended    bool
}

// Recorder records a forest of spans against a virtual clock. It is safe
// for concurrent use; all tree mutation happens under one mutex. The
// zero value is not usable — call NewRecorder. A nil *Recorder discards
// everything.
type Recorder struct {
	clock *simtime.Clock

	mu      sync.Mutex
	roots   []*Span
	current *Span
	nextID  int

	// Streaming pipeline (see stream.go): ended roots are flattened to
	// the sinks, and dropped from the forest when noRetain is set.
	sinks    []StreamSink
	noRetain bool

	metrics *Registry
}

// NewRecorder creates a recorder reading virtual timestamps from clock.
// clock may be nil for clock-less callers (e.g. the cluster planner)
// that record spans with explicit times via StartAt/EndAt.
func NewRecorder(clock *simtime.Clock) *Recorder {
	return &Recorder{clock: clock, metrics: NewRegistry()}
}

// Metrics returns the recorder's metrics registry (nil for a nil
// recorder; the registry's methods are nil-safe too).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.metrics
}

// now returns the current virtual time (0 without a clock).
func (r *Recorder) now() time.Duration {
	if r.clock == nil {
		return 0
	}
	return r.clock.Now()
}

// newSpanLocked allocates and links a span. Caller holds r.mu.
func (r *Recorder) newSpanLocked(parent *Span, name string, start time.Duration, attrs []Attr) *Span {
	s := &Span{
		rec:    r,
		id:     r.nextID,
		parent: parent,
		Name:   name,
		start:  start,
		end:    start,
		attrs:  attrs,
	}
	r.nextID++
	if parent != nil {
		parent.children = append(parent.children, s)
	} else {
		r.roots = append(r.roots, s)
	}
	return s
}

// Start opens a span as a child of the current span (or as a new root)
// and makes it current. Pair with End. Use Start for the synchronous,
// stack-shaped phases of the engine; use StartDetached/Child for
// callback-driven work that outlives the opening context.
func (r *Recorder) Start(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	s := r.newSpanLocked(r.current, name, r.now(), attrs)
	r.current = s
	return s
}

// StartDetached opens a span as a child of the current span without
// making it current — for asynchronous work (migration rounds, network
// transfers) that ends from an event callback.
func (r *Recorder) StartDetached(name string, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newSpanLocked(r.current, name, r.now(), attrs)
}

// StartAt opens a span with an explicit virtual start time under parent
// (nil parent = new root), without touching the current-span stack.
// Clock-less recorders use this exclusively.
func (r *Recorder) StartAt(parent *Span, name string, start time.Duration, attrs ...Attr) *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newSpanLocked(parent, name, start, attrs)
}

// Current returns the innermost open stack span, or nil.
func (r *Recorder) Current() *Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.current
}

// Event attaches an instant event to the current span (or to the root
// list as a zero-length span if no span is open): a happening with no
// duration of its own, such as an injected fault or a migration retry.
func (r *Recorder) Event(name, detail string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	t := r.now()
	if r.current == nil {
		s := r.newSpanLocked(nil, name, t, nil)
		s.ended = true
		if detail != "" {
			s.attrs = append(s.attrs, Attr{Key: "detail", Value: detail})
		}
		recs := r.flushRootLocked(s)
		r.mu.Unlock()
		r.dispatch(recs)
		return
	}
	r.current.events = append(r.current.events, Point{T: t, Name: name, Detail: detail})
	r.mu.Unlock()
}

// Roots returns the top-level spans in creation order. The returned
// slice is shared; callers must not mutate it while spans are open.
func (r *Recorder) Roots() []*Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roots
}

// Child opens a child span of s starting now, without touching the
// current-span stack.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil || s.rec == nil {
		return nil
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newSpanLocked(s, name, r.now(), attrs)
}

// ChildAt opens a child span of s with an explicit virtual start time.
func (s *Span) ChildAt(name string, start time.Duration, attrs ...Attr) *Span {
	if s == nil || s.rec == nil {
		return nil
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.newSpanLocked(s, name, start, attrs)
}

// SetAttr adds (or overrides) an attribute on the span.
func (s *Span) SetAttr(key string, value any) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	v := fmt.Sprint(value)
	for i := range s.attrs {
		if s.attrs[i].Key == key {
			s.attrs[i].Value = v
			return
		}
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: v})
}

// SetTrack assigns the span to a named exporter track (a tid in the
// Chrome trace). Children inherit the track unless they set their own.
func (s *Span) SetTrack(track string) {
	if s == nil || s.rec == nil {
		return
	}
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
	s.Track = track
}

// Annotate attaches an instant event to this specific span at the
// current virtual time.
func (s *Span) Annotate(name, detail string) {
	if s == nil || s.rec == nil {
		return
	}
	r := s.rec
	r.mu.Lock()
	defer r.mu.Unlock()
	s.events = append(s.events, Point{T: r.now(), Name: name, Detail: detail})
}

// End closes the span at the current virtual time. Ending a span also
// ends any still-open descendants (the error-path cleanup: a deferred
// root.End() leaves no dangling spans) and pops the current-span stack
// if it pointed into the span's subtree. End is idempotent.
func (s *Span) End() {
	if s == nil || s.rec == nil {
		return
	}
	s.endAt(s.rec.now())
}

// EndAt closes the span at an explicit virtual time (clock-less use).
func (s *Span) EndAt(t time.Duration) {
	if s == nil || s.rec == nil {
		return
	}
	s.endAt(t)
}

func (s *Span) endAt(t time.Duration) {
	r := s.rec
	r.mu.Lock()
	if s.ended {
		r.mu.Unlock()
		return
	}
	// Pop the stack if current sits inside this subtree.
	for c := r.current; c != nil; c = c.parent {
		if c == s {
			r.current = s.parent
			break
		}
	}
	s.endLocked(t)
	recs := r.flushRootLocked(s)
	r.mu.Unlock()
	// Sinks run outside the lock so they may read the recorder (e.g.
	// resolve metrics) without deadlocking.
	r.dispatch(recs)
}

func (s *Span) endLocked(t time.Duration) {
	if s.ended {
		return
	}
	for _, c := range s.children {
		c.endLocked(t)
	}
	s.end = t
	s.ended = true
}

// Start returns the span's virtual start time.
func (s *Span) StartTime() time.Duration {
	if s == nil {
		return 0
	}
	return s.start
}

// EndTime returns the span's virtual end time (== start while open).
func (s *Span) EndTime() time.Duration {
	if s == nil {
		return 0
	}
	return s.end
}

// Duration returns the span's virtual duration.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	return s.end - s.start
}

// Ended reports whether the span is closed.
func (s *Span) Ended() bool { return s != nil && s.ended }

// Children returns the span's children in creation order.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	return s.children
}

// Events returns the span's instant events in recorded order.
func (s *Span) Events() []Point {
	if s == nil {
		return nil
	}
	return s.events
}

// Attrs returns the span's attributes in insertion order.
func (s *Span) Attrs() []Attr {
	if s == nil {
		return nil
	}
	return s.attrs
}

// Find returns the first span named name in a depth-first walk of the
// subtree rooted at s, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// Walk visits the subtree rooted at s depth-first in creation order.
func (s *Span) Walk(fn func(s *Span, depth int)) {
	if s == nil {
		return
	}
	s.walk(fn, 0)
}

func (s *Span) walk(fn func(*Span, int), depth int) {
	fn(s, depth)
	for _, c := range s.children {
		c.walk(fn, depth+1)
	}
}
