// Package obs is the observability layer of the reproduction: a
// hierarchical span recorder and a metrics registry that together turn a
// transplant run into the structured event record the paper's evaluation
// is built on (Fig. 3 workflow, Fig. 7/8 downtime breakdowns, Table 4
// per-phase costs).
//
// Spans carry *virtual* start/end times read from the simulation clock,
// so every exported timestamp is deterministic: the same run produces
// byte-identical trace files for any -workers count.
//
// The recorder holds only open spans. When a root span ends, its tree is
// flattened into []SpanRecord and handed to the recorder's sinks (see
// stream.go), and the recorder lets it go: every export — trace.json,
// spans.jsonl, tpctl's workflow tree, the auditor — is a function of
// those records. A caller that wants the whole run attaches a Collector.
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
	"strconv"
	"sync"
	"time"

	"hypertp/internal/simtime"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key, Value string
}

// A returns an Attr, formatting the value as fmt.Sprint does. It keeps
// call sites short: rec.Start("translate", obs.A("vms", n)).
func A(key string, value any) Attr {
	return Attr{Key: key, Value: format(value)}
}

// format renders an attribute value as fmt.Sprint would, the common
// kinds without fmt's buffer and copy.
func format(v any) string {
	switch v := v.(type) {
	case string:
		return v
	case int:
		return strconv.Itoa(v)
	case int64:
		return strconv.FormatInt(v, 10)
	case uint64:
		return strconv.FormatUint(v, 10)
	case fmt.Stringer: // time.Duration among them
		return v.String()
	}
	return fmt.Sprint(v)
}

// Point is an instant event attached to a span.
type Point struct {
	T      time.Duration `json:"t_ns"` // virtual timestamp
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

// Recorder records trees of spans against a virtual clock. It is safe
// for concurrent use; all tree mutation happens under one mutex. It
// holds a tree only while its root is open: an ended root is flattened
// to the sinks and released. The zero value is not usable — call
// NewRecorder. A nil *Recorder discards everything.
type Recorder struct {
	clock *simtime.Clock

	mu      sync.Mutex
	current *Span
	nextID  int

	// Streaming pipeline (see stream.go): each ended root is flattened
	// to the sinks.
	sinks []StreamSink

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

// Event attaches an instant event to the current span (or, if no span is
// open, records it as a zero-length root): a happening with no
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
	v := format(value)
	s.rec.mu.Lock()
	defer s.rec.mu.Unlock()
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
