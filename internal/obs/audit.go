package obs

import (
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"
)

// SpanViolation is one structural inconsistency in recorded spans found
// by AuditRecords.
type SpanViolation struct {
	// Kind classifies the inconsistency:
	//
	//	"negative-duration"  a span ended before it started
	//	"child-early"        a child starts before its parent started
	//	"child-late"         a child ends after its parent
	//	"sibling-regress"    under one parent, a later-opened sibling
	//	                     starts before an earlier one (virtual time
	//	                     ran backwards)
	Kind   string
	Span   string
	Detail string
}

func (v SpanViolation) String() string {
	return fmt.Sprintf("%s: span %q: %s", v.Kind, v.Span, v.Detail)
}

// AuditRecords checks flattened span records for well-nestedness: every
// span's end is at or after its start, every child lives within its
// parent's virtual-time window, and siblings open in monotone start
// order (the discrete-event clock never runs backwards). A clean set
// returns nil. Records whose parent is absent from the slice (evicted by
// a FlightRecorder's ring) are only checked for negative duration: a
// truncated window is not a violation. Records may arrive in any order —
// a FlightRecorder snapshot lists pinned records first, and a
// depth-first export lists a nephew before a later-opened uncle:
// parent/child relations are reconstructed from the Parent ids, and
// siblings are compared in span-id order, which is the order they were
// opened in and so the order sibling monotonicity is defined over.
func AuditRecords(recs []SpanRecord) []SpanViolation {
	byID := make(map[int]*SpanRecord, len(recs))
	order := make([]*SpanRecord, len(recs))
	for i := range recs {
		byID[recs[i].ID] = &recs[i]
		order[i] = &recs[i]
	}
	sort.SliceStable(order, func(i, j int) bool { return order[i].ID < order[j].ID })
	var out []SpanViolation
	// prevStart tracks, per present parent, the latest start among the
	// children opened so far.
	prevStart := make(map[int]time.Duration, len(recs))
	for _, rec := range order {
		if rec.End < rec.Start {
			out = append(out, SpanViolation{Kind: "negative-duration", Span: rec.Name,
				Detail: fmt.Sprintf("start %v, end %v", rec.Start, rec.End)})
		}
		p, ok := byID[rec.Parent]
		if !ok {
			continue
		}
		if rec.Start < p.Start {
			out = append(out, SpanViolation{Kind: "child-early", Span: rec.Name,
				Detail: fmt.Sprintf("starts %v before parent %q at %v", rec.Start, p.Name, p.Start)})
		} else if prev, seen := prevStart[rec.Parent]; seen && rec.Start < prev {
			out = append(out, SpanViolation{Kind: "sibling-regress", Span: rec.Name,
				Detail: fmt.Sprintf("starts %v before an earlier sibling under %q at %v", rec.Start, p.Name, prev)})
		}
		if rec.End > p.End {
			out = append(out, SpanViolation{Kind: "child-late", Span: rec.Name,
				Detail: fmt.Sprintf("ends %v after parent %q at %v", rec.End, p.Name, p.End)})
		}
		if prev, seen := prevStart[rec.Parent]; !seen || rec.Start > prev {
			prevStart[rec.Parent] = rec.Start
		}
	}
	return out
}

// Auditor is the span auditor: a StreamSink that runs AuditRecords over
// each root's complete records once, as the root ends, and keeps what it
// finds. Attached to a recorder, it checks every span tree the recorder
// closes; a tree still open is checked when it ends.
type Auditor struct {
	mu         sync.Mutex
	violations []SpanViolation
}

// Consume implements StreamSink.
func (a *Auditor) Consume(root []SpanRecord) {
	vs := AuditRecords(root)
	if len(vs) == 0 {
		return
	}
	a.mu.Lock()
	a.violations = append(a.violations, vs...)
	a.mu.Unlock()
}

// Violations returns every violation found so far, in the order the
// roots ended; nil when every audited tree was well-nested.
func (a *Auditor) Violations() []SpanViolation {
	a.mu.Lock()
	defer a.mu.Unlock()
	return slices.Clone(a.violations)
}
