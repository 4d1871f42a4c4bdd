package obs

import (
	"fmt"
	"sort"
	"time"
)

// SpanViolation is one structural inconsistency in the recorded span
// forest found by AuditSpans.
type SpanViolation struct {
	// Kind classifies the inconsistency:
	//
	//	"negative-duration"  a span ended before it started
	//	"child-early"        a child starts before its parent started
	//	"child-late"         an ended child ends after its ended parent
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

// AuditSpans checks the recorded span forest for well-nestedness: every
// span's end is at or after its start, every child lives within its
// parent's virtual-time window, and siblings open in monotone start
// order (the discrete-event clock never runs backwards). Spans still
// open are only checked against lower bounds — an in-flight operation
// is not a violation. A nil recorder or a clean forest returns nil.
func (r *Recorder) AuditSpans() []SpanViolation {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SpanViolation
	for _, root := range r.roots {
		auditSpan(root, &out)
	}
	return out
}

// AuditRecords runs the AuditSpans checks over flattened span records —
// the form a FlightRecorder retains — so violation handlers can audit
// span structure without the full tree. Records whose parent is absent
// from the slice (evicted by the ring, or sampled away) are only checked
// for negative duration: a truncated window is not a violation. Records
// may arrive in any order — a FlightRecorder snapshot lists pinned records
// first: parent/child relations are reconstructed from the Parent ids,
// and siblings are compared in span-id order, which is the order they
// were opened in and so the order sibling monotonicity is defined over.
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

func auditSpan(s *Span, out *[]SpanViolation) {
	if s.ended && s.end < s.start {
		*out = append(*out, SpanViolation{Kind: "negative-duration", Span: s.Name,
			Detail: fmt.Sprintf("start %v, end %v", s.start, s.end)})
	}
	prev := s.start
	for _, c := range s.children {
		if c.start < s.start {
			*out = append(*out, SpanViolation{Kind: "child-early", Span: c.Name,
				Detail: fmt.Sprintf("starts %v before parent %q at %v", c.start, s.Name, s.start)})
		} else if c.start < prev {
			// Only a child inside the parent window can regress on a
			// sibling; an early child is already reported above.
			*out = append(*out, SpanViolation{Kind: "sibling-regress", Span: c.Name,
				Detail: fmt.Sprintf("starts %v before an earlier sibling under %q at %v", c.start, s.Name, prev)})
		}
		if c.ended && s.ended && c.end > s.end {
			*out = append(*out, SpanViolation{Kind: "child-late", Span: c.Name,
				Detail: fmt.Sprintf("ends %v after parent %q at %v", c.end, s.Name, s.end)})
		}
		if c.start > prev {
			prev = c.start
		}
		auditSpan(c, out)
	}
}
