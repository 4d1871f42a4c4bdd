package obs

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertp/internal/simtime"
)

// auditTree is the reference model for AuditRecords and the Auditor: it
// walks the span trees under the given roots — the root spans a test
// opened itself — parent by parent, in the order the checks are
// defined. Spans still open are only checked against lower bounds — an
// in-flight operation is not a violation. Nil roots (a nil recorder's)
// or clean trees return nil.
func auditTree(roots ...*Span) []SpanViolation {
	var out []SpanViolation
	for _, root := range roots {
		if root != nil {
			auditSpan(root, &out)
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

// audited returns a recorder with an Auditor attached.
func audited(clock *simtime.Clock) (*Recorder, *Auditor) {
	rec := NewRecorder(clock)
	aud := &Auditor{}
	rec.AddSink(aud)
	return rec, aud
}

// sameViolations fails t unless the Auditor found exactly what the
// reference model finds on the trees under roots, in any order, and
// returns the Auditor's violations.
func sameViolations(t *testing.T, aud *Auditor, roots ...*Span) []SpanViolation {
	t.Helper()
	got, want := aud.Violations(), auditTree(roots...)
	key := func(vs []SpanViolation) []string {
		var out []string
		for _, v := range vs {
			out = append(out, v.String())
		}
		slices.Sort(out)
		return out
	}
	if !slices.Equal(key(got), key(want)) {
		t.Fatalf("Auditor found %v, the tree walker %v", got, want)
	}
	return got
}

func TestAuditSpansCleanTree(t *testing.T) {
	clock := simtime.NewClock()
	rec, aud := audited(clock)
	root := rec.Start("root")
	clock.Advance(time.Millisecond)
	child := root.Child("child")
	clock.Advance(time.Millisecond)
	child.End()
	sib := root.Child("sibling")
	clock.Advance(time.Millisecond)
	sib.End()
	root.End()
	open := rec.Start("still-open") // open spans are fine
	if vs := sameViolations(t, aud, root, open); vs != nil {
		t.Fatalf("clean forest reported %v", vs)
	}
}

func TestAuditSpansNilRecorder(t *testing.T) {
	var rec *Recorder
	aud := &Auditor{}
	rec.AddSink(aud)
	s := rec.Start("discarded")
	s.End()
	if vs := sameViolations(t, aud, s); vs != nil {
		t.Fatalf("nil recorder reported %v", vs)
	}
}

func TestAuditSpansNegativeDuration(t *testing.T) {
	clock := simtime.NewClock()
	rec, aud := audited(clock)
	clock.Advance(time.Second)
	s := rec.Start("backwards")
	s.EndAt(time.Millisecond) // ends before it started
	vs := sameViolations(t, aud, s)
	if len(vs) != 1 || vs[0].Kind != "negative-duration" {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "backwards") {
		t.Fatalf("String() = %q", vs[0].String())
	}
}

func TestAuditSpansChildOutsideParent(t *testing.T) {
	clock := simtime.NewClock()
	rec, aud := audited(clock)
	clock.Advance(time.Second)
	parent := rec.Start("parent")
	early := parent.ChildAt("early", time.Millisecond) // before parent start
	early.EndAt(2 * time.Second)
	parent.EndAt(3 * time.Second)
	vs := sameViolations(t, aud, parent)
	if len(vs) != 1 || vs[0].Kind != "child-early" {
		t.Fatalf("violations = %v", vs)
	}

	rec2, aud2 := audited(clock)
	p2 := rec2.StartAt(nil, "parent", time.Second)
	late := p2.ChildAt("late", 2*time.Second)
	late.EndAt(5 * time.Second)
	p2.EndAt(3 * time.Second) // parent closes before its child
	vs = sameViolations(t, aud2, p2)
	if len(vs) != 1 || vs[0].Kind != "child-late" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAuditSpansSiblingRegression(t *testing.T) {
	clock := simtime.NewClock()
	rec, aud := audited(clock)
	parent := rec.StartAt(nil, "parent", 0)
	a := parent.ChildAt("a", 2*time.Second)
	a.EndAt(3 * time.Second)
	b := parent.ChildAt("b", time.Second) // starts before its elder sibling
	b.EndAt(4 * time.Second)
	parent.EndAt(5 * time.Second)
	vs := sameViolations(t, aud, parent)
	if len(vs) != 1 || vs[0].Kind != "sibling-regress" {
		t.Fatalf("violations = %v", vs)
	}
}

// TestAuditorMatchesTreeWalker is the equivalence property behind
// auditing each root's records as it ends: over random span forests —
// children opened under any open span at any virtual time, spans ended
// in any order at any time, so every violation kind occurs — the
// Auditor reports exactly the violations the tree walker finds on the
// same roots once every root has ended.
func TestAuditorMatchesTreeWalker(t *testing.T) {
	rng := rand.New(rand.NewSource(38))
	kinds := map[string]int{}
	for trial := 0; trial < 300; trial++ {
		rec, aud := audited(nil)
		at := func() time.Duration { return time.Duration(rng.Intn(100)) }
		var open, roots []*Span
		for i, n := 0, 1+rng.Intn(30); i < n; i++ {
			switch {
			case len(open) == 0 || rng.Intn(5) == 0:
				s := rec.StartAt(nil, fmt.Sprintf("root-%d", i), at())
				open = append(open, s)
				roots = append(roots, s)
			case rng.Intn(4) == 0:
				// End a random open span; ending a root flushes its tree
				// to the Auditor, so it takes no more children.
				j := rng.Intn(len(open))
				open[j].EndAt(at())
				open = slices.DeleteFunc(open, func(s *Span) bool { return s.ended })
			default:
				s := open[rng.Intn(len(open))].ChildAt(fmt.Sprintf("span-%d", i), at())
				open = append(open, s)
			}
		}
		for _, root := range roots {
			root.EndAt(at())
		}
		for _, v := range sameViolations(t, aud, roots...) {
			kinds[v.Kind]++
		}
	}
	for _, kind := range []string{"negative-duration", "child-early", "child-late", "sibling-regress"} {
		if kinds[kind] == 0 {
			t.Errorf("no random forest produced a %s violation: the property is vacuous for it (%v)", kind, kinds)
		}
	}
}
