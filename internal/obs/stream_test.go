package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertp/internal/simtime"
)

// buildStreamedRun records a small three-root forest on rec, returning
// the number of spans recorded.
func buildStreamedRun(rec *Recorder, clock *simtime.Clock) int {
	n := 0
	for i := 0; i < 3; i++ {
		root := rec.Start(fmt.Sprintf("op-%d", i), A("i", i))
		root.SetTrack(fmt.Sprintf("track-%d", i%2))
		n++
		clock.Advance(time.Millisecond)
		c := rec.Start("phase")
		rec.Event("mark", "midpoint")
		n++
		clock.Advance(time.Millisecond)
		rec.StartAt(c, "detail", clock.Now())
		n++
		clock.Advance(time.Millisecond)
		c.End()
		root.End()
	}
	return n
}

// TestFlightRecorderMatchesArtifactExport pins that every sink sees one
// record stream: a flight recorder's dump is byte-identical to the
// spans.jsonl a Collector on the same recorder writes.
func TestFlightRecorderMatchesArtifactExport(t *testing.T) {
	clock := simtime.NewClock()
	rec, col := collecting(clock)
	sink := NewFlightRecorder(100)
	rec.AddSink(sink)

	buildStreamedRun(rec, clock)

	var streamed, collected bytes.Buffer
	if err := sink.WriteJSONL(&streamed); err != nil {
		t.Fatalf("FlightRecorder.WriteJSONL: %v", err)
	}
	if err := WriteJSONL(&collected, col.Records()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if streamed.String() != collected.String() {
		t.Fatalf("flight recorder JSONL differs from the collected export:\nflight:\n%s\ncollected:\n%s",
			streamed.String(), collected.String())
	}
	if streamed.Len() == 0 {
		t.Fatal("no output streamed")
	}
}

// TestStreamSinksSeeEverySpan checks that every span of every ended root
// reaches the sinks, instant roots included.
func TestStreamSinksSeeEverySpan(t *testing.T) {
	clock := simtime.NewClock()
	rec := NewRecorder(clock)
	sink := NewFlightRecorder(100)
	rec.AddSink(sink)

	want := buildStreamedRun(rec, clock)

	if got := len(sink.Snapshot()); got != want {
		t.Fatalf("streamed %d spans, want %d", got, want)
	}
	// An instant event with no open span is a root of its own.
	rec.Event("standalone", "x")
	if snap := sink.Snapshot(); snap[len(snap)-1].Name != "standalone" {
		t.Fatal("instant root not streamed")
	}
}

// TestCollectorConcurrentRoots ends roots from several goroutines at
// once: the Collector keeps every root's records whole and contiguous.
func TestCollectorConcurrentRoots(t *testing.T) {
	rec, col := collecting(nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				root := rec.StartAt(nil, "root", 0)
				root.ChildAt("child", 0).EndAt(1)
				root.EndAt(2)
			}
		}()
	}
	wg.Wait()
	recs := col.Records()
	if len(recs) != 4*50*2 {
		t.Fatalf("collected %d records, want %d", len(recs), 4*50*2)
	}
	for i := 0; i < len(recs); i += 2 {
		if recs[i].Parent != -1 || recs[i+1].Parent != recs[i].ID {
			t.Fatalf("records %d and %d are not one root and its child: %+v %+v", i, i+1, recs[i], recs[i+1])
		}
	}
}

// TestHeadSamplerDeterministic checks the sampling decision is a pure
// function of (seed, root name, root start) — independent of arrival
// order — and that different seeds select different subsets.
func TestHeadSamplerDeterministic(t *testing.T) {
	roots := make([]SpanRecord, 200)
	for i := range roots {
		roots[i] = SpanRecord{Name: fmt.Sprintf("host-%03d", i), Start: time.Duration(i) * time.Second}
	}
	h1 := NewHeadSampler(42, 0.3, nil)
	h2 := NewHeadSampler(42, 0.3, nil)
	hOther := NewHeadSampler(43, 0.3, nil)
	// Each sampler's first decisions: h1 is fed the roots in order, h2
	// in reverse, and every root must get the same decision from both.
	forward, reverse := make([]bool, len(roots)), make([]bool, len(roots))
	for i := range roots {
		forward[i] = h1.Keep(roots[i])
	}
	for i := len(roots) - 1; i >= 0; i-- {
		reverse[i] = h2.Keep(roots[i])
	}
	diff := false
	for i := range roots {
		if forward[i] != reverse[i] {
			t.Fatalf("root %d: kept %v fed in order, %v fed in reverse", i, forward[i], reverse[i])
		}
		if forward[i] != hOther.Keep(roots[i]) {
			diff = true
		}
	}
	if !diff {
		t.Fatal("seeds 42 and 43 selected identical subsets over 200 roots")
	}

	kept := 0
	for _, r := range roots {
		if h1.Keep(r) {
			kept++
		}
	}
	if kept == 0 || kept == len(roots) {
		t.Fatalf("frac 0.3 kept %d/%d roots — not sampling", kept, len(roots))
	}
	if !NewHeadSampler(1, 1.0, nil).Keep(roots[0]) {
		t.Fatal("frac 1.0 must keep everything")
	}
	if NewHeadSampler(1, 0, nil).Keep(roots[0]) {
		t.Fatal("frac 0 must drop everything")
	}
}

// TestHeadSamplerForwarding checks that exactly the roots Keep selects
// reach the next sink, in arrival order.
func TestHeadSamplerForwarding(t *testing.T) {
	col := &Collector{}
	h := NewHeadSampler(7, 0.5, col)
	var kept []string
	for i := 0; i < 100; i++ {
		root := SpanRecord{ID: i, Parent: -1, Name: fmt.Sprintf("r-%d", i), Start: time.Duration(i)}
		if h.Keep(root) {
			kept = append(kept, root.Name)
		}
		h.Consume([]SpanRecord{root})
	}
	if len(kept) == 0 || len(kept) == 100 {
		t.Fatalf("frac 0.5 kept %d/100 roots — not sampling", len(kept))
	}
	if got, want := names(col.Records()), strings.Join(kept, ","); got != want {
		t.Fatalf("next sink saw %s, Keep selected %s", got, want)
	}
}

// TestFlightRecorderCapacity checks the strict capacity bound, FIFO
// eviction order and eviction accounting.
func TestFlightRecorderCapacity(t *testing.T) {
	fr := NewFlightRecorder(8)
	for i := 0; i < 50; i++ {
		fr.Consume([]SpanRecord{{ID: i, Parent: -1, Name: "s", Start: time.Duration(i)}})
	}
	if n := len(fr.Snapshot()); n != 8 {
		t.Fatalf("retained %d records, want capacity 8", n)
	}
	if fr.Total() != 50 {
		t.Fatalf("Total = %d, want 50", fr.Total())
	}
	if fr.Evicted() != 42 {
		t.Fatalf("Evicted = %d, want 42", fr.Evicted())
	}
	snap := fr.Snapshot()
	for i, rec := range snap {
		if rec.ID != 42+i {
			t.Fatalf("snapshot[%d].ID = %d, want %d (last 8 in arrival order)", i, rec.ID, 42+i)
		}
	}
}

// TestFlightRecorderPin checks that pin-matched records survive ring
// wraparound, within the pinned buffer's own capacity bound.
func TestFlightRecorderPin(t *testing.T) {
	fr := NewFlightRecorder(4)
	fr.SetPin(func(r SpanRecord) bool { return strings.HasPrefix(r.Name, "fault") })
	fr.Consume([]SpanRecord{{ID: 0, Parent: -1, Name: "fault.inject", Start: 0}})
	for i := 1; i <= 40; i++ {
		fr.Consume([]SpanRecord{{ID: i, Parent: -1, Name: "steady", Start: time.Duration(i)}})
	}
	snap := fr.Snapshot()
	if len(snap) != 5 { // 1 pinned + 4 ring
		t.Fatalf("retained %d records, want 5", len(snap))
	}
	if snap[0].Name != "fault.inject" {
		t.Fatalf("pinned record evicted; snapshot head = %q", snap[0].Name)
	}
	// The pinned buffer itself is bounded at capacity.
	for i := 0; i < 20; i++ {
		fr.Consume([]SpanRecord{{ID: 100 + i, Parent: -1, Name: "fault.more", Start: time.Duration(100 + i)}})
	}
	if n := len(fr.Snapshot()); n > 2*fr.Cap() {
		t.Fatalf("retained %d records, cap bound is %d", n, 2*fr.Cap())
	}
}

// TestAuditRecordsMirrorsAuditSpans builds a deliberately malformed
// forest via explicit timestamps and checks the flattened audit finds
// the same violation kinds the tree walker (auditTree) does.
func TestAuditRecordsMirrorsAuditSpans(t *testing.T) {
	rec := NewRecorder(nil)
	fr := NewFlightRecorder(100)
	rec.AddSink(fr)

	root := rec.StartAt(nil, "root", 10*time.Millisecond)
	early := rec.StartAt(root, "early-child", 5*time.Millisecond) // child-early
	early.EndAt(6 * time.Millisecond)
	a := rec.StartAt(root, "a", 20*time.Millisecond)
	a.EndAt(19 * time.Millisecond)                   // negative-duration
	b := rec.StartAt(root, "b", 15*time.Millisecond) // sibling-regress vs a
	b.EndAt(40 * time.Millisecond)                   // child-late vs root end 30ms
	root.EndAt(30 * time.Millisecond)
	// EndAt on root ends descendants at 30ms only if still open; a and b
	// already ended at their own times.

	want := map[string]bool{}
	for _, v := range auditTree(root) {
		want[v.Kind] = true
	}
	got := map[string]bool{}
	for _, v := range AuditRecords(fr.Snapshot()) {
		got[v.Kind] = true
	}
	for _, kind := range []string{"negative-duration", "child-early", "sibling-regress", "child-late"} {
		if !want[kind] {
			t.Fatalf("tree audit missed %q (test forest broken): %v", kind, auditTree(root))
		}
		if !got[kind] {
			t.Fatalf("AuditRecords missed %q; got %v", kind, AuditRecords(fr.Snapshot()))
		}
	}

	// Orphaned records (parent evicted) only report their own duration.
	orphan := []SpanRecord{{ID: 9, Parent: 3, Depth: 2, Name: "orphan",
		Start: 5 * time.Millisecond, End: 6 * time.Millisecond}}
	if vs := AuditRecords(orphan); len(vs) != 0 {
		t.Fatalf("orphaned record flagged: %v", vs)
	}
}

// TestAuditRecordsOrderIndependent is the regression for the chaos soak's
// false "sibling-regress … under nova.quarantine": a FlightRecorder
// snapshot lists pinned records first, so a pinned middle sibling used to
// be compared ahead of its elder. Whatever order the records arrive in,
// the flattened audit must give the tree auditor's verdict — and still
// catch a real regress.
func TestAuditRecordsOrderIndependent(t *testing.T) {
	kinds := func(vs []SpanViolation) string {
		var out []string
		for _, v := range vs {
			out = append(out, v.Kind+":"+v.Span)
		}
		sort.Strings(out)
		return strings.Join(out, ",")
	}
	for _, tc := range []struct {
		name   string
		starts [3]time.Duration // the three siblings, in opening order
		want   string
	}{
		{"well-nested", [3]time.Duration{10, 20, 30}, ""},
		{"real-regress", [3]time.Duration{10, 30, 20}, "sibling-regress:vm-2"},
	} {
		rec := NewRecorder(nil)
		fr := NewFlightRecorder(16)
		// The middle sibling is the one with retry evidence.
		fr.SetPin(func(r SpanRecord) bool { return r.Name == "vm-1" })
		rec.AddSink(fr)
		root := rec.StartAt(nil, "nova.quarantine", 5)
		for i, start := range tc.starts {
			root.ChildAt(fmt.Sprintf("vm-%d", i), start).EndAt(start + 5)
		}
		root.EndAt(50)
		if got := kinds(auditTree(root)); got != tc.want {
			t.Fatalf("%s: tree audit = %q, want %q (test forest broken)", tc.name, got, tc.want)
		}
		snap := fr.Snapshot()
		if snap[0].Name != "vm-1" {
			t.Fatalf("%s: snapshot does not list the pinned record first: %v", tc.name, snap)
		}
		if got := kinds(AuditRecords(snap)); got != tc.want {
			t.Errorf("%s: pinned-first snapshot audits as %q, want %q", tc.name, got, tc.want)
		}
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 20; i++ {
			rng.Shuffle(len(snap), func(a, b int) { snap[a], snap[b] = snap[b], snap[a] })
			if got := kinds(AuditRecords(snap)); got != tc.want {
				t.Errorf("%s: shuffled snapshot %v audits as %q, want %q", tc.name, snap, got, tc.want)
			}
		}
	}
}

// TestWritePrometheusDeterministic checks the text-format dump: sorted
// per-kind order and cumulative buckets.
func TestWritePrometheusDeterministic(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta.ops", "ops").Add(3)
	reg.Counter("alpha.ops", "ops").Add(1)
	g := reg.Gauge("inflight", "vms")
	g.Add(5)
	g.Add(-3)
	h := reg.Histogram("latency", "ns", []float64{10, 100})
	h.Observe(5)
	h.Observe(50)
	h.Observe(500)

	var b1, b2 bytes.Buffer
	if err := reg.WritePrometheus(&b1, false); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if err := reg.WritePrometheus(&b2, false); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := b1.String()
	if out != b2.String() {
		t.Fatal("two renders of the same registry differ")
	}
	if strings.Index(out, "hypertp_alpha_ops_total") > strings.Index(out, "hypertp_zeta_ops_total") {
		t.Fatal("counters not in sorted name order")
	}
	for _, want := range []string{
		"hypertp_alpha_ops_total 1",
		"hypertp_zeta_ops_total 3",
		"hypertp_inflight 2",
		"hypertp_inflight_max 5",
		"hypertp_latency_bucket{le=\"10\"} 1",
		"hypertp_latency_bucket{le=\"100\"} 2",
		"hypertp_latency_bucket{le=\"+Inf\"} 3",
		"hypertp_latency_sum 555",
		"hypertp_latency_count 3",
		"# TYPE hypertp_latency histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

// exportModes are the two sinks a run's spans are flushed to as each
// root ends: a Collector keeping the whole run (the artifact export), or
// the seed-keyed head sampler in front of a flight recorder (the
// 100k-host export mode).
var exportModes = []struct {
	name   string
	stream bool
	budget float64 // allocations per root, see TestStreamingExportAllocBudget
}{{"collected", false, 7}, {"streamed", true, 7}}

func newExportRecorder(stream bool) (*Recorder, *simtime.Clock) {
	clock := simtime.NewClock()
	rec := NewRecorder(clock)
	if stream {
		rec.AddSink(NewHeadSampler(1, 0.1, NewFlightRecorder(256)))
	} else {
		rec.AddSink(&Collector{})
	}
	return rec, clock
}

// recordRoot records the shape every operation's trace has: a root with
// an attribute and one child phase.
func recordRoot(rec *Recorder, clock *simtime.Clock, i int) {
	root := rec.Start("bench.op", A("i", i))
	clock.Advance(time.Microsecond)
	c := rec.Start("bench.phase")
	clock.Advance(time.Microsecond)
	c.End()
	root.End()
}

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
var raceEnabled bool

// TestStreamingExportAllocBudget pins what one root costs in each export
// mode, averaged over 4096 roots (one in ten is sampled into the flight
// recorder): the spans, the attribute, the flushed records, and the
// collector's growth.
func TestStreamingExportAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	for _, mode := range exportModes {
		rec, clock := newExportRecorder(mode.stream)
		root := 0
		if n := testing.AllocsPerRun(4096, func() { recordRoot(rec, clock, root); root++ }); n > mode.budget {
			t.Errorf("%s: %v allocations per root, budget %v", mode.name, n, mode.budget)
		}
	}
}

// BenchmarkStreamingExport measures the per-root cost of each export
// mode. Each iteration records an 8192-root batch, so short runs measure
// real work, not timer granularity.
func BenchmarkStreamingExport(b *testing.B) {
	for _, mode := range exportModes {
		b.Run(mode.name, func(b *testing.B) {
			rec, clock := newExportRecorder(mode.stream)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < 8192; j++ {
					recordRoot(rec, clock, i)
				}
			}
		})
	}
}
