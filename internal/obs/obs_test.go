package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertp/internal/simtime"
)

func TestNilRecorderIsNoOp(t *testing.T) {
	var r *Recorder
	// Every call on a nil recorder (and the nil spans/instruments it
	// returns) must be a silent no-op — this is the off switch.
	s := r.Start("a", A("k", 1))
	s.SetAttr("x", 2)
	s.SetTrack("t")
	c := s.Child("b")
	c.End()
	s.End()
	r.StartDetached("c").End()
	r.StartAt(nil, "d", time.Second).EndAt(2 * time.Second)
	r.Event("e", "f")
	if r.Current() != nil {
		t.Fatal("nil recorder returned state")
	}
	m := r.Metrics()
	m.Counter("c", "u").Add(1)
	m.Gauge("g", "u").Add(1)
	m.Histogram("h", "u", ExpBuckets(1, 2, 4)).Observe(1)
}

// collecting returns a recorder whose ended roots land in the returned
// collector.
func collecting(clock *simtime.Clock) (*Recorder, *Collector) {
	r := NewRecorder(clock)
	col := &Collector{}
	r.AddSink(col)
	return r, col
}

// names lists the records' span names in order, comma-separated.
func names(recs []SpanRecord) string {
	var out []string
	for _, rec := range recs {
		out = append(out, rec.Name)
	}
	return strings.Join(out, ",")
}

func TestSpanStackNesting(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root")
	clock.Advance(time.Second)
	child := r.Start("child")
	if r.Current() != child {
		t.Fatal("child not current")
	}
	clock.Advance(time.Second)
	child.End()
	if r.Current() != root {
		t.Fatal("End did not pop to parent")
	}
	clock.Advance(time.Second)
	root.End()
	if r.Current() != nil {
		t.Fatal("stack not empty after root End")
	}
	recs := col.Records()
	if len(recs) != 2 || recs[1].Parent != recs[0].ID {
		t.Fatalf("wrong tree shape: %+v", recs)
	}
	if recs[1].Start != time.Second || recs[1].End != 2*time.Second {
		t.Fatalf("child times: start=%v end=%v", recs[1].Start, recs[1].End)
	}
	if recs[0].End-recs[0].Start != 3*time.Second {
		t.Fatalf("root duration = %v", recs[0].End-recs[0].Start)
	}
}

func TestEndForcesOpenDescendants(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root")
	r.Start("child")
	grand := r.Start("grand")
	clock.Advance(time.Second)
	root.End() // error-path cleanup: everything under root must close
	if !grand.ended {
		t.Fatal("grandchild left open")
	}
	if recs := col.Records(); len(recs) != 3 || recs[2].End != time.Second {
		t.Fatalf("records = %+v, want the grandchild ended at 1s", recs)
	}
	if r.Current() != nil {
		t.Fatal("stack not cleared")
	}
	root.End() // idempotent
	if n := len(col.Records()); n != 3 {
		t.Fatalf("second End flushed the root again: %d records", n)
	}
}

func TestDetachedSpansAndEvents(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root")
	d := r.StartDetached("async")
	if r.Current() != root {
		t.Fatal("StartDetached touched the stack")
	}
	clock.Advance(time.Second)
	r.Event("step", "detail")
	d.End()
	root.End()
	recs := col.Records()
	if evs := recs[0].Events; len(evs) != 1 || evs[0].Name != "step" || evs[0].T != time.Second {
		t.Fatalf("events = %+v", evs)
	}
	if len(recs) != 2 || recs[1].Name != "async" || recs[1].Parent != recs[0].ID {
		t.Fatalf("detached span not recorded under the root: %+v", recs)
	}
}

func TestEventWithoutOpenSpan(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	clock.Advance(time.Second)
	r.Event("orphan", "d")
	recs := col.Records()
	if len(recs) != 1 || recs[0].Name != "orphan" || recs[0].Parent != -1 ||
		recs[0].Start != time.Second || recs[0].End != time.Second {
		t.Fatalf("orphan event not recorded as zero-length root: %+v", recs)
	}
}

func TestRegistryInstruments(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("a.count", "items")
	c.Add(3)
	c.Add(4)
	if reg.Counter("a.count", "items") != c {
		t.Fatal("counter not deduped by name")
	}
	if c.Value() != 7 {
		t.Fatalf("counter = %d", c.Value())
	}
	g := reg.Gauge("a.gauge", "items")
	g.Add(5)
	g.Add(-2)
	if g.Value() != 3 || g.Max() != 5 {
		t.Fatalf("gauge value=%d max=%d", g.Value(), g.Max())
	}
	h := reg.Histogram("a.hist", "s", ExpBuckets(1, 2, 4))
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if s := h.Summary(); h.Count() != 4 || s.Mean*float64(s.Count) != 105 {
		t.Fatalf("hist count=%d sum=%g", h.Count(), s.Mean*float64(s.Count))
	}
	sum := h.Summary()
	if sum.Count != 4 || sum.Max != 100 {
		t.Fatalf("summary = %+v", sum)
	}
	var b bytes.Buffer
	if err := reg.WriteMetricsJSON(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"a.count", "a.gauge", "a.hist"} {
		if !strings.Contains(b.String(), want) {
			t.Fatalf("export missing %s:\n%s", want, b.String())
		}
	}
}

func TestCounterPanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	NewRegistry().Counter("c", "u").Add(-1)
}

func TestChromeTraceShape(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root", A("k", "v"))
	clock.Advance(time.Second)
	net := r.StartDetached("xfer")
	net.SetTrack("simnet")
	r.Event("mark", "detail")
	clock.Advance(time.Second)
	net.End()
	root.End()

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, col.Records()); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			TS    float64        `json:"ts"`
			Dur   float64        `json:"dur"`
			TID   int            `json:"tid"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &tf); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	byName := map[string]int{}
	tids := map[string]int{}
	for i, ev := range tf.TraceEvents {
		byName[ev.Name] = i
		if ev.Phase == "X" {
			tids[ev.Name] = ev.TID
		}
	}
	rootEv := tf.TraceEvents[byName["root"]]
	if rootEv.Dur != 2e6 { // 2 virtual seconds in microseconds
		t.Fatalf("root dur = %v µs", rootEv.Dur)
	}
	if rootEv.Args["k"] != "v" {
		t.Fatalf("root args = %v", rootEv.Args)
	}
	if tids["root"] == tids["xfer"] {
		t.Fatal("simnet track not separated")
	}
	if _, ok := byName["mark"]; !ok {
		t.Fatal("instant event missing")
	}
}

func TestJSONLExport(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root")
	clock.Advance(time.Second)
	r.Start("child").End()
	root.End()
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, col.Records()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("want 2 lines, got %d:\n%s", len(lines), buf.String())
	}
	for _, ln := range lines {
		if !json.Valid([]byte(ln)) {
			t.Fatalf("invalid JSONL line: %s", ln)
		}
	}
	if !strings.Contains(lines[1], `"parent":0`) {
		t.Fatalf("child line missing parent: %s", lines[1])
	}
}

// WriteArtifacts lays out the four exporters' output, byte for byte,
// under their fixed names, creating the directory.
func TestWriteArtifacts(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root", A("vms", 2))
	clock.Advance(time.Second)
	r.Start("child").End()
	root.End()
	r.Metrics().Counter("pages", "pages").Add(7)

	dir := filepath.Join(t.TempDir(), "run")
	var report strings.Builder
	recs, reg := col.Records(), r.Metrics()
	if err := WriteArtifacts(dir, recs, reg, &report); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, want := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace.json", func(w io.Writer) error { return WriteChromeTrace(w, recs) }},
		{"spans.jsonl", func(w io.Writer) error { return WriteJSONL(w, recs) }},
		{"metrics.json", reg.WriteMetricsJSON},
		{"metrics.prom", func(w io.Writer) error { return reg.WritePrometheus(w, false) }},
	} {
		path := filepath.Join(dir, want.name)
		names = append(names, "artifact: wrote "+path+"\n")
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := want.write(&buf); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, buf.Bytes()) {
			t.Errorf("%s differs from its exporter's output:\n%s\nwant:\n%s", want.name, got, buf.Bytes())
		}
	}
	if got, want := report.String(), strings.Join(names, ""); got != want {
		t.Fatalf("report %q, want %q", got, want)
	}
}

func TestClocklessRecorderExplicitTimes(t *testing.T) {
	r, col := collecting(nil)
	root := r.StartAt(nil, "plan", 0)
	c := root.ChildAt("step", 2*time.Second)
	c.EndAt(5 * time.Second)
	root.EndAt(10 * time.Second)
	recs := col.Records()
	if len(recs) != 2 || recs[1].Start != 2*time.Second || recs[1].End != 5*time.Second {
		t.Fatalf("child records %+v", recs)
	}
	if recs[0].End != 10*time.Second {
		t.Fatalf("root end = %v", recs[0].End)
	}
}

// TestFlattenDepths pins the record order inside one root: depth-first
// in creation order, each record carrying its depth and parent id.
func TestFlattenDepths(t *testing.T) {
	r, col := collecting(simtime.NewClock())
	root := r.Start("a")
	b := r.Start("b")
	r.Start("c").End()
	b.End()
	r.Start("d").End()
	root.End()
	recs := col.Records()
	if got := names(recs); got != "a,b,c,d" {
		t.Fatalf("record order = %s", got)
	}
	for i, want := range []struct{ depth, parent int }{{0, -1}, {1, 0}, {2, 1}, {1, 0}} {
		parent := -1
		if want.parent >= 0 {
			parent = recs[want.parent].ID
		}
		if recs[i].Depth != want.depth || recs[i].Parent != parent {
			t.Fatalf("%s: depth %d parent %d, want %d and %d",
				recs[i].Name, recs[i].Depth, recs[i].Parent, want.depth, parent)
		}
	}
}

// ReadJSONL is WriteJSONL's inverse: reading a spans.jsonl back and
// writing it again reproduces it, attributes in key order, events and
// virtual times included.
func TestReadJSONLRoundTrip(t *testing.T) {
	clock := simtime.NewClock()
	r, col := collecting(clock)
	root := r.Start("root", A("a", 1), A("b", "x"))
	clock.Advance(time.Second)
	r.Event("fault.injected", "shot")
	r.Start("child", A("bytes", int64(4096))).End()
	root.End()
	var first, second bytes.Buffer
	if err := WriteJSONL(&first, col.Records()); err != nil {
		t.Fatal(err)
	}
	recs, err := ReadJSONL(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteJSONL(&second, recs); err != nil {
		t.Fatal(err)
	}
	if first.String() != second.String() {
		t.Fatalf("round trip:\n%s\nread back as:\n%s", first.String(), second.String())
	}
}
