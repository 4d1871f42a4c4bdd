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
	s.Annotate("e", "d")
	c := s.Child("b")
	c.End()
	s.End()
	r.StartDetached("c").End()
	r.StartAt(nil, "d", time.Second).EndAt(2 * time.Second)
	r.Event("e", "f")
	if r.Current() != nil || r.Roots() != nil {
		t.Fatal("nil recorder returned state")
	}
	m := r.Metrics()
	m.Counter("c", "u").Add(1)
	m.Gauge("g", "u").Set(1)
	m.Histogram("h", "u", ExpBuckets(1, 2, 4)).Observe(1)
	if got := s.Duration(); got != 0 {
		t.Fatalf("nil span duration = %v", got)
	}
}

func TestSpanStackNesting(t *testing.T) {
	clock := simtime.NewClock()
	r := NewRecorder(clock)
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
	if len(r.Roots()) != 1 || len(root.Children()) != 1 {
		t.Fatal("wrong tree shape")
	}
	if child.StartTime() != time.Second || child.Duration() != time.Second {
		t.Fatalf("child times: start=%v dur=%v", child.StartTime(), child.Duration())
	}
	if root.Duration() != 3*time.Second {
		t.Fatalf("root duration = %v", root.Duration())
	}
}

func TestEndForcesOpenDescendants(t *testing.T) {
	clock := simtime.NewClock()
	r := NewRecorder(clock)
	root := r.Start("root")
	r.Start("child")
	grand := r.Start("grand")
	clock.Advance(time.Second)
	root.End() // error-path cleanup: everything under root must close
	if !grand.Ended() {
		t.Fatal("grandchild left open")
	}
	if grand.EndTime() != time.Second {
		t.Fatalf("grandchild end = %v", grand.EndTime())
	}
	if r.Current() != nil {
		t.Fatal("stack not cleared")
	}
	root.End() // idempotent
}

func TestDetachedSpansAndEvents(t *testing.T) {
	clock := simtime.NewClock()
	r := NewRecorder(clock)
	root := r.Start("root")
	d := r.StartDetached("async")
	if r.Current() != root {
		t.Fatal("StartDetached touched the stack")
	}
	clock.Advance(time.Second)
	r.Event("step", "detail")
	d.End()
	root.End()
	evs := root.Events()
	if len(evs) != 1 || evs[0].Name != "step" || evs[0].T != time.Second {
		t.Fatalf("events = %+v", evs)
	}
	if root.Find("async") != d {
		t.Fatal("Find failed")
	}
}

func TestEventWithoutOpenSpan(t *testing.T) {
	r := NewRecorder(simtime.NewClock())
	r.Event("orphan", "d")
	roots := r.Roots()
	if len(roots) != 1 || roots[0].Name != "orphan" || !roots[0].Ended() {
		t.Fatal("orphan event not recorded as zero-length root")
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
	g.Set(5)
	g.Add(-2)
	if g.Value() != 3 || g.Max() != 5 {
		t.Fatalf("gauge value=%d max=%d", g.Value(), g.Max())
	}
	h := reg.Histogram("a.hist", "s", ExpBuckets(1, 2, 4))
	for _, v := range []float64{0.5, 1.5, 3, 100} {
		h.Observe(v)
	}
	if h.Count() != 4 || h.Sum() != 105 {
		t.Fatalf("hist count=%d sum=%g", h.Count(), h.Sum())
	}
	sum := h.Summary()
	if sum.Count != 4 || sum.Max != 100 {
		t.Fatalf("summary = %+v", sum)
	}
	text := reg.Render(false)
	for _, want := range []string{"a.count", "a.gauge", "a.hist"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %s:\n%s", want, text)
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

func TestVolatileExcludedFromDeterministicExport(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("det", "u").Add(1)
	reg.Counter("vol", "u").Volatile().Add(1)
	var det, all bytes.Buffer
	if err := reg.WriteMetricsJSON(&det, false); err != nil {
		t.Fatal(err)
	}
	if err := reg.WriteMetricsJSON(&all, true); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(det.String(), "vol") {
		t.Fatal("volatile instrument in deterministic export")
	}
	if !strings.Contains(all.String(), "vol") {
		t.Fatal("volatile instrument missing from full export")
	}
	if !json.Valid(det.Bytes()) || !json.Valid(all.Bytes()) {
		t.Fatal("export is not valid JSON")
	}
}

func TestChromeTraceShape(t *testing.T) {
	clock := simtime.NewClock()
	r := NewRecorder(clock)
	root := r.Start("root", A("k", "v"))
	clock.Advance(time.Second)
	net := r.StartDetached("xfer")
	net.SetTrack("simnet")
	r.Event("mark", "detail")
	clock.Advance(time.Second)
	net.End()
	root.End()

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
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
	r := NewRecorder(clock)
	root := r.Start("root")
	clock.Advance(time.Second)
	r.Start("child").End()
	root.End()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
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
	r := NewRecorder(clock)
	root := r.Start("root", A("vms", 2))
	clock.Advance(time.Second)
	r.Start("child").End()
	root.End()
	r.Metrics().Counter("pages", "pages").Add(7)

	dir := filepath.Join(t.TempDir(), "run")
	var report strings.Builder
	if err := WriteArtifacts(dir, r, &report); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, want := range []struct {
		name  string
		write func(io.Writer) error
	}{
		{"trace.json", r.WriteChromeTrace},
		{"spans.jsonl", r.WriteJSONL},
		{"metrics.json", func(w io.Writer) error { return r.Metrics().WriteMetricsJSON(w, false) }},
		{"metrics.prom", func(w io.Writer) error { return r.Metrics().WritePrometheus(w, false) }},
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
	r := NewRecorder(nil)
	root := r.StartAt(nil, "plan", 0)
	c := root.ChildAt("step", 2*time.Second)
	c.EndAt(5 * time.Second)
	root.EndAt(10 * time.Second)
	if c.StartTime() != 2*time.Second || c.Duration() != 3*time.Second {
		t.Fatalf("child times: %v + %v", c.StartTime(), c.Duration())
	}
	if root.Duration() != 10*time.Second {
		t.Fatalf("root duration = %v", root.Duration())
	}
}

func TestWalkDepths(t *testing.T) {
	r := NewRecorder(simtime.NewClock())
	root := r.Start("a")
	r.Start("b")
	r.Start("c").End()
	root.End()
	var got []string
	depths := map[string]int{}
	root.Walk(func(s *Span, depth int) {
		got = append(got, s.Name)
		depths[s.Name] = depth
	})
	if strings.Join(got, ",") != "a,b,c" {
		t.Fatalf("walk order = %v", got)
	}
	if depths["a"] != 0 || depths["b"] != 1 || depths["c"] != 2 {
		t.Fatalf("depths = %v", depths)
	}
}
