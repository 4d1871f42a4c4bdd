package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMetricsJSONSortedKeys pins the golden-stability contract of the
// JSON exporter: instruments appear in sorted name order per kind
// regardless of registration order, so map iteration can never reorder
// a golden file.
func TestMetricsJSONSortedKeys(t *testing.T) {
	reg := NewRegistry()
	// Register deliberately out of order.
	for _, n := range []string{"zeta", "mid", "alpha"} {
		reg.Counter(n, "ops").Add(1)
		reg.Gauge(n+".g", "x").Add(1)
		reg.Histogram(n+".h", "ns", []float64{1}).Observe(0.5)
	}
	var b bytes.Buffer
	if err := reg.WriteMetricsJSON(&b); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	names := regexp.MustCompile(`"name":"([^"]+)"`).FindAllStringSubmatch(b.String(), -1)
	var got []string
	for _, m := range names {
		got = append(got, m[1])
	}
	if len(got) != 9 {
		t.Fatalf("found %d instruments, want 9: %v", len(got), got)
	}
	for _, kind := range [][]string{got[0:3], got[3:6], got[6:9]} {
		if !sort.StringsAreSorted(kind) {
			t.Fatalf("instruments not sorted within kind: %v", kind)
		}
	}
}

// TestMetricsJSONEmptyHistogramNoNaN checks a registered-but-unobserved
// histogram exports zero quantiles, never NaN (the Summarize contract).
func TestMetricsJSONEmptyHistogramNoNaN(t *testing.T) {
	reg := NewRegistry()
	reg.Histogram("untouched", "ns", []float64{10, 100})
	var b bytes.Buffer
	if err := reg.WriteMetricsJSON(&b); err != nil {
		t.Fatalf("WriteMetricsJSON: %v", err)
	}
	out := b.String()
	if strings.Contains(out, "NaN") {
		t.Fatalf("NaN leaked into metrics JSON:\n%s", out)
	}
	for _, want := range []string{`"count":0`, `"p50":0`, `"p95":0`, `"p99":0`, `"max":0`} {
		if !strings.Contains(out, want) {
			t.Fatalf("empty histogram export missing %q:\n%s", want, out)
		}
	}

	var p bytes.Buffer
	if err := reg.WritePrometheus(&p, false); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if strings.Contains(p.String(), "NaN") {
		t.Fatalf("NaN leaked into Prometheus dump:\n%s", p.String())
	}
	if !strings.Contains(p.String(), "hypertp_untouched_count 0") {
		t.Fatalf("empty histogram missing from Prometheus dump:\n%s", p.String())
	}
}

// TestSpanExportsListRootsInEndOrder pins the order of every span export
// for roots that end out of creation order: the Collector, spans.jsonl
// (WriteJSONL) and trace.json (WriteChromeTrace) all list a root's tree
// when the root ends, and Chrome tids are assigned in first-seen record
// order.
func TestSpanExportsListRootsInEndOrder(t *testing.T) {
	rec, col := collecting(nil)
	first := rec.StartAt(nil, "first", 0)
	first.SetTrack("first-track")
	second := rec.StartAt(nil, "second", time.Millisecond)
	second.SetTrack("second-track")
	second.ChildAt("second-child", 2*time.Millisecond).EndAt(3 * time.Millisecond)
	second.EndAt(4 * time.Millisecond) // ends before the root opened ahead of it
	first.ChildAt("first-child", 5*time.Millisecond).EndAt(6 * time.Millisecond)
	first.EndAt(7 * time.Millisecond)

	recs := col.Records()
	const want = "second,second-child,first,first-child"
	if got := names(recs); got != want {
		t.Fatalf("collector order = %s, want %s", got, want)
	}

	var jsonl bytes.Buffer
	if err := WriteJSONL(&jsonl, recs); err != nil {
		t.Fatal(err)
	}
	var lines []string
	for _, ln := range strings.Split(strings.TrimSpace(jsonl.String()), "\n") {
		var r struct{ Name string }
		if err := json.Unmarshal([]byte(ln), &r); err != nil {
			t.Fatalf("spans.jsonl line %q: %v", ln, err)
		}
		lines = append(lines, r.Name)
	}
	if got := strings.Join(lines, ","); got != want {
		t.Fatalf("spans.jsonl order = %s, want %s", got, want)
	}

	var chrome bytes.Buffer
	if err := WriteChromeTrace(&chrome, recs); err != nil {
		t.Fatal(err)
	}
	var tf struct {
		TraceEvents []struct {
			Name string `json:"name"`
			TID  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &tf); err != nil {
		t.Fatalf("trace.json: %v", err)
	}
	var events []string
	for _, ev := range tf.TraceEvents {
		events = append(events, fmt.Sprintf("%s@%d", ev.Name, ev.TID))
	}
	// Track "" holds tid 1; the second root's track is seen first.
	if got, want := strings.Join(events, ","), "second@2,second-child@2,first@3,first-child@3"; got != want {
		t.Fatalf("trace.json events = %s, want %s", got, want)
	}
}
