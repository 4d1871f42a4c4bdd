package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/obs"
	"hypertp/internal/slo"
)

// unfolded are the metric series no span carries: sched's admission
// histograms are observed as the scheduler admits a node, not recorded
// as spans.
var unfolded = []string{"sched.queue_delay.", "sched.starvation."}

var sloNow = regexp.MustCompile(`slo report \(virtual now (\S+)\)`)

// TestMetricsAndSLOAreFoldsOfSpans re-runs every golden row that pins its
// metrics or prints an SLO report, with its spans written to
// spans.jsonl, and recomputes both from that file alone: the metrics
// through the fold table, the report through a fresh tracker. Each must
// match the golden: the metrics.prom series by series (metrics.json
// renders the same registry), the report byte for byte.
func TestMetricsAndSLOAreFoldsOfSpans(t *testing.T) {
	checked := 0
	for _, row := range goldenRows {
		golden := filepath.Join("testdata", "golden", row.name)
		stdout, err := os.ReadFile(filepath.Join(golden, "stdout"))
		if err != nil {
			t.Fatal(err)
		}
		wantMetrics, err := os.ReadFile(filepath.Join(golden, "metrics.prom"))
		now := sloNow.FindSubmatch(stdout)
		if err != nil && now == nil {
			continue
		}
		checked++
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			args := append([]string{"-workers", "1"}, row.args...)
			if i := slices.Index(args, "-artifact-dir"); i >= 0 {
				args[i+1] = dir
			} else {
				args = append(args, "-artifact-dir", dir)
			}
			o, err := parseArgs(args, io.Discard)
			if err == nil {
				err = dispatch(io.Discard, o)
			}
			if err != nil {
				t.Fatalf("%v: %v", args, err)
			}
			spans, err := os.ReadFile(filepath.Join(dir, "spans.jsonl"))
			if err != nil {
				t.Fatal(err)
			}
			recs, err := obs.ReadJSONL(bytes.NewReader(spans))
			if err != nil {
				t.Fatal(err)
			}
			reg, tracker := obs.NewRegistry(), slo.NewTracker()
			tracker.SetRegistry(reg)
			reg.Fold(recs)
			tracker.Consume(recs)
			if wantMetrics == nil {
				// The row pins only its stdout: hold the fold to the run's
				// own metrics.
				if wantMetrics, err = os.ReadFile(filepath.Join(dir, "metrics.prom")); err != nil {
					t.Fatal(err)
				}
			}
			var got bytes.Buffer
			if err := reg.WritePrometheus(&got, false); err != nil {
				t.Fatal(err)
			}
			fuzzseed.SamePrometheus(t, got.Bytes(), wantMetrics, unfolded...)
			if now == nil {
				return
			}
			at, err := time.ParseDuration(string(now[1]))
			if err != nil {
				t.Fatal(err)
			}
			var report bytes.Buffer
			if err := tracker.WriteReport(&report, at); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(string(stdout), report.String()) {
				t.Errorf("SLO report folded from spans.jsonl:\n%s\nis not the golden's:\n%s", report.String(), stdout)
			}
		})
	}
	if checked == 0 {
		t.Fatal("no golden row pins metrics or an SLO report")
	}
}
