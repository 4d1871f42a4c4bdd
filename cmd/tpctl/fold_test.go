package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/obs"
)

// unfolded are the metric series no span carries: the per-VM translate
// and restore charges, observed once per VM inside their phase.
var unfolded = []string{"tp.translate_virtual_s", "tp.restore_virtual_s"}

// TestMetricsAndSLOAreFoldsOfSpans re-runs every golden row that pins its
// metrics and recomputes them from the spans.jsonl the run wrote alone,
// through the fold table: series by series, they must match the golden
// metrics.prom (metrics.json renders the same registry). No tpctl row
// prints an SLO report.
func TestMetricsAndSLOAreFoldsOfSpans(t *testing.T) {
	checked := 0
	for _, row := range goldenRows {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", row.name, "metrics.prom"))
		if err != nil {
			continue
		}
		checked++
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			args := slices.Clone(row.args)
			args[slices.Index(args, "-artifact-dir")+1] = dir
			cfg, err := parseArgs(args, io.Discard)
			if err == nil {
				err = run(io.Discard, cfg)
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
			if vs := obs.AuditRecords(recs); len(vs) > 0 {
				t.Fatalf("span violations: %v", vs)
			}
			reg := obs.NewRegistry()
			reg.Fold(recs)
			var got bytes.Buffer
			if err := reg.WritePrometheus(&got, false); err != nil {
				t.Fatal(err)
			}
			fuzzseed.SamePrometheus(t, got.Bytes(), want, unfolded...)
		})
	}
	if checked == 0 {
		t.Fatal("no golden row pins metrics")
	}
}
