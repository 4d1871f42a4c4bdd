package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertp/internal/fuzzseed"
)

// writeJSONL writes span-record lines to a temp file and returns its path.
func writeJSONL(t *testing.T, lines ...string) string {
	t.Helper()
	return writeFile(t, "spans.jsonl", strings.Join(lines, "\n")+"\n")
}

// writeFile writes data to a temp file named name and returns its path.
func writeFile(t *testing.T, name, data string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// tracecheck runs the command and returns its exit status and output.
func tracecheck(args ...string) (int, string, string) {
	var stdout, stderr strings.Builder
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A second child that starts before the first stays inside its parent,
// which the old containment-only check accepted; the span auditor
// reports it as a sibling regression.
func TestCheckJSONLSiblingRegress(t *testing.T) {
	path := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"first","track":"t","start_ns":50,"end_ns":60}`,
		`{"id":2,"parent":0,"depth":1,"name":"second","track":"t","start_ns":10,"end_ns":20}`,
	)
	_, err := checkJSONL(path)
	if err == nil || !strings.Contains(err.Error(), "sibling-regress") {
		t.Fatalf("err = %v, want a sibling-regress violation", err)
	}
}

// Well-ordered roots pass; a record whose parent was evicted is
// tolerated, and counted as orphaned.
func TestCheckJSONLWellFormed(t *testing.T) {
	path := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"first","track":"t","start_ns":10,"end_ns":20}`,
		`{"id":2,"parent":0,"depth":1,"name":"second","track":"t","start_ns":50,"end_ns":60}`,
		`{"id":4,"parent":3,"depth":2,"name":"orphan","track":"t","start_ns":0,"end_ns":5}`,
		`{"id":5,"parent":-1,"depth":0,"name":"next-root","track":"t","start_ns":100,"end_ns":200}`,
	)
	report, err := checkJSONL(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(report, "5 span records, 2 roots, 1 orphaned records") {
		t.Fatalf("report %q", report)
	}
	bad := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"late","track":"t","start_ns":90,"end_ns":120}`,
	)
	if _, err := checkJSONL(bad); err == nil || !strings.Contains(err.Error(), "child-late") {
		t.Fatalf("err = %v, want a child-late violation", err)
	}
}

// A depth-first export is not in id order once a span is opened under
// the root after a nephew. These are tpctl -mode migration's spans: the
// transfers (ids 4 and 6) hang off the root but open while the
// migration's rounds (ids 3, 5 and 7) run, so they are listed last.
// Auditing per id-increasing run split the file at id 4, orphaned both
// transfers and skipped their checks, so a transfer ending 1.4 s after
// its root passed. The file is one set.
func TestCheckJSONLNephewBeforeUncle(t *testing.T) {
	lines := []string{
		`{"id":0,"parent":-1,"depth":0,"name":"migration-tp","track":"","start_ns":0,"end_ns":8594474360}`,
		`{"id":1,"parent":0,"depth":1,"name":"migration","track":"migration","start_ns":0,"end_ns":8594474360,"attrs":{"vm_id":"1","vm":"vm-00","rounds":"1","bytes_sent":"1073746795","downtime":"4.539768ms"}}`,
		`{"id":2,"parent":1,"depth":2,"name":"attempt","track":"migration","start_ns":0,"end_ns":8594474360,"attrs":{"attempt":"1"}}`,
		`{"id":3,"parent":2,"depth":3,"name":"precopy-round","track":"migration","start_ns":0,"end_ns":8589934592,"attrs":{"round":"1","pages":"262144"}}`,
		`{"id":5,"parent":2,"depth":3,"name":"stop-and-copy","track":"migration","start_ns":8589934592,"end_ns":8594474360,"attrs":{"dirty_pages":"0"}}`,
		`{"id":7,"parent":2,"depth":3,"name":"finalize","track":"migration","start_ns":8589974360,"end_ns":8594474360,"attrs":{"queued_for":"0s"}}`,
		`{"id":4,"parent":0,"depth":1,"name":"xfer:precopy:vm-00:r1","track":"simnet","start_ns":0,"end_ns":8589934592,"attrs":{"link":"pair","bytes":"1073741824"}}`,
		`{"id":6,"parent":0,"depth":1,"name":"xfer:stopcopy:vm-00","track":"simnet","start_ns":8589934592,"end_ns":8589974360,"attrs":{"link":"pair","bytes":"4971"}}`,
	}
	report, err := checkJSONL(writeJSONL(t, lines...))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(report, "8 span records, 1 roots, 0 orphaned records") {
		t.Fatalf("report %q: every parent is in the file", report)
	}
	lines[6] = strings.Replace(lines[6], `"end_ns":8589934592`, `"end_ns":9994474360`, 1)
	if _, err := checkJSONL(writeJSONL(t, lines...)); err == nil ||
		!strings.Contains(err.Error(), `child-late: span "xfer:precopy:vm-00:r1"`) {
		t.Fatalf("err = %v, want the late transfer reported", err)
	}
}

// TestRun drives the command as the command line does: the artifact
// files the CLI goldens pin, then usage and malformed-input rows.
func TestRun(t *testing.T) {
	golden := func(cmd, row, file string) string {
		return filepath.Join("..", cmd, "testdata", "golden", row, file)
	}
	for _, tc := range []struct {
		name string
		args []string
		code int
		out  string // substring of stdout (exit 0) or stderr
	}{
		{"tpctl trace covers Fig. 3", []string{"-require-steps", golden("tpctl", "exports", "trace.json")}, 0, "span events"},
		{"tpctl spans", []string{"-jsonl", golden("tpctl", "exports", "spans.jsonl")}, 0, "0 orphaned records"},
		{"clustersim trace", []string{golden("clustersim", "exports", "trace.json")}, 0, "span events"},
		{"clustersim trace has no transplant steps", []string{"-require-steps", golden("clustersim", "exports", "trace.json")}, 1, "missing Fig. 3 step spans"},
		{"clustersim spans", []string{"-jsonl", golden("clustersim", "exports", "spans.jsonl")}, 0, "0 orphaned records"},
		{"fleet trace", []string{golden("clustersim", "fleet-prom", "trace.json")}, 0, "span events"},
		{"fleet spans", []string{"-jsonl", golden("clustersim", "fleet-prom", "spans.jsonl")}, 0, "0 orphaned records"},
		{"chaos flight recorder", []string{"-jsonl", golden("chaoscheck", "break-leak-frame", "chaos-flight.jsonl")}, 0, "span records"},
		{"no file", nil, 2, "usage: tracecheck"},
		{"two files", []string{"a", "b"}, 2, "usage: tracecheck"},
		{"unknown flag", []string{"-allow-empty", "f"}, 2, "flag provided but not defined: -allow-empty"},
		{"help", []string{"-h"}, 0, "-require-steps"},
		{"missing file", []string{filepath.Join(t.TempDir(), "none.json")}, 1, "no such file"},
		{"missing jsonl file", []string{"-jsonl", filepath.Join(t.TempDir(), "none.jsonl")}, 1, "no such file"},
		{"trace not JSON", []string{writeFile(t, "t.json", "{")}, 1, "not valid JSON"},
		{"trace without events", []string{writeFile(t, "t.json", `{"traceEvents":[]}`)}, 1, "no trace events"},
		{"event without name", []string{writeFile(t, "t.json", `{"traceEvents":[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":1}]}`)}, 1, "has no name"},
		{"event without ts", []string{writeFile(t, "t.json", `{"traceEvents":[{"name":"a","ph":"X","dur":1,"pid":1,"tid":1}]}`)}, 1, "missing ts/pid/tid"},
		{"negative dur", []string{writeFile(t, "t.json", `{"traceEvents":[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":1}]}`)}, 1, "bad dur"},
		{"unknown phase", []string{writeFile(t, "t.json", `{"traceEvents":[{"name":"a","ph":"B","ts":0,"pid":1,"tid":1}]}`)}, 1, `unexpected phase "B"`},
		{"instant event", []string{writeFile(t, "t.json", `{"traceEvents":[{"name":"a","ph":"i","ts":0,"pid":1,"tid":1}]}`)}, 0, "1 instant events"},
		{"empty jsonl", []string{"-jsonl", writeFile(t, "s.jsonl", "")}, 1, "no span records"},
		{"empty line", []string{"-jsonl", writeFile(t, "s.jsonl", `{"id":0,"parent":-1,"name":"a"}`+"\n\n")}, 1, "line 2 is empty"},
		{"malformed line", []string{"-jsonl", writeFile(t, "s.jsonl", "{\"id\":0,\n")}, 1, "line 1: not a span record"},
		{"unnamed span", []string{"-jsonl", writeFile(t, "s.jsonl", `{"id":0,"parent":-1}`+"\n")}, 1, "line 1 has no span name"},
		{"deep root", []string{"-jsonl", writeFile(t, "s.jsonl", `{"id":0,"parent":-1,"depth":2,"name":"a"}`+"\n")}, 1, `root "a" has depth 2`},
		{"duplicate id", []string{"-jsonl", writeJSONL(t,
			`{"id":0,"parent":-1,"depth":0,"name":"a","start_ns":0,"end_ns":10}`,
			`{"id":1,"parent":0,"depth":1,"name":"b","start_ns":0,"end_ns":10}`,
			`{"id":2,"parent":-1,"depth":0,"name":"c","start_ns":10,"end_ns":20}`,
			`{"id":1,"parent":2,"depth":1,"name":"d","start_ns":10,"end_ns":20}`,
		)}, 1, "line 4: span id 1 repeats line 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			code, stdout, stderr := tracecheck(tc.args...)
			got := stderr
			if code == 0 && tc.name != "help" {
				got = stdout
			}
			if code != tc.code || !strings.Contains(got, tc.out) {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit %d with %q", code, stdout, stderr, tc.code, tc.out)
			}
		})
	}
}

// Every flag the README's tracecheck row names is one tracecheck
// defines.
func TestREADMEFlagsDefined(t *testing.T) {
	fuzzseed.CheckREADMEFlags(t, "../../README.md", "tracecheck", func(args []string, stderr io.Writer) {
		parseArgs(args, stderr)
	})
}
