package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const benchOutput = `goos: linux
goarch: amd64
pkg: hypertp
cpu: Some CPU @ 2.10GHz
BenchmarkInPlaceTransplant-8   	      10	 100000000 ns/op	 5000000 B/op	   40000 allocs/op
BenchmarkMigrationTP-8         	       5	 200000000 ns/op	 9000000 B/op	   80000 allocs/op
PASS
ok  	hypertp	3.000s
`

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestParseBench(t *testing.T) {
	got, err := parseBench(strings.NewReader(benchOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(got))
	}
	e := got["BenchmarkInPlaceTransplant"]
	if e.NsOp != 100000000 || e.AllocsOp != 40000 {
		t.Fatalf("entry = %+v", e)
	}
}

// With -count > 1 each benchmark repeats; the minimum of every measure
// must win, independently per column.
func TestParseBenchKeepsMinAcrossCounts(t *testing.T) {
	got, err := parseBench(strings.NewReader(
		"BenchmarkX-8  10  500 ns/op  64 B/op  9 allocs/op\n" +
			"BenchmarkX-8  10  300 ns/op  64 B/op  12 allocs/op\n"))
	if err != nil {
		t.Fatal(err)
	}
	e := got["BenchmarkX"]
	if e.NsOp != 300 || e.AllocsOp != 9 {
		t.Fatalf("entry = %+v, want min ns/op 300 and min allocs/op 9", e)
	}
}

func TestMatchingRunPasses(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":40000},
		"BenchmarkMigrationTP":{"ns_op":210000000,"allocs_op":80000}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d; stdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
}

// The synthetically regressed fixture: the baseline promises half the
// ns/op the run delivers. Wall time is advisory: the drift is reported
// and the gate still passes.
func TestNsOpDriftIsAdvisory(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":50000000,"allocs_op":40000},
		"BenchmarkMigrationTP":{"ns_op":200000000,"allocs_op":80000}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("2x ns/op drift failed the gate (exit %d); stdout:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "ADVISORY BenchmarkInPlaceTransplant") || strings.Contains(out.String(), "REGRESS") {
		t.Fatalf("want one ADVISORY line and no REGRESS:\n%s", out.String())
	}
}

// allocs/op is a hard gate: growth beyond the jitter slack fails,
// regardless of ns/op staying flat.
func TestAllocRegressionFails(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":39000},
		"BenchmarkMigrationTP":{"ns_op":200000000,"allocs_op":80000}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code == 0 {
		t.Fatalf("allocs/op growth passed the gate; stdout:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "allocs/op grew") {
		t.Fatalf("no allocs/op gate line:\n%s", out.String())
	}
}

// For lean single-goroutine benchmarks the slack is zero: one extra
// allocation fails. A par-pool benchmark may move by two allocations plus
// 0.2%, its measured run-to-run jitter, and no further.
func TestAllocSlackBoundaries(t *testing.T) {
	_, failed := compare(
		map[string]entry{"BenchmarkLean": {NsOp: 100, AllocsOp: 10}},
		map[string]entry{"BenchmarkLean": {NsOp: 100, AllocsOp: 11}})
	if !failed {
		t.Fatal("one extra allocation on a lean benchmark passed the gate")
	}
	_, failed = compare(
		map[string]entry{"BenchmarkBig": {NsOp: 100, AllocsOp: 100000}},
		map[string]entry{"BenchmarkBig": {NsOp: 100, AllocsOp: 100050}})
	if failed {
		t.Fatal("0.05% allocs jitter on a big benchmark failed the gate")
	}
	for _, c := range []struct {
		base, cur int64
		fail      bool
	}{{99, 100, true}, {300, 302, false}, {300, 303, true}, {14000, 14030, false}, {14000, 14031, true}} {
		_, failed = compare(
			map[string]entry{"BenchmarkPar": {NsOp: 100, AllocsOp: c.base}},
			map[string]entry{"BenchmarkPar": {NsOp: 100, AllocsOp: c.cur}})
		if failed != c.fail {
			t.Fatalf("allocs/op %d → %d: failed = %v, want %v", c.base, c.cur, failed, c.fail)
		}
	}
}

// A benchmark that vanished from the suite fails the gate (the baseline
// must be refreshed deliberately, not silently shrink).
func TestMissingBenchmarkFails(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":40000},
		"BenchmarkMigrationTP":{"ns_op":200000000,"allocs_op":80000},
		"BenchmarkDeleted":{"ns_op":1,"allocs_op":1}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code == 0 {
		t.Fatalf("missing benchmark passed the gate; stdout:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "MISSING") {
		t.Fatalf("no MISSING line:\n%s", out.String())
	}
}

// New benchmarks warn but do not fail — they enter the gate when the
// baseline is refreshed.
func TestNewBenchmarkPasses(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":40000}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("new benchmark failed the gate; stderr:\n%s", errOut.String())
	}
	if !strings.Contains(out.String(), "NEW") {
		t.Fatalf("no NEW line:\n%s", out.String())
	}
}

// -update writes a baseline the same input then passes against.
func TestUpdateRoundTrip(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := filepath.Join(t.TempDir(), "base.json")
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath, "-update"}, &out, &errOut); code != 0 {
		t.Fatalf("update failed: %s", errOut.String())
	}
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("freshly updated baseline does not pass: %s\n%s", out.String(), errOut.String())
	}
}

// The speedup gate is a relationship inside one run: the warm benchmark
// must stay MinRatio× faster than its cold twin, independent of the
// baseline.
func TestSpeedupGate(t *testing.T) {
	const warmFast = benchOutput +
		"BenchmarkFigure10KVMToXen-8  3  300000000 ns/op  1000 B/op  100 allocs/op\n" +
		"BenchmarkFigure10Warm-8      3   30000000 ns/op  1000 B/op  100 allocs/op\n"
	const warmSlow = benchOutput +
		"BenchmarkFigure10KVMToXen-8  3  300000000 ns/op  1000 B/op  100 allocs/op\n" +
		"BenchmarkFigure10Warm-8      3  150000000 ns/op  1000 B/op  100 allocs/op\n"
	base := `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":40000},
		"BenchmarkMigrationTP":{"ns_op":200000000,"allocs_op":80000},
		"BenchmarkFigure10KVMToXen":{"ns_op":300000000,"allocs_op":100},
		"BenchmarkFigure10Warm":{"ns_op":30000000,"allocs_op":100}}}`

	input := writeFile(t, "fast.txt", warmFast)
	basePath := writeFile(t, "base.json", base)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("10x warm path failed the gate; stdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}
	if !strings.Contains(out.String(), "faster than BenchmarkFigure10KVMToXen") {
		t.Fatalf("no speedup gate line:\n%s", out.String())
	}

	// Make the 2x warm path's baseline entry match it, so it sits inside
	// the ±15% drift window and only the ratio trips.
	slowBase := strings.Replace(base, `"BenchmarkFigure10Warm":{"ns_op":30000000`,
		`"BenchmarkFigure10Warm":{"ns_op":150000000`, 1)
	input = writeFile(t, "slow.txt", warmSlow)
	basePath = writeFile(t, "slowbase.json", slowBase)
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code == 0 {
		t.Fatalf("2x warm path passed the 3x gate; stdout:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "only 2.0× faster") {
		t.Fatalf("no ratio REGRESS line:\n%s", out.String())
	}
}

// A run that does not include the gate's pair (narrowed -bench pattern
// with no baseline entries for it) skips the ratio check.
func TestSpeedupGateSkipsAbsentPair(t *testing.T) {
	input := writeFile(t, "bench.txt", benchOutput)
	basePath := writeFile(t, "base.json", `{"benchmarks":{
		"BenchmarkInPlaceTransplant":{"ns_op":100000000,"allocs_op":40000},
		"BenchmarkMigrationTP":{"ns_op":200000000,"allocs_op":80000}}}`)
	var out, errOut bytes.Buffer
	if code := run([]string{"-input", input, "-baseline", basePath}, &out, &errOut); code != 0 {
		t.Fatalf("run without the warm pair failed; stdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}
	if strings.Contains(out.String(), "Figure10Warm") {
		t.Fatalf("ratio line emitted for absent pair:\n%s", out.String())
	}
}
