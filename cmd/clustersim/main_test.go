package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"hypertp/internal/fuzzseed"
)

func TestRunDefaults(t *testing.T) {
	if err := run(io.Discard, 10, 10, 1, 0.8, faultConfig{}, schedConfig{}, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunSmallCluster(t *testing.T) {
	if err := run(io.Discard, 4, 3, 2, 0.8, faultConfig{}, schedConfig{}, ""); err != nil {
		t.Fatal(err)
	}
}

func TestRunBadShape(t *testing.T) {
	if err := run(io.Discard, 1, 10, 1, 0.8, faultConfig{}, schedConfig{}, ""); err == nil {
		t.Fatal("single-host cluster accepted")
	}
	if err := run(io.Discard, 10, 10, 10, 0.8, faultConfig{}, schedConfig{}, ""); err == nil {
		t.Fatal("group size = cluster accepted")
	}
}

// The -fault-seed/-fault-rate/-fault-sites path: the planner quarantines
// failed hosts and the run still completes.
func TestRunWithFaultInjection(t *testing.T) {
	fc := faultConfig{Seed: 7, Rate: 0.5, Sites: "cluster.host"}
	if err := run(io.Discard, 6, 3, 1, 0.8, fc, schedConfig{}, ""); err != nil {
		t.Fatal(err)
	}
	// Unknown site rejected.
	bad := faultConfig{Seed: 1, Rate: 1, Sites: "no.such.site"}
	if err := run(io.Discard, 4, 3, 1, 0.8, bad, schedConfig{}, ""); err == nil {
		t.Fatal("unknown fault site accepted")
	}
}

// -artifact-dir writes the traced upgrade, at the -trace-frac fraction,
// as a trace carrying the planner's spans, beside its metrics (the
// exports golden pins the default shape's files byte for byte).
func TestRunTraceOut(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.json")
	metricsPath := filepath.Join(dir, "metrics.json")
	if err := run(io.Discard, 4, 3, 1, 0.5, faultConfig{}, schedConfig{}, dir); err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &tr); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	seen := map[string]bool{}
	for _, ev := range tr.TraceEvents {
		if name, ok := ev["name"].(string); ok {
			seen[name] = true
		}
	}
	if !seen["rolling-upgrade"] || !seen["group-0"] {
		t.Fatalf("trace missing upgrade spans; saw %v", seen)
	}
	if _, err := os.Stat(metricsPath); err != nil {
		t.Fatal(err)
	}
}

// The -streams/-kexecs columns: the concurrent re-timing of the same
// plan appears alongside the serial sweep.
func TestRunScheduledColumns(t *testing.T) {
	if err := run(io.Discard, 6, 3, 2, 0.8, faultConfig{}, schedConfig{Streams: 4, Kexecs: 4}, ""); err != nil {
		t.Fatal(err)
	}
}

// Faults compose with the -streams/-kexecs columns: the degraded plans
// are re-timed concurrently too, and never take longer than serially.
func TestRunFaultsWithScheduledColumns(t *testing.T) {
	var buf bytes.Buffer
	fc := faultConfig{Seed: 7, Rate: 0.2, Sites: "cluster.host"}
	if err := run(&buf, 10, 10, 2, 0.8, fc, schedConfig{Streams: 4, Kexecs: 4}, ""); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(buf.String(), "\n")
	header := lines[1]
	for _, col := range []string{"Outcome", "Quarantined", "Replanned", "Sched total", "Speedup"} {
		if !strings.Contains(header, col) {
			t.Fatalf("header lacks %q:\n%s", col, buf.String())
		}
	}
	rows := 0
	for _, line := range lines[3:] {
		f := strings.Fields(line)
		if len(f) != 10 {
			continue
		}
		rows++
		serial, err1 := time.ParseDuration(f[3])
		conc, err2 := time.ParseDuration(f[8])
		if err1 != nil || err2 != nil {
			t.Fatalf("row %q: %v %v", line, err1, err2)
		}
		if conc > serial {
			t.Fatalf("row %q: concurrent total %v above serial %v", line, conc, serial)
		}
	}
	if rows != 5 {
		t.Fatalf("%d table rows, want 5:\n%s", rows, buf.String())
	}
	if !strings.Contains(buf.String(), "degraded") {
		t.Fatalf("no degraded row:\n%s", buf.String())
	}
}

// The -fleet scenario: concurrent response at least halves the serial
// makespan, keeps placement identical, and its output is byte-identical
// for any worker-pool width.
func TestRunFleetDeterministicAcrossWorkers(t *testing.T) {
	out := func(workers int) string {
		var buf bytes.Buffer
		if err := runFleet(&buf, 10, 32, schedConfig{Workers: workers, Streams: 4, Kexecs: 4}, "", fleetConfig{}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	w1 := out(1)
	w8 := out(8)
	if w1 != w8 {
		t.Fatalf("-fleet output differs across workers:\n-workers 1:\n%s\n-workers 8:\n%s", w1, w8)
	}
	if !strings.Contains(w1, "identical across schedules") {
		t.Fatalf("missing placement check line:\n%s", w1)
	}
	if !strings.Contains(w1, "cache: ") {
		t.Fatalf("missing cache hit-ratio line:\n%s", w1)
	}
	// The fleet report must carry the vulnerability-window SLO verdict.
	if !strings.Contains(w1, "slo report") || !strings.Contains(w1, "remediation latency p50=") {
		t.Fatalf("missing SLO window report:\n%s", w1)
	}
	if !strings.Contains(w1, "PASS") {
		t.Fatalf("fleet response did not pass its SLO:\n%s", w1)
	}
	// The speedup column of the concurrent row must be >= 2.00x.
	var speedup string
	for _, line := range strings.Split(w1, "\n") {
		if strings.Contains(line, "concurrent") {
			fields := strings.Fields(line)
			speedup = fields[len(fields)-1]
		}
	}
	if speedup == "" {
		t.Fatalf("no concurrent row in output:\n%s", w1)
	}
	var x float64
	if _, err := fmt.Sscanf(speedup, "%fx", &x); err != nil || x < 2 {
		t.Fatalf("concurrent speedup %q below 2x target", speedup)
	}
}

// The -crash-rate path: a quarter of the fleet is fail-stopped before
// the response, the reactive path recovers every host, the report gains
// the recovery line and the slo availability section, and the whole
// output stays byte-identical across worker counts.
func TestRunFleetCrashRate(t *testing.T) {
	out := func(workers int) string {
		var buf bytes.Buffer
		if err := runFleet(&buf, 8, 24, schedConfig{Workers: workers, Streams: 4, Kexecs: 4}, "", fleetConfig{CrashRate: 0.25}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	w1, w8 := out(1), out(8)
	if w1 != w8 {
		t.Fatalf("-crash-rate output differs across workers:\n-workers 1:\n%s\n-workers 8:\n%s", w1, w8)
	}
	if !strings.Contains(w1, "reactive recovery: 2 hosts crashed, 2 recovered, 0 frozen, 0 lost") {
		t.Fatalf("missing reactive recovery line:\n%s", w1)
	}
	if !strings.Contains(w1, "availability: hosts=2 outages=2 open=0") {
		t.Fatalf("missing availability section:\n%s", w1)
	}
	if !strings.Contains(w1, "mttr mean=") {
		t.Fatalf("missing MTTR line:\n%s", w1)
	}
	// The recovered hosts land on the safe hypervisor, so the response
	// skips them instead of re-upgrading.
	if !strings.Contains(w1, "identical across schedules") {
		t.Fatalf("missing placement check line:\n%s", w1)
	}
}

// The -warm-pool path: pre-staged entries surface as warm starts in the
// fleet report's cache line; -no-cache drops the line entirely and
// rejects -warm-pool.
func TestRunFleetWarmPoolAndNoCache(t *testing.T) {
	var warm bytes.Buffer
	if err := runFleet(&warm, 6, 16, schedConfig{Streams: 4, Kexecs: 4}, "", fleetConfig{WarmPool: 16}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(warm.String(), "cache: ") {
		t.Fatalf("fleet report missing cache line:\n%s", warm.String())
	}
	if strings.Contains(warm.String(), " 0 warm starts") {
		t.Fatalf("warm pool staged nothing:\n%s", warm.String())
	}
	var cold bytes.Buffer
	if err := runFleet(&cold, 6, 16, schedConfig{Streams: 4, Kexecs: 4}, "", fleetConfig{NoCache: true}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(cold.String(), "cache: ") {
		t.Fatalf("-no-cache report still has a cache line:\n%s", cold.String())
	}
	if err := runFleet(&cold, 6, 16, schedConfig{}, "", fleetConfig{WarmPool: 4, NoCache: true}); err == nil {
		t.Fatal("-warm-pool with -no-cache accepted")
	}
}

// A fraction flag outside [0,1] is a usage error naming the flag, not a
// run that is silently unfaulted, crash-free or traced at another
// fraction; so is a negative count, not a run at the default.
func TestParseArgsRejectsOutOfRangeProbability(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // the flag the error must name; "" = accepted
	}{
		{[]string{"-fault-rate", "-0.5", "-fault-seed", "3"}, "-fault-rate"},
		{[]string{"-fault-rate", "2"}, "-fault-rate"},
		{[]string{"-crash-rate", "-0.5", "-fleet"}, "-crash-rate"},
		{[]string{"-fleet", "-crash-rate", "1.5"}, "-crash-rate"},
		{[]string{"-trace-frac", "2", "-artifact-dir", "f"}, "-trace-frac"},
		{[]string{"-trace-frac", "-0.1"}, "-trace-frac"},
		{[]string{"-trace-frac", "NaN"}, "-trace-frac"},
		{[]string{"-streams", "-1"}, "-streams"},
		{[]string{"-kexecs", "-1"}, "-kexecs"},
		{[]string{"-fleet", "-warm-pool", "-3"}, "-warm-pool"},
		{[]string{"-trace-frac", "1", "-streams", "0", "-kexecs", "0", "-warm-pool", "0"}, ""},
		{[]string{"-fault-rate", "0.2", "-trace-frac", "0", "-crash-rate", "1"}, ""},
		{nil, ""},
	} {
		var stderr strings.Builder
		_, err := parseArgs(tc.args, &stderr)
		if tc.bad == "" {
			if err != nil || stderr.Len() != 0 {
				t.Errorf("%v: rejected: %v %s", tc.args, err, stderr.String())
			}
			continue
		}
		if err == nil || !strings.Contains(stderr.String(), tc.bad+" ") {
			t.Errorf("%v: want a usage error naming %s, got %v, stderr %q", tc.args, tc.bad, err, stderr.String())
		}
	}
}

// -cve picks the vulnerability the fleet answers, and -mttr-budget puts
// an MTTR verdict in the availability section of a crash-storm run.
func TestRunFleetCVEAndMTTRBudget(t *testing.T) {
	o, err := parseArgs([]string{"-fleet", "-cve", "CVE-2016-6258", "-crash-rate", "0.25", "-mttr-budget", "10s"}, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := runFleet(&buf, 8, 24, schedConfig{Streams: 4, Kexecs: 4}, "", o.fl); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fleet CVE response: CVE-2016-6258") {
		t.Fatalf("report does not name the -cve:\n%s", out)
	}
	if !strings.Contains(out, "target p99 within 10s: violations=0/2") {
		t.Fatalf("no MTTR budget verdict:\n%s", out)
	}
	if err := runFleet(io.Discard, 8, 24, schedConfig{}, "", fleetConfig{CVE: "CVE-0000-0000"}); err == nil {
		t.Fatal("unknown -cve accepted")
	}
}

// Every flag the README's clustersim row names is one clustersim
// defines.
func TestREADMEFlagsDefined(t *testing.T) {
	fuzzseed.CheckREADMEFlags(t, "../../README.md", "clustersim", func(args []string, stderr io.Writer) {
		parseArgs(args, stderr)
	})
}
