package main

import (
	"encoding/json"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hypertp/internal/core"
	"hypertp/internal/fuzzseed"
	"hypertp/internal/hterr"
)

func cfg(mode string) runConfig {
	return runConfig{
		Mode: mode, From: "xen", To: "kvm", Machine: "M1",
		VMs: 1, VCPUs: 1, MemGiB: 1, Opts: core.DefaultOptions(),
	}
}

// -from and -to take every pool member: nova used to be rejected although
// hv/nova is a first-class transplant target.
func TestParseKind(t *testing.T) {
	for _, pair := range [][2]string{{"xen", "nova"}, {"nova", "kvm"}} {
		c := cfg("inplace")
		c.From, c.To = pair[0], pair[1]
		if err := run(io.Discard, c); err != nil {
			t.Fatalf("%s -> %s: %v", pair[0], pair[1], err)
		}
	}
	c := cfg("inplace")
	c.From = "vmware"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("unknown -from accepted")
	}
	c = cfg("inplace")
	c.To = "vmware"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("unknown -to accepted")
	}
}

func TestParseProfile(t *testing.T) {
	for _, s := range []string{"M1", "m1", "M2", "m2"} {
		if _, err := parseProfile(s); err != nil {
			t.Fatalf("%s rejected", s)
		}
	}
	if _, err := parseProfile("M3"); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRunInPlace(t *testing.T) {
	if err := run(io.Discard, cfg("inplace")); err != nil {
		t.Fatal(err)
	}
}

func TestRunMigration(t *testing.T) {
	c := cfg("migration")
	c.VMs = 2
	if err := run(io.Discard, c); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithPolicyCheck(t *testing.T) {
	c := cfg("inplace")
	c.CVE = "CVE-2016-6258"
	if err := run(io.Discard, c); err != nil {
		t.Fatal(err)
	}
	// Medium flaw: the policy refuses.
	c.CVE = "CVE-2015-8104"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("medium CVE accepted")
	}
	c.CVE = "CVE-0000-0000"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("unknown CVE accepted")
	}
}

func TestRunErrors(t *testing.T) {
	bad := []runConfig{}
	c := cfg("teleport")
	bad = append(bad, c)
	c = cfg("inplace")
	c.From = "qnx"
	bad = append(bad, c)
	c = cfg("inplace")
	c.To = "qnx"
	bad = append(bad, c)
	c = cfg("inplace")
	c.Machine = "M9"
	bad = append(bad, c)
	for i, c := range bad {
		if err := run(io.Discard, c); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

// The -fault-seed/-fault-rate/-fault-sites path for both modes: forced
// crash recovery for inplace, a lossy link for migration — both runs
// complete (recovered), and an unrecoverable site combination surfaces
// a classified error.
func TestRunWithFaultInjection(t *testing.T) {
	c := cfg("inplace")
	c.FaultSeed, c.FaultRate, c.FaultSites = 42, 1, "kexec.handover"
	c.FaultPlan = true
	if err := run(io.Discard, c); err != nil {
		t.Fatal(err)
	}

	c = cfg("migration")
	c.FaultSeed, c.FaultRate, c.FaultSites = 42, 1, "link.loss"
	if err := run(io.Discard, c); err != nil {
		t.Fatal(err)
	}

	// Severing every attempt exhausts the retry budget: the migration
	// aborts to the source with a classified error.
	c = cfg("migration")
	c.FaultSeed, c.FaultRate, c.FaultSites = 42, 1, "link.abort"
	err := run(io.Discard, c)
	if !errors.Is(err, hterr.ErrAborted) || !errors.Is(err, hterr.ErrInjected) {
		t.Fatalf("err = %v, want aborted+injected", err)
	}

	// Unknown site rejected.
	c = cfg("inplace")
	c.FaultSites = "no.such.site"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("unknown fault site accepted")
	}
}

// The -crash-at path: every injection point ends in a completed
// emergency transplant; migration mode and unknown points are rejected,
// and an unrecovered crash maps to the exit-2 convention.
func TestRunCrashAt(t *testing.T) {
	for _, at := range []string{"idle", "hang", "transplant"} {
		c := cfg("inplace")
		c.VMs = 2
		c.CrashAt = at
		if err := run(io.Discard, c); err != nil {
			t.Fatalf("-crash-at %s: %v", at, err)
		}
	}
	c := cfg("inplace")
	c.CrashAt = "restore"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("unknown -crash-at accepted")
	}
	c = cfg("migration")
	c.CrashAt = "idle"
	if err := run(io.Discard, c); err == nil {
		t.Fatal("-crash-at with -mode migration accepted")
	}
	if got := hterr.Exit(io.Discard, "tpctl", hterr.HypervisorCrashed(errors.New("frozen"))); got != 2 {
		t.Fatalf("unrecovered crash exits %d, want 2", got)
	}
}

// TestRunTraceAndMetricsOut exercises -artifact-dir for both modes (the
// exports golden pins the in-place files byte for byte) and checks the
// trace and metrics files are valid, non-empty JSON.
func TestRunTraceAndMetricsOut(t *testing.T) {
	for _, mode := range []string{"inplace", "migration"} {
		c := cfg(mode)
		c.ArtifactDir = filepath.Join(t.TempDir(), mode)
		if err := run(io.Discard, c); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		var tr struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		data, err := os.ReadFile(filepath.Join(c.ArtifactDir, "trace.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &tr); err != nil {
			t.Fatalf("%s: trace is not valid JSON: %v", mode, err)
		}
		if len(tr.TraceEvents) == 0 {
			t.Fatalf("%s: empty trace", mode)
		}
		var mets map[string]any
		data, err = os.ReadFile(filepath.Join(c.ArtifactDir, "metrics.json"))
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, &mets); err != nil {
			t.Fatalf("%s: metrics not valid JSON: %v", mode, err)
		}
		if len(mets) == 0 {
			t.Fatalf("%s: empty metrics", mode)
		}
	}
}

// The transplant cache is on by default and its counters reach the prom
// dump as hypertp_tpcache_* series; -no-cache runs the cold path, and
// -warm-pool, which pre-staged translations, is no longer a flag.
func TestRunWarmPoolAndNoCache(t *testing.T) {
	if _, err := parseArgs([]string{"-warm-pool", "2"}, io.Discard); err == nil {
		t.Fatal("-warm-pool accepted")
	}
	c := cfg("inplace")
	c.VMs = 2
	c.ArtifactDir = t.TempDir()
	if err := run(io.Discard, c); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(c.ArtifactDir, "metrics.prom"))
	if err != nil {
		t.Fatal(err)
	}
	for _, series := range []string{"hypertp_tpcache_hits_total", "hypertp_tpcache_misses_total"} {
		if !strings.Contains(string(data), series) {
			t.Fatalf("prom dump missing %s:\n%s", series, data)
		}
	}

	c = cfg("inplace")
	c.NoCache = true
	var out strings.Builder
	if err := run(&out, c); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out.String(), "cache: ") {
		t.Fatalf("-no-cache run still prints a cache line:\n%s", out.String())
	}
}

// -v prints the span tree: the transplant's root, then every Fig. 3 step
// in workflow order, one line each.
func TestRunVerbosePrintsSteps(t *testing.T) {
	c := cfg("inplace")
	c.Verbose = true
	var out strings.Builder
	if err := run(&out, c); err != nil {
		t.Fatal(err)
	}
	_, workflow, ok := strings.Cut(out.String(), "workflow trace:\n")
	if !ok {
		t.Fatalf("no workflow trace in -v output:\n%s", out.String())
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(workflow), "\n") {
		names = append(names, strings.Fields(line)[1])
	}
	if want := append([]string{"inplace-tp"}, core.Steps()...); !reflect.DeepEqual(names, want) {
		t.Fatalf("-v printed %v, want %v", names, want)
	}
}

// A probability flag outside [0,1] is a usage error naming the flag, not
// a run that silently injects nothing; so is the retired -warm-pool, not
// a run that silently ignores it.
func TestParseArgsRejectsOutOfRangeProbability(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // the flag the error must name; "" = accepted
	}{
		{[]string{"-fault-rate", "-1"}, "-fault-rate"},
		{[]string{"-fault-rate", "1.5"}, "-fault-rate"},
		{[]string{"-fault-rate", "NaN"}, "-fault-rate"},
		{[]string{"-warm-pool", "8"}, "-warm-pool"},
		{[]string{"-fault-rate", "0"}, ""},
		{[]string{"-fault-rate", "1"}, ""},
		{[]string{"-fault-rate", "0.2"}, ""},
	} {
		var stderr strings.Builder
		_, err := parseArgs(tc.args, &stderr)
		if tc.bad == "" {
			if err != nil || stderr.Len() != 0 {
				t.Errorf("%v: rejected: %v %s", tc.args, err, stderr.String())
			}
			continue
		}
		if first, _, _ := strings.Cut(stderr.String(), "\n"); err == nil || !strings.Contains(first+" ", tc.bad+" ") {
			t.Errorf("%v: want a usage error naming %s, got %v, stderr %q", tc.args, tc.bad, err, stderr.String())
		}
	}
}

// Every flag the README's tpctl row names is one tpctl defines.
func TestREADMEFlagsDefined(t *testing.T) {
	fuzzseed.CheckREADMEFlags(t, "../../README.md", "tpctl", func(args []string, stderr io.Writer) {
		parseArgs(args, stderr)
	})
}
