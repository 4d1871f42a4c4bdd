package main

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/par"
)

// A -fault-rate outside [0,1] is a usage error naming the flag, not a
// soak that injects nothing and reports every invariant held; so is a
// size below its minimum, not a soak silently run at the default size.
func TestParseArgsRejectsOutOfRangeProbability(t *testing.T) {
	for _, tc := range []struct {
		args []string
		bad  string // the flag the error must name; "" = accepted
	}{
		{[]string{"-ops", "20", "-fault-rate", "-1"}, "-fault-rate"},
		{[]string{"-fault-rate", "1.01"}, "-fault-rate"},
		{[]string{"-fault-rate", "NaN"}, "-fault-rate"},
		{[]string{"-ops", "0"}, "-ops"},
		{[]string{"-hosts", "1"}, "-hosts"},
		{[]string{"-vms", "0"}, "-vms"},
		{[]string{"-ops", "20", "-fault-rate", "0"}, ""},
		{[]string{"-fault-rate", "1"}, ""},
		{[]string{"-ops", "1", "-hosts", "2", "-vms", "1"}, ""},
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

// chaoscheck parses args as the command line does and runs them, returning
// the exit code, stdout and the error main reports.
func chaoscheck(t *testing.T, args ...string) (int, string, error) {
	t.Helper()
	cfg, err := parseArgs(args, os.Stderr)
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	var out strings.Builder
	err = run(&out, io.Discard, cfg)
	return hterr.Exit(io.Discard, "chaoscheck", err), out.String(), err
}

func TestRun(t *testing.T) {
	for _, tc := range []struct {
		name string
		test func(t *testing.T, dir string)
	}{
		{"clean soak exits 0", func(t *testing.T, dir string) {
			code, out, err := chaoscheck(t, "-ops", "20", "-artifact-dir", dir)
			if code != 0 || err != nil || !strings.Contains(out, "all invariants held") {
				t.Fatalf("exit %d, err %v, output:\n%s", code, err, out)
			}
		}},
		{"crash soak is stable across runs and workers", func(t *testing.T, dir string) {
			defer par.SetWorkers(0)
			var first string
			for _, workers := range []int{1, 4, 1} {
				par.SetWorkers(workers)
				code, out, err := chaoscheck(t, "-seed", "4", "-ops", "40", "-crash", "-v", "-artifact-dir", dir)
				if code != 0 || err != nil {
					t.Fatalf("workers %d: exit %d, err %v, output:\n%s", workers, code, err, out)
				}
				if first == "" {
					first = out
				} else if out != first {
					t.Fatalf("workers %d: output differs from the first run:\n%s\nfirst:\n%s", workers, out, first)
				}
			}
			// The soak drives every reactive-recovery kind to completion.
			for _, want := range []string{"hung, detected", "crash mid-transplant", "storm downed 3: recovered 3"} {
				if !strings.Contains(first, want) {
					t.Errorf("no %q in the crash soak:\n%s", want, first)
				}
			}
		}},
		{"planted leak exits 2 with artifacts, and its bundle replays", func(t *testing.T, dir string) {
			bundle := filepath.Join(dir, "bundle.json")
			code, out, err := chaoscheck(t, "-ops", "40", "-break", "leak-frame", "-bundle-out", bundle, "-artifact-dir", dir)
			if code != 2 || !errors.Is(err, hterr.ErrInvariantViolated) {
				t.Fatalf("exit %d, err %v, output:\n%s", code, err, out)
			}
			if !strings.Contains(out, "shrunk: 1 op(s) reproduce the frame-ownership violation") {
				t.Fatalf("no shrink report:\n%s", out)
			}
			for _, artifact := range []string{"chaos-metrics.json", "chaos-flight.jsonl"} {
				if _, err := os.Stat(filepath.Join(dir, artifact)); err != nil {
					t.Fatal(err)
				}
			}
			code, out, rerr := chaoscheck(t, "-replay", bundle, "-artifact-dir", dir)
			if code != 2 || rerr == nil || rerr.Error() != err.Error() {
				t.Fatalf("replay: exit %d, err %v (want %v), output:\n%s", code, rerr, err, out)
			}
			if !strings.Contains(out, "expected violation: frame-ownership") {
				t.Fatalf("replay did not expect the violation:\n%s", out)
			}
		}},
		{"recorded trace replays clean", func(t *testing.T, dir string) {
			trace := filepath.Join(dir, "trace.json")
			code, out, err := chaoscheck(t, "-seed", "3", "-ops", "30", "-v", "-record-out", trace, "-artifact-dir", dir)
			if code != 0 || err != nil || !strings.Contains(out, "record: wrote "+trace+" (30 op(s)") {
				t.Fatalf("exit %d, err %v, output:\n%s", code, err, out)
			}
			code, replayed, err := chaoscheck(t, "-replay", trace, "-v", "-artifact-dir", dir)
			if code != 0 || err != nil || !strings.Contains(replayed, "recorded trace (no expected violation)") {
				t.Fatalf("replay: exit %d, err %v, output:\n%s", code, err, replayed)
			}
			// The replay re-runs the same ops: the same per-op trace.
			ops := func(s string) string { return s[:strings.Index(s, "\n\n")] }
			if got, want := ops(replayed[strings.Index(replayed, "\n")+1:]), ops(out); got != want {
				t.Fatalf("replayed trace:\n%s\nrecorded:\n%s", got, want)
			}
		}},
		{"a bundle with an unknown op kind fails replay", func(t *testing.T, dir string) {
			trace := filepath.Join(dir, "trace.json")
			if code, out, err := chaoscheck(t, "-seed", "3", "-ops", "30", "-record-out", trace); code != 0 || err != nil {
				t.Fatalf("exit %d, err %v, output:\n%s", code, err, out)
			}
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			renamed := strings.Replace(string(data), `"kind": "upgrade"`, `"kind": "no-such-op"`, 1)
			if renamed == string(data) {
				t.Fatal("recorded trace has no upgrade op to rename")
			}
			if err := os.WriteFile(trace, []byte(renamed), 0o644); err != nil {
				t.Fatal(err)
			}
			code, out, err := chaoscheck(t, "-replay", trace)
			if code == 0 || err == nil || !strings.Contains(err.Error(), `unknown kind "no-such-op"`) {
				t.Fatalf("replay: exit %d, err %v, output:\n%s", code, err, out)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { tc.test(t, t.TempDir()) })
	}
}

// Every flag the README's chaoscheck row names is one chaoscheck
// defines.
func TestREADMEFlagsDefined(t *testing.T) {
	fuzzseed.CheckREADMEFlags(t, "../../README.md", "chaoscheck", func(args []string, stderr io.Writer) {
		parseArgs(args, stderr)
	})
}

// The flight-recorder dump a leaked frame leaves reads back, and the
// span auditor finds nothing in it: the violation it records is frame
// ownership's, not span structure's. chaoscheck writes it with
// obs.WriteFiles, which does not audit, so a dump is written whatever
// it holds.
func TestFlightRecorderGoldenAudits(t *testing.T) {
	f, err := os.Open(filepath.Join("testdata", "golden", "break-leak-frame", "chaos-flight.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := obs.ReadJSONL(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("the flight recorder dumped no spans")
	}
	if vs := obs.AuditRecords(recs); len(vs) > 0 {
		t.Fatalf("%d span violations, first: %v", len(vs), vs[0])
	}
}
