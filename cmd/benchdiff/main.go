// Command benchdiff gates the benchmark suite against a checked-in
// baseline.
//
// It runs every benchmark in the repo -count times keeping the minimum
// per benchmark (or parses an existing `go test -bench` output via
// -input), then compares ns/op and allocs/op per benchmark against
// BENCH_BASELINE.json:
//
//   - allocs/op is a hard gate: any increase beyond measured jitter
//     (see compare) fails, because an increase is a real code change,
//     not noise. For lean single-goroutine benchmarks the slack is zero
//     and a single extra allocation fails;
//   - the warm-vs-cold ratio gates (speedupGates) are hard: both sides
//     come from the same run, so machine speed cancels;
//   - ns/op drift beyond ±15% (nsDrift) prints an ADVISORY line and
//     never fails: wall time on a shared runner moves more than that
//     between two runs of one commit. Wall-time claims are made on
//     alternating parent/change pairs of bench/run.sh.
//
// Exit status is non-zero on an allocs/op or ratio regression, on a
// baseline benchmark that disappeared, or on unparseable input.
//
// Refreshing the baseline (after a deliberate perf change, or when
// moving the reference machine):
//
//	go run ./cmd/benchdiff -update
//	git add BENCH_BASELINE.json && git commit
//
// New benchmarks are reported but do not fail the gate until they are
// added to the baseline with -update.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// entry is one benchmark's gated measurements.
type entry struct {
	NsOp     float64 `json:"ns_op"`
	AllocsOp int64   `json:"allocs_op"`
}

// baseline is the BENCH_BASELINE.json schema.
type baseline struct {
	Note       string           `json:"note,omitempty"`
	Benchmarks map[string]entry `json:"benchmarks"`
}

// nsDrift is the fractional ns/op drift reported as ADVISORY.
const nsDrift = 0.15

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		baselinePath = fs.String("baseline", "BENCH_BASELINE.json", "baseline file to compare against")
		input        = fs.String("input", "", "parse an existing `go test -bench` output file instead of running the suite")
		update       = fs.Bool("update", false, "rewrite the baseline from the current run instead of comparing")
		benchtime    = fs.String("benchtime", "3x", "-benchtime passed to go test when running the suite")
		count        = fs.Int("count", 3, "-count passed to go test; benchdiff keeps the minimum of the runs")
		pattern      = fs.String("bench", ".", "-bench pattern passed to go test")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}

	current, err := currentResults(*input, *pattern, *benchtime, *count, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v\n", err)
		return 1
	}
	if len(current) == 0 {
		fmt.Fprintln(stderr, "benchdiff: no benchmark results found")
		return 1
	}

	if *update {
		base := baseline{
			Note:       "Reference benchmark measurements; refresh with `go run ./cmd/benchdiff -update` after deliberate perf changes.",
			Benchmarks: current,
		}
		blob, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 1
		}
		if err := os.WriteFile(*baselinePath, append(blob, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "benchdiff: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "benchdiff: wrote %s with %d benchmarks\n", *baselinePath, len(current))
		return 0
	}

	blob, err := os.ReadFile(*baselinePath)
	if err != nil {
		fmt.Fprintf(stderr, "benchdiff: %v (run `go run ./cmd/benchdiff -update` to create it)\n", err)
		return 1
	}
	var base baseline
	if err := json.Unmarshal(blob, &base); err != nil {
		fmt.Fprintf(stderr, "benchdiff: parsing %s: %v\n", *baselinePath, err)
		return 1
	}

	lines, failed := compare(base.Benchmarks, current)
	ratioLines, ratioFailed := checkSpeedups(current)
	lines = append(lines, ratioLines...)
	failed = failed || ratioFailed
	for _, l := range lines {
		fmt.Fprintln(stdout, l)
	}
	if failed {
		fmt.Fprintln(stderr, "benchdiff: FAIL — see regressions above (refresh deliberately with `go run ./cmd/benchdiff -update`)")
		return 1
	}
	fmt.Fprintf(stdout, "benchdiff: ok (%d benchmarks, no allocs/op growth; ns/op drift beyond ±%.0f%% is advisory)\n",
		len(current), nsDrift*100)
	return 0
}

// currentResults obtains the measurements to gate: parsed from -input
// when given, otherwise by running the repo's benchmark suite.
func currentResults(input, pattern, benchtime string, count int, stderr io.Writer) (map[string]entry, error) {
	if input != "" {
		f, err := os.Open(input)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return parseBench(f)
	}
	cmd := exec.Command("go", "test", "-run", "^$", "-bench", pattern,
		"-benchmem", "-count", strconv.Itoa(count), "-benchtime", benchtime, "./...")
	out, err := cmd.Output()
	if err != nil {
		if ee, ok := err.(*exec.ExitError); ok {
			fmt.Fprintf(stderr, "%s", ee.Stderr)
		}
		return nil, fmt.Errorf("running benchmarks: %w", err)
	}
	return parseBench(bytes.NewReader(out))
}

// benchLine matches one `go test -bench` result line:
//
//	BenchmarkName-8   12   3456 ns/op   789 B/op   10 allocs/op
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+(.*)$`)

// parseBench extracts ns/op and allocs/op per benchmark from `go test
// -bench -benchmem` output. The GOMAXPROCS suffix is stripped so the
// baseline is stable across runner core counts. With -count > 1 a
// benchmark appears several times; the minimum of each measure is kept —
// scheduler noise and background-goroutine allocations only ever add,
// so the min is the stable estimate of the true cost.
func parseBench(r io.Reader) (map[string]entry, error) {
	out := make(map[string]entry)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		name, rest := m[1], m[2]
		e := entry{AllocsOp: -1}
		fields := strings.Fields(rest)
		for i := 1; i < len(fields); i++ {
			switch fields[i] {
			case "ns/op":
				v, err := strconv.ParseFloat(fields[i-1], 64)
				if err != nil {
					return nil, fmt.Errorf("parsing ns/op for %s: %w", name, err)
				}
				e.NsOp = v
			case "allocs/op":
				v, err := strconv.ParseInt(fields[i-1], 10, 64)
				if err != nil {
					return nil, fmt.Errorf("parsing allocs/op for %s: %w", name, err)
				}
				e.AllocsOp = v
			}
		}
		if e.NsOp == 0 {
			continue // not a timing line (e.g. a custom metric only)
		}
		if e.AllocsOp < 0 {
			return nil, fmt.Errorf("%s has no allocs/op — run with -benchmem", name)
		}
		if prev, ok := out[name]; ok {
			if prev.NsOp < e.NsOp {
				e.NsOp = prev.NsOp
			}
			if prev.AllocsOp < e.AllocsOp {
				e.AllocsOp = prev.AllocsOp
			}
		}
		out[name] = e
	}
	return out, sc.Err()
}

// speedupGate pins a warm/cold benchmark pair: the warm benchmark must
// stay at least MinRatio times faster than the cold one. Unlike the
// advisory ns/op drift check, this is a relationship between two benchmarks
// from the same run, so it is immune to machine speed — it fails only
// when the cached path itself loses its advantage.
type speedupGate struct {
	Warm     string
	Cold     string
	MinRatio float64
}

// speedupGates are the pinned warm-path guarantees. The Figure 10 pair
// is the repeat-transplant fast path. The cold sweep builds a testbed per
// point and the warm one hops primed hosts. The ratio follows what the
// cold side wastes: ~16× while each cold point paid 20-80 MB of memclr,
// ~4.5× once hw.PhysMem stopped zeroing per-frame arrays, ~3.3-3.5× since
// the state chain builds into exact-size storage. Gated at 3× so a real
// cache regression (a fingerprint chain that stops converging, a snapshot
// replay that stops firing) fails loudly; the margin over scheduler noise
// on shared runners is now thin.
var speedupGates = []speedupGate{
	{Warm: "BenchmarkFigure10Warm", Cold: "BenchmarkFigure10KVMToXen", MinRatio: 3},
}

// checkSpeedups evaluates every speedup gate whose two benchmarks are
// both present in the run. A pair absent from the run (a narrowed
// -bench pattern) is skipped, not failed — the MISSING check against
// the baseline already catches deleted benchmarks.
func checkSpeedups(current map[string]entry) (lines []string, failed bool) {
	for _, g := range speedupGates {
		warm, okW := current[g.Warm]
		cold, okC := current[g.Cold]
		if !okW || !okC || warm.NsOp == 0 {
			continue
		}
		ratio := cold.NsOp / warm.NsOp
		if ratio < g.MinRatio {
			lines = append(lines, fmt.Sprintf("REGRESS  %s: only %.1f× faster than %s (gate ≥%.0f×)",
				g.Warm, ratio, g.Cold, g.MinRatio))
			failed = true
			continue
		}
		lines = append(lines, fmt.Sprintf("ok       %s: %.1f× faster than %s (gate ≥%.0f×)",
			g.Warm, ratio, g.Cold, g.MinRatio))
	}
	return lines, failed
}

// compare gates current against base: allocs/op never higher, every
// baseline benchmark still present; ns/op drift beyond ±nsDrift is
// reported but does not fail. Returns the report lines (sorted by
// benchmark) and whether the gate failed.
func compare(base, current map[string]entry) (lines []string, failed bool) {
	names := make([]string, 0, len(base))
	for name := range base {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b := base[name]
		c, ok := current[name]
		if !ok {
			lines = append(lines, fmt.Sprintf("MISSING  %s: in baseline but not in this run (deleted? refresh the baseline)", name))
			failed = true
			continue
		}
		if drift := (c.NsOp - b.NsOp) / b.NsOp; drift > nsDrift || drift < -nsDrift {
			lines = append(lines, fmt.Sprintf("ADVISORY %s: ns/op %+.1f%% (%.0f → %.0f, beyond ±%.0f%%; not gated), allocs/op %d",
				name, drift*100, b.NsOp, c.NsOp, nsDrift*100, c.AllocsOp))
		} else {
			lines = append(lines, fmt.Sprintf("ok       %s: ns/op %+.1f%%, allocs/op %d", name, drift*100, c.AllocsOp))
		}
		// Hard gate on allocations, with slack only for measured run-to-run
		// jitter: none under 100 allocs/op (single-goroutine benchmarks
		// repeat exactly), else 2 + 0.2% (par-pool scheduling moves the
		// min-of-three count: ±1-2 on 250-600 allocs/op, 13,953-13,968 on
		// the Figure 8 sweep).
		slack := int64(0)
		if b.AllocsOp >= 100 {
			slack = 2 + b.AllocsOp/500
		}
		if c.AllocsOp > b.AllocsOp+slack {
			lines = append(lines, fmt.Sprintf("REGRESS  %s: allocs/op grew %d → %d (hard gate)",
				name, b.AllocsOp, c.AllocsOp))
			failed = true
		}
	}
	extra := make([]string, 0)
	for name := range current {
		if _, ok := base[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		lines = append(lines, fmt.Sprintf("NEW      %s: not in baseline (add with -update)", name))
	}
	return lines, failed
}
