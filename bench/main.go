// Command bench is the repository's benchmark: four workloads, each in
// its own process, driven by one closed-loop goroutine (one client) with
// the par pool at min(nproc, 4). Every metric is printed by name with its
// unit and the clock it is read on — host time is what the simulator
// costs, virtual time is the paper's result — and every op's outputs are
// verified. See README.md for the catalogue.
//
//	bash bench/run.sh                       # all workloads, end-to-end metrics
//	bash bench/run.sh -trace                # plus the per-layer metrics and spans files
//	bash bench/run.sh -repeat 2             # two sets, compared against the bounds
//	bash bench/run.sh --workload inplace_warm --seed 7 --seconds 20 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metricValue is one metric on the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line a single-workload run prints.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type options struct {
	config
	repeat       int
	jsonOut      bool
	updateGolden bool
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	opts, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if opts.workload != "" && opts.workload != "all" {
		return runChild(opts)
	}
	return runAll(opts)
}

func parseFlags(args []string) (*options, error) {
	// The driver passes "--trace 0|1"; the flag package wants a boolean
	// flag's value attached.
	var norm []string
	for i := 0; i < len(args); i++ {
		if a := strings.TrimLeft(args[i], "-"); a == "trace" && args[i] != a && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				norm = append(norm, "-trace="+args[i+1])
				i++
				continue
			}
		}
		norm = append(norm, args[i])
	}

	opts := &options{config: config{setups: 3, outDir: filepath.Join(benchDir(), "out")}}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&opts.workload, "workload", "all", "one workload by name, or all (each in its own child process)")
	fs.Uint64Var(&opts.seed, "seed", defaultSeed, "seed of every generated input (hv.Config.Seed, receiver and detector seeds)")
	fs.Float64Var(&opts.seconds, "seconds", 0, "measure whole passes for this long; 0 runs each workload's fixed pass count (a traced run alternates them untraced/traced)")
	fs.BoolVar(&opts.trace, "trace", false, "traced run: per-layer metrics and out/<workload>.spans.jsonl (with all: after the end-to-end run)")
	scale := fs.String("scale", "full", "full, or tiny (a smoke-test grid)")
	fs.IntVar(&opts.repeat, "repeat", 1, "run this many full sets and compare them against the bounds")
	fs.BoolVar(&opts.jsonOut, "json", false, "with all: print one JSON document instead of the table")
	fs.BoolVar(&opts.updateGolden, "update-golden", false, "rewrite testdata/sim_digest.golden from this run (default seed only)")
	if err := fs.Parse(norm); err != nil {
		return nil, err
	}
	switch *scale {
	case "full":
	case "tiny":
		opts.tiny = true
	default:
		return nil, fmt.Errorf("unknown -scale %q", *scale)
	}
	if fs.NArg() > 0 {
		return nil, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if opts.updateGolden && opts.seed != defaultSeed {
		return nil, fmt.Errorf("-update-golden needs the default seed")
	}
	if opts.repeat < 1 {
		return nil, fmt.Errorf("-repeat must be at least 1")
	}
	return opts, nil
}

// runChild runs one workload in this process and prints its metrics,
// ending with the result line.
func runChild(opts *options) int {
	cfg := opts.config
	w := lookupWorkload(cfg.workload)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	cfg.passes = w.passes
	if cfg.tiny {
		cfg.passes = 1
	}
	res, err := runWorkload(cfg, opts.updateGolden)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	fmt.Printf("workload %s seed %d scale %s trace %t: %d ops timed, %d failed, op_wall percentiles over %d samples\n",
		res.workload, cfg.seed, cfg.scaleName(), cfg.trace, res.attempted, res.failed, res.samples)
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	shown := defs
	if !cfg.trace {
		shown = append(append([]metricDef(nil), defs...), exact...)
	}
	for _, d := range shown {
		fmt.Printf("  %-32s %16.6g %-7s %s\n", d.name, res.metrics[d.name], d.unit, d.clock)
	}
	for _, d := range defs {
		line.Metrics[d.name] = metricValue{Value: res.metrics[d.name], Unit: d.unit}
	}
	fmt.Printf("sim_digest %s %s\n", res.workload, res.digest)
	for _, p := range res.problems {
		fmt.Printf("problem: %s\n", p)
	}
	if res.noisy {
		fmt.Println("noisy: system time is over half of CPU time; the host, not the simulator, set these numbers")
	}
	out, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// childRun is what the parent keeps of one child process.
type childRun struct {
	line   resultLine
	values map[string]float64 // every metric the child printed
	digest string
	notes  []string // problem: and noisy: lines
}

// spawn runs one workload in a child process of this binary and waits
// for it.
func spawn(opts *options, workload string, trace bool) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"-workload", workload,
		"-seed", strconv.FormatUint(opts.seed, 10),
		"-seconds", strconv.FormatFloat(opts.seconds, 'g', -1, 64),
		"-trace=" + strconv.FormatBool(trace),
		"-scale", opts.scaleName(),
	}
	if opts.updateGolden {
		args = append(args, "-update-golden")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s: %w", workload, err)
	}
	run := &childRun{values: map[string]float64{}}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines {
		switch {
		case strings.HasPrefix(l, "  "): // a metric row: name value unit clock
			if f := strings.Fields(l); len(f) == 4 {
				run.values[f[0]], _ = strconv.ParseFloat(f[1], 64)
			}
		case strings.HasPrefix(l, "sim_digest "):
			run.digest = strings.Fields(l)[2]
		case strings.HasPrefix(l, "problem: "), strings.HasPrefix(l, "noisy: "):
			run.notes = append(run.notes, l)
		}
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &run.line); err != nil {
		return nil, fmt.Errorf("%s: result line: %w", workload, err)
	}
	for name, v := range run.line.Metrics {
		run.values[name] = v.Value // the result line has all the digits
	}
	return run, nil
}

// set is one full run of every workload: metric values by workload and
// name, from the end-to-end child and (with -trace) the traced child.
type set map[string]map[string]float64

// runAll is the parent: every workload in its own child, -repeat times.
func runAll(opts *options) int {
	status := 0
	var sets []set
	for r := 0; r < opts.repeat; r++ {
		s := set{}
		for _, w := range workloads {
			s[w.name] = map[string]float64{}
			runs := []bool{false}
			if opts.trace {
				runs = append(runs, true)
			}
			digest := ""
			for _, trace := range runs {
				run, err := spawn(opts, w.name, trace)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				for name, v := range run.values {
					if name == "fail_ratio" {
						v = max(v, s[w.name][name]) // both runs report it: keep the worse
					}
					s[w.name][name] = v
				}
				for _, n := range run.notes {
					fmt.Fprintf(os.Stderr, "%s (trace %t): %s\n", w.name, trace, n)
				}
				if run.line.Failed > 0 {
					status = 1
				}
				if digest != "" && digest != run.digest {
					fmt.Fprintf(os.Stderr, "%s: sim_digest differs between the end-to-end and the traced run: %s vs %s\n", w.name, digest, run.digest)
					s[w.name]["fail_ratio"] = 1
					status = 1
				}
				digest = run.digest
			}
		}
		sets = append(sets, s)
	}

	if opts.jsonOut {
		out, err := json.MarshalIndent(sets, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
	} else {
		printSets(sets, opts.trace)
	}
	if len(sets) > 1 && !compareSets(sets) {
		status = 1
	}
	return status
}

// shownDefs is every metric the parent has values for, in catalogue
// order (perLayer starts with the exact metrics).
func shownDefs(trace bool) []metricDef {
	if trace {
		return append(append([]metricDef(nil), endToEnd...), perLayer...)
	}
	return append(append([]metricDef(nil), endToEnd...), exact...)
}

func printSets(sets []set, trace bool) {
	fmt.Printf("%-32s %-7s %-8s", "metric", "unit", "clock")
	for _, w := range workloads {
		fmt.Printf(" %20s", w.name)
	}
	fmt.Println()
	for _, d := range shownDefs(trace) {
		fmt.Printf("%-32s %-7s %-8s", d.name, d.unit, d.clock)
		for _, w := range workloads {
			vals := valuesOf(sets, w.name, d.name)
			if len(vals) == 0 {
				fmt.Printf(" %20s", "-")
				continue
			}
			fmt.Printf(" %20.6g", percentile(vals, 50))
		}
		fmt.Println()
	}
}

func valuesOf(sets []set, workload, metric string) []float64 {
	var vals []float64
	for _, s := range sets {
		if v, ok := s[workload][metric]; ok {
			vals = append(vals, v)
		}
	}
	return vals
}

// compareSets prints min/median/max and the relative spread of every
// metric × workload across the sets, and reports whether the sets agree:
// host-time end-to-end metrics within their bound, everything that is not
// host time exactly.
func compareSets(sets []set) bool {
	agree := true
	fmt.Printf("\n%d sets compared\n%-32s %-20s %12s %12s %12s %8s %6s\n",
		len(sets), "metric", "workload", "min", "median", "max", "spread", "bound")
	for _, d := range shownDefs(true) {
		for _, w := range workloads {
			vals := valuesOf(sets, w.name, d.name)
			if len(vals) < 2 {
				continue
			}
			sort.Float64s(vals)
			lo, med, hi := vals[0], percentile(vals, 50), vals[len(vals)-1]
			spread := 0.0
			if med != 0 {
				spread = (hi - lo) / med
			}
			verdict := ""
			switch {
			case d.bound > 0 && spread > d.bound:
				verdict, agree = "DISAGREE", false
			case d.clock != clockHost && lo != hi:
				verdict, agree = "NOT EXACT", false
			}
			if d.bound > 0 || verdict != "" {
				fmt.Printf("%-32s %-20s %12.6g %12.6g %12.6g %7.2f%% %5.0f%% %s\n",
					d.name, w.name, lo, med, hi, 100*spread, 100*d.bound, verdict)
			}
		}
	}
	return agree
}
