// Command tracecheck validates the span exports of an artifact
// directory (tpctl/clustersim -artifact-dir, chaoscheck's violation
// artifacts). The default mode checks a Chrome trace_event JSON file
// (trace.json): it must parse, be non-empty, contain only well-formed
// complete ("X") and instant ("i") events, and — with -require-steps —
// cover every Fig. 3 workflow step as a span. The Makefile's trace-demo
// target uses it as the end-to-end check that the observability
// pipeline emits something a human can actually open.
//
// -jsonl switches to validating a span-record file (spans.jsonl, or a
// flight-recorder dump such as chaos-flight.jsonl): every line must be
// one span record, no span id may repeat, and the whole file must pass
// the span auditor (obs.AuditRecords: end >= start, every child within
// its parent's interval when the parent is present, siblings in
// monotone start order). The file is audited as one set, because a
// depth-first export is not in id order: a nephew opened before its
// uncle is listed first. Records whose parent is absent are tolerated —
// a flight recorder's ring evicts spans whatever their parents.
//
// Usage:
//
//	tracecheck -require-steps run/trace.json
//	tracecheck -jsonl run/spans.jsonl
//
// Exit status: 0 when the file is valid, 1 when it is not, 2 on a usage
// error.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
)

type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    *float64       `json:"ts"`
	Dur   *float64       `json:"dur"`
	PID   *int           `json:"pid"`
	TID   *int           `json:"tid"`
	Args  map[string]any `json:"args"`
}

type traceFile struct {
	TraceEvents []traceEvent   `json:"traceEvents"`
	OtherData   map[string]any `json:"otherData"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one tracecheck invocation's parsed command line.
type config struct {
	path         string
	jsonl        bool
	requireSteps bool
}

// parseArgs parses the command line. Usage errors are reported on
// stderr and returned.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("tracecheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	requireSteps := fs.Bool("require-steps", false,
		"require every Fig. 3 workflow step to appear as a span")
	jsonl := fs.Bool("jsonl", false,
		"validate a span-record JSONL file instead of a Chrome trace")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: tracecheck [-require-steps | -jsonl] <file>")
		return config{}, errors.New("want exactly one file")
	}
	return config{path: fs.Arg(0), jsonl: *jsonl, requireSteps: *requireSteps}, nil
}

// run validates the file args name and returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if err != nil {
		return 2
	}
	var report string
	if cfg.jsonl {
		report, err = checkJSONL(cfg.path)
	} else {
		report, err = check(cfg.path, cfg.requireSteps)
	}
	if err == nil {
		fmt.Fprintln(stdout, report)
	}
	return hterr.Exit(stderr, "tracecheck", err)
}

// check validates a Chrome trace and returns its one-line report.
func check(path string, requireSteps bool) (string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return "", fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return "", fmt.Errorf("%s: no trace events", path)
	}
	spans := map[string]int{}
	instants := 0
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return "", fmt.Errorf("%s: event %d has no name", path, i)
		}
		if ev.TS == nil || ev.PID == nil || ev.TID == nil {
			return "", fmt.Errorf("%s: event %d (%q) missing ts/pid/tid", path, i, ev.Name)
		}
		switch ev.Phase {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return "", fmt.Errorf("%s: complete event %q has bad dur", path, ev.Name)
			}
			spans[ev.Name]++
		case "i":
			instants++
		default:
			return "", fmt.Errorf("%s: event %q has unexpected phase %q", path, ev.Name, ev.Phase)
		}
	}
	if requireSteps {
		// The engine names its phase spans after its phase table's steps.
		var missing []string
		for _, step := range core.Steps() {
			if spans[step] == 0 {
				missing = append(missing, step)
			}
		}
		if len(missing) > 0 {
			return "", fmt.Errorf("%s: missing Fig. 3 step spans %v", path, missing)
		}
	}
	return fmt.Sprintf("%s: ok — %d span events, %d instant events, %d distinct span names",
		path, len(tf.TraceEvents)-instants, instants, len(spans)), nil
}

// spanRecord mirrors the streamed JSONL line format (obs.SpanRecord).
type spanRecord struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Depth  int               `json:"depth"`
	Name   string            `json:"name"`
	Track  string            `json:"track"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs"`
	Events []struct {
		T      int64  `json:"t_ns"`
		Name   string `json:"name"`
		Detail string `json:"detail"`
	} `json:"events"`
}

// checkJSONL validates a span-record file and returns its one-line
// report: every line one named span record, roots at depth 0, no id
// repeated anywhere in the file, and the whole set clean under
// obs.AuditRecords, the span auditor the recorder's Auditor runs. A
// record whose parent is absent from the file is counted as orphaned,
// not rejected.
func checkJSONL(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()

	var recs []obs.SpanRecord
	lineOf := map[int]int{} // span id → the line that defined it
	roots := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			return "", fmt.Errorf("%s: line %d is empty", path, line)
		}
		var rec spanRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return "", fmt.Errorf("%s: line %d: not a span record: %w", path, line, err)
		}
		if rec.Name == "" {
			return "", fmt.Errorf("%s: line %d has no span name", path, line)
		}
		if first, dup := lineOf[rec.ID]; dup {
			return "", fmt.Errorf("%s: line %d: span id %d repeats line %d", path, line, rec.ID, first)
		}
		lineOf[rec.ID] = line
		if rec.Parent == -1 {
			roots++
			if rec.Depth != 0 {
				return "", fmt.Errorf("%s: line %d: root %q has depth %d", path, line, rec.Name, rec.Depth)
			}
		}
		recs = append(recs, obs.SpanRecord{
			ID: rec.ID, Parent: rec.Parent, Depth: rec.Depth, Name: rec.Name,
			Start: time.Duration(rec.Start), End: time.Duration(rec.End),
		})
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	if len(recs) == 0 {
		return "", fmt.Errorf("%s: no span records", path)
	}
	if vs := obs.AuditRecords(recs); len(vs) > 0 {
		return "", fmt.Errorf("%s: %d span violations, first: %v", path, len(vs), vs[0])
	}
	orphans := 0
	for _, rec := range recs {
		if _, ok := lineOf[rec.Parent]; rec.Parent != -1 && !ok {
			orphans++
		}
	}
	return fmt.Sprintf("%s: ok — %d span records, %d roots, %d orphaned records", path, len(recs), roots, orphans), nil
}
