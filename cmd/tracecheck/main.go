// Command tracecheck validates observability exports produced by
// tpctl/clustersim. The default mode checks a Chrome trace_event JSON
// file: it must parse, be non-empty, contain only well-formed complete
// ("X") and instant ("i") events, and — with -require-steps — cover
// every Fig. 3 workflow step as a span. The Makefile's trace-demo
// target uses it as the end-to-end check that the observability
// pipeline emits something a human can actually open.
//
// -jsonl switches to validating a streamed span-record file
// (-spans-out / -stream-out / a flight-recorder dump): every line must
// be one span record, ids unique, and each root's records must pass the
// span auditor (obs.AuditRecords: end >= start, every child within its
// parent's interval when the parent is present, siblings in monotone
// start order) — sampled or evicted parents are tolerated, because
// streaming exports are allowed to keep or drop whole roots.
//
// Usage:
//
//	tracecheck -require-steps trace.json
//	tracecheck -jsonl spans.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"hypertp/internal/core"
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
	requireSteps := flag.Bool("require-steps", false,
		"require every Fig. 3 workflow step to appear as a span")
	jsonl := flag.Bool("jsonl", false,
		"validate a streamed span-record JSONL file instead of a Chrome trace")
	allowEmpty := flag.Bool("allow-empty", false,
		"accept an empty -jsonl file (aggressive sampling may drop every root)")
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck [-require-steps | -jsonl [-allow-empty]] <file>")
		os.Exit(2)
	}
	var err error
	if *jsonl {
		err = checkJSONL(flag.Arg(0), *allowEmpty)
	} else {
		err = check(flag.Arg(0), *requireSteps)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracecheck:", err)
		os.Exit(1)
	}
}

func check(path string, requireSteps bool) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(data, &tf); err != nil {
		return fmt.Errorf("%s: not valid JSON: %w", path, err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("%s: no trace events", path)
	}
	spans := map[string]int{}
	instants := 0
	for i, ev := range tf.TraceEvents {
		if ev.Name == "" {
			return fmt.Errorf("%s: event %d has no name", path, i)
		}
		if ev.TS == nil || ev.PID == nil || ev.TID == nil {
			return fmt.Errorf("%s: event %d (%q) missing ts/pid/tid", path, i, ev.Name)
		}
		switch ev.Phase {
		case "X":
			if ev.Dur == nil || *ev.Dur < 0 {
				return fmt.Errorf("%s: complete event %q has bad dur", path, ev.Name)
			}
			spans[ev.Name]++
		case "i":
			instants++
		default:
			return fmt.Errorf("%s: event %q has unexpected phase %q", path, ev.Name, ev.Phase)
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
			return fmt.Errorf("%s: missing Fig. 3 step spans %v", path, missing)
		}
	}
	fmt.Printf("%s: ok — %d span events, %d instant events, %d distinct span names\n",
		path, len(tf.TraceEvents)-instants, instants, len(spans))
	return nil
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

// checkJSONL validates a streamed span-record file. Ids restart at 0 on
// every root (parent -1) line — one flattened root tree is one batch —
// so each batch is audited on its own by obs.AuditRecords, the span
// auditor the recorder runs: no negative durations, children inside
// their parents, siblings in monotone start order. Records whose parent
// is absent from the batch are tolerated: head sampling keeps or drops
// whole roots, and a flight recorder's ring evicts batch prefixes.
func checkJSONL(path string, allowEmpty bool) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()

	var lines, roots, orphans int
	var batch []obs.SpanRecord
	ids := map[int]bool{}
	audit := func() error {
		if vs := obs.AuditRecords(batch); len(vs) > 0 {
			return fmt.Errorf("%s: root ending at line %d: %d span violations, first: %v", path, lines, len(vs), vs[0])
		}
		batch = batch[:0]
		clear(ids)
		return nil
	}
	lastID := -1
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if len(line) == 0 {
			return fmt.Errorf("%s: line %d is empty", path, lines+1)
		}
		var rec spanRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			return fmt.Errorf("%s: line %d: not a span record: %w", path, lines+1, err)
		}
		if rec.Name == "" {
			return fmt.Errorf("%s: line %d has no span name", path, lines+1)
		}
		// Ids strictly increase within one flattened root; a root line or
		// an id non-increase (an evicted batch boundary) opens a fresh id
		// space, which also makes duplicate ids impossible within a batch.
		if rec.Parent == -1 || rec.ID <= lastID {
			if err := audit(); err != nil {
				return err
			}
			if rec.Parent == -1 {
				roots++
				if rec.Depth != 0 {
					return fmt.Errorf("%s: line %d: root %q has depth %d", path, lines+1, rec.Name, rec.Depth)
				}
			}
		}
		lines++
		lastID = rec.ID
		if rec.Parent != -1 && !ids[rec.Parent] {
			orphans++ // parent sampled away or evicted: tolerated
		}
		ids[rec.ID] = true
		batch = append(batch, obs.SpanRecord{
			ID: rec.ID, Parent: rec.Parent, Depth: rec.Depth, Name: rec.Name,
			Start: time.Duration(rec.Start), End: time.Duration(rec.End),
		})
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if err := audit(); err != nil {
		return err
	}
	if lines == 0 && !allowEmpty {
		return fmt.Errorf("%s: no span records (use -allow-empty if sampling dropped every root)", path)
	}
	fmt.Printf("%s: ok — %d span records, %d roots, %d orphaned records\n", path, lines, roots, orphans)
	return nil
}
