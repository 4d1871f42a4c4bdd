package obs

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"hypertp/internal/hterr"
)

// Exporters. Every span export is a function of []SpanRecord, the
// records a StreamSink is handed (a Collector's, for a whole run). All
// output is deterministic: roots are listed in the order they ended,
// each root's spans depth-first in creation order, timestamps are
// virtual, JSON fields are emitted in a fixed order, and wall-clock data
// is never written. This is what lets the determinism tests assert
// byte-identical files across -workers counts.

// usec renders a virtual duration as microseconds with fixed 3-decimal
// precision (Chrome's trace_event unit).
func usec(d int64) string {
	return fmt.Sprintf("%d.%03d", d/1000, d%1000)
}

func jstr(s string) string {
	b, _ := json.Marshal(s)
	return string(b)
}

// argsJSON renders attrs (plus extras) as a JSON object with keys in
// insertion order.
func argsJSON(attrs []Attr) string {
	if len(attrs) == 0 {
		return "{}"
	}
	out := "{"
	for i, a := range attrs {
		if i > 0 {
			out += ","
		}
		out += jstr(a.Key) + ":" + jstr(a.Value)
	}
	return out + "}"
}

// trackMap maps a record's resolved track to its Chrome tid. Track ids
// are assigned in first-seen record order, so the mapping is
// deterministic.
type trackMap struct {
	ids  map[string]int
	next int
}

func newTrackMap() *trackMap { return &trackMap{ids: map[string]int{"": 1}, next: 2} }

func (tm *trackMap) id(track string) int {
	if id, ok := tm.ids[track]; ok {
		return id
	}
	tm.ids[track] = tm.next
	tm.next++
	return tm.ids[track]
}

// WriteChromeTrace writes recs in Chrome trace_event JSON (the format
// chrome://tracing and Perfetto open directly): one complete ("ph":"X")
// event per span and one instant ("ph":"i") event per span event,
// timestamps in virtual microseconds.
func WriteChromeTrace(w io.Writer, recs []SpanRecord) error {
	if _, err := io.WriteString(w, "{\"traceEvents\":[\n"); err != nil {
		return err
	}
	tm := newTrackMap()
	sep := ""
	for _, rec := range recs {
		tid := tm.id(rec.Track)
		if _, err := fmt.Fprintf(w,
			"%s{\"name\":%s,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"dur\":%s,\"args\":%s}",
			sep, jstr(rec.Name), tid, usec(rec.Start.Nanoseconds()),
			usec((rec.End - rec.Start).Nanoseconds()), argsJSON(rec.Attrs)); err != nil {
			return err
		}
		sep = ",\n"
		for _, ev := range rec.Events {
			if _, err := fmt.Fprintf(w,
				"%s{\"name\":%s,\"ph\":\"i\",\"pid\":1,\"tid\":%d,\"ts\":%s,\"s\":\"t\",\"args\":{\"detail\":%s}}",
				sep, jstr(ev.Name), tid, usec(ev.T.Nanoseconds()), jstr(ev.Detail)); err != nil {
				return err
			}
		}
	}
	_, err := io.WriteString(w, "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"generator\":\"hypertp-obs\",\"timeDomain\":\"virtual\"}}\n")
	return err
}

// appendJSONL renders the record as one JSON line — the spans.jsonl
// format WriteJSONL writes: id,
// parent id (-1 for roots), depth, name, track, virtual start/end in
// nanoseconds, attrs and instant events.
func (rec SpanRecord) appendJSONL(b []byte) []byte {
	b = append(b, fmt.Sprintf(
		"{\"id\":%d,\"parent\":%d,\"depth\":%d,\"name\":%s,\"track\":%s,\"start_ns\":%d,\"end_ns\":%d",
		rec.ID, rec.Parent, rec.Depth, jstr(rec.Name), jstr(rec.Track),
		rec.Start.Nanoseconds(), rec.End.Nanoseconds())...)
	if len(rec.Attrs) > 0 {
		b = append(b, ",\"attrs\":"...)
		b = append(b, argsJSON(rec.Attrs)...)
	}
	if len(rec.Events) > 0 {
		b = append(b, ",\"events\":["...)
		for i, ev := range rec.Events {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, fmt.Sprintf("{\"t_ns\":%d,\"name\":%s,\"detail\":%s}",
				ev.T.Nanoseconds(), jstr(ev.Name), jstr(ev.Detail))...)
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// WriteJSONL writes recs one JSON object per line, in order: the
// spans.jsonl format, which ReadJSONL reads back.
func WriteJSONL(w io.Writer, recs []SpanRecord) error {
	var b []byte
	for _, rec := range recs {
		b = rec.appendJSONL(b[:0])
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

// ReadJSONL reads a spans.jsonl file back into its records: what
// WriteJSONL wrote, each record's attributes sorted by key.
func ReadJSONL(r io.Reader) ([]SpanRecord, error) {
	var recs []SpanRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var raw struct {
			SpanRecord
			Attrs map[string]string
		}
		if len(sc.Bytes()) == 0 {
			return nil, fmt.Errorf("line %d is empty", line)
		}
		if err := json.Unmarshal(sc.Bytes(), &raw); err != nil {
			return nil, fmt.Errorf("line %d: not a span record: %w", line, err)
		}
		for _, k := range sortedKeys(raw.Attrs) {
			raw.SpanRecord.Attrs = append(raw.SpanRecord.Attrs, Attr{Key: k, Value: raw.Attrs[k]})
		}
		recs = append(recs, raw.SpanRecord)
	}
	return recs, sc.Err()
}

// Artifact is one file of an artifact directory: its name and the
// exporter that writes it.
type Artifact struct {
	Name  string
	Write func(io.Writer) error
}

// WriteArtifacts writes a run's span records and metrics into dir as the
// four files every command's artifact directory holds: trace.json
// (WriteChromeTrace), spans.jsonl (WriteJSONL), metrics.json
// (WriteMetricsJSON) and metrics.prom (WritePrometheus). It then audits
// recs as one complete run (auditRun): a violation is returned as an
// hterr.InvariantViolated error naming the first one, after all four
// files are written, so the evidence stays on disk.
func WriteArtifacts(dir string, recs []SpanRecord, reg *Registry, report io.Writer) error {
	if err := WriteFiles(dir, report,
		Artifact{"trace.json", func(w io.Writer) error { return WriteChromeTrace(w, recs) }},
		Artifact{"spans.jsonl", func(w io.Writer) error { return WriteJSONL(w, recs) }},
		Artifact{"metrics.json", reg.WriteMetricsJSON},
		Artifact{"metrics.prom", func(w io.Writer) error { return reg.WritePrometheus(w, false) }}); err != nil {
		return err
	}
	return auditRun(recs)
}

// auditRun checks the records of one complete run. Beyond AuditRecords,
// which also accepts a flight recorder's window, a complete run has at
// least one record, names every span, repeats no span id, has its roots
// at depth 0 and holds the parent of every record it holds.
func auditRun(recs []SpanRecord) error {
	if len(recs) == 0 {
		return hterr.InvariantViolated(errors.New("obs: no span records"))
	}
	var vs []SpanViolation
	ids := make(map[int]bool, len(recs))
	for _, rec := range recs {
		switch {
		case rec.Name == "":
			vs = append(vs, SpanViolation{Kind: "unnamed", Detail: fmt.Sprintf("span id %d has no name", rec.ID)})
		case ids[rec.ID]:
			vs = append(vs, SpanViolation{Kind: "duplicate-id", Span: rec.Name, Detail: fmt.Sprintf("span id %d repeats", rec.ID)})
		case rec.Parent == -1 && rec.Depth != 0:
			vs = append(vs, SpanViolation{Kind: "root-depth", Span: rec.Name, Detail: fmt.Sprintf("root at depth %d", rec.Depth)})
		}
		ids[rec.ID] = true
	}
	for _, rec := range recs {
		if rec.Parent != -1 && !ids[rec.Parent] {
			vs = append(vs, SpanViolation{Kind: "orphan", Span: rec.Name, Detail: fmt.Sprintf("parent id %d is not in the run", rec.Parent)})
		}
	}
	vs = append(vs, AuditRecords(recs)...)
	if len(vs) > 0 {
		return hterr.InvariantViolated(fmt.Errorf("obs: %d span violations in %d records, first: %v", len(vs), len(recs), vs[0]))
	}
	return nil
}

// WriteFiles writes each artifact into dir, creating it if needed, and
// names each file written on report, in order, as
// "artifact: wrote <path>".
func WriteFiles(dir string, report io.Writer, files ...Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, a := range files {
		path := filepath.Join(dir, a.Name)
		if err := writeFile(path, a.Write); err != nil {
			return err
		}
		fmt.Fprintf(report, "artifact: wrote %s\n", path)
	}
	return nil
}

// writeFile creates path and streams write's output into it.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := write(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// WriteMetricsJSON writes the registry as a JSON document with
// instruments sorted by name.
func (r *Registry) WriteMetricsJSON(w io.Writer) error {
	if r == nil {
		_, err := io.WriteString(w, "{\"counters\":[],\"gauges\":[],\"histograms\":[]}\n")
		return err
	}
	r.mu.Lock()
	counts, gauges, hists := r.counts, r.gauges, r.hists
	r.mu.Unlock()

	var b []byte
	b = append(b, "{\"counters\":["...)
	firstItem := true
	sep := func() {
		if !firstItem {
			b = append(b, ',')
		}
		firstItem = false
	}
	for _, name := range sortedKeys(counts) {
		c := counts[name]
		sep()
		b = append(b, fmt.Sprintf("{\"name\":%s,\"unit\":%s,\"value\":%d}",
			jstr(c.name), jstr(c.unit), c.Value())...)
	}
	b = append(b, "],\"gauges\":["...)
	firstItem = true
	for _, name := range sortedKeys(gauges) {
		g := gauges[name]
		sep()
		b = append(b, fmt.Sprintf("{\"name\":%s,\"unit\":%s,\"value\":%d,\"max\":%d}",
			jstr(g.name), jstr(g.unit), g.Value(), g.Max())...)
	}
	b = append(b, "],\"histograms\":["...)
	firstItem = true
	for _, name := range sortedKeys(hists) {
		h := hists[name]
		sep()
		sum := h.Summary()
		h.mu.Lock()
		b = append(b, fmt.Sprintf(
			"{\"name\":%s,\"unit\":%s,\"count\":%d,\"sum\":%g,\"p50\":%g,\"p95\":%g,\"p99\":%g,\"max\":%g,\"buckets\":[",
			jstr(h.name), jstr(h.unit), h.count, h.sum, sum.P50, sum.P95, sum.P99, sum.Max)...)
		for i, bound := range h.bounds {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, fmt.Sprintf("{\"le\":%g,\"count\":%d}", bound, h.counts[i])...)
		}
		if len(h.bounds) > 0 {
			b = append(b, ',')
		}
		b = append(b, fmt.Sprintf("{\"le\":\"+inf\",\"count\":%d}]}", h.counts[len(h.bounds)])...)
		h.mu.Unlock()
	}
	b = append(b, "]}\n"...)
	_, err := w.Write(b)
	return err
}
