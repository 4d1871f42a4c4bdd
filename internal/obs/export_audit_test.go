package obs

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hypertp/internal/hterr"
)

// readLines parses span-record lines, as spans.jsonl holds them.
func readLines(t *testing.T, lines ...string) []SpanRecord {
	t.Helper()
	recs, err := ReadJSONL(strings.NewReader(strings.Join(lines, "\n") + "\n"))
	if err != nil {
		t.Fatal(err)
	}
	return recs
}

// migrationLines are tpctl -mode migration's spans. The transfers (ids 4
// and 6) hang off the root but open while the migration's rounds (ids
// 3, 5 and 7) run, so a depth-first export lists them last: a nephew
// before its uncle.
var migrationLines = []string{
	`{"id":0,"parent":-1,"depth":0,"name":"migration-tp","track":"","start_ns":0,"end_ns":8594474360}`,
	`{"id":1,"parent":0,"depth":1,"name":"migration","track":"migration","start_ns":0,"end_ns":8594474360,"attrs":{"vm_id":"1","vm":"vm-00","rounds":"1","bytes_sent":"1073746795","downtime":"4.539768ms"}}`,
	`{"id":2,"parent":1,"depth":2,"name":"attempt","track":"migration","start_ns":0,"end_ns":8594474360,"attrs":{"attempt":"1"}}`,
	`{"id":3,"parent":2,"depth":3,"name":"precopy-round","track":"migration","start_ns":0,"end_ns":8589934592,"attrs":{"round":"1","pages":"262144"}}`,
	`{"id":5,"parent":2,"depth":3,"name":"stop-and-copy","track":"migration","start_ns":8589934592,"end_ns":8594474360,"attrs":{"dirty_pages":"0"}}`,
	`{"id":7,"parent":2,"depth":3,"name":"finalize","track":"migration","start_ns":8589974360,"end_ns":8594474360,"attrs":{"queued_for":"0s"}}`,
	`{"id":4,"parent":0,"depth":1,"name":"xfer:precopy:vm-00:r1","track":"simnet","start_ns":0,"end_ns":8589934592,"attrs":{"link":"pair","bytes":"1073741824"}}`,
	`{"id":6,"parent":0,"depth":1,"name":"xfer:stopcopy:vm-00","track":"simnet","start_ns":8589934592,"end_ns":8589974360,"attrs":{"link":"pair","bytes":"4971"}}`,
}

// WriteArtifacts audits the records it writes as one complete run. A
// clean set returns nil; a dirty one is written whole, all four files,
// and returns an InvariantViolated error naming its first violation.
func TestWriteArtifactsAudit(t *testing.T) {
	lateTransfer := append([]string(nil), migrationLines...)
	lateTransfer[6] = strings.Replace(lateTransfer[6], `"end_ns":8589934592`, `"end_ns":9994474360`, 1)
	for _, tc := range []struct {
		name  string
		lines []string
		want  string // "" for a clean run, else a substring of the error
	}{
		// The file is audited as one set, not per id-increasing run:
		// splitting it at id 4 would orphan both transfers and skip
		// their checks.
		{"nephew before uncle", migrationLines, ""},
		{"late transfer", lateTransfer, `child-late: span "xfer:precopy:vm-00:r1"`},
		// A second child that starts before the first stays inside its
		// parent, yet virtual time ran backwards.
		{"sibling regress", []string{
			`{"id":0,"parent":-1,"depth":0,"name":"root","start_ns":0,"end_ns":100}`,
			`{"id":1,"parent":0,"depth":1,"name":"first","start_ns":50,"end_ns":60}`,
			`{"id":2,"parent":0,"depth":1,"name":"second","start_ns":10,"end_ns":20}`,
		}, `sibling-regress: span "second"`},
		{"child late", []string{
			`{"id":0,"parent":-1,"depth":0,"name":"root","start_ns":0,"end_ns":100}`,
			`{"id":1,"parent":0,"depth":1,"name":"late","start_ns":90,"end_ns":120}`,
		}, `child-late: span "late"`},
		{"duplicate id", []string{
			`{"id":0,"parent":-1,"depth":0,"name":"a","start_ns":0,"end_ns":10}`,
			`{"id":1,"parent":0,"depth":1,"name":"b","start_ns":0,"end_ns":10}`,
			`{"id":2,"parent":-1,"depth":0,"name":"c","start_ns":10,"end_ns":20}`,
			`{"id":1,"parent":2,"depth":1,"name":"d","start_ns":10,"end_ns":20}`,
		}, `duplicate-id: span "d": span id 1 repeats`},
		{"deep root", []string{`{"id":0,"parent":-1,"depth":2,"name":"a"}`}, `root-depth: span "a": root at depth 2`},
		{"unnamed span", []string{`{"id":0,"parent":-1}`}, "unnamed: span \"\": span id 0 has no name"},
		{"orphan", []string{
			`{"id":0,"parent":-1,"depth":0,"name":"root","start_ns":0,"end_ns":100}`,
			`{"id":4,"parent":3,"depth":2,"name":"orphan","start_ns":0,"end_ns":5}`,
		}, `orphan: span "orphan": parent id 3 is not in the run`},
		{"empty", nil, "obs: no span records"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var recs []SpanRecord
			if tc.lines != nil {
				recs = readLines(t, tc.lines...)
			}
			dir := t.TempDir()
			err := WriteArtifacts(dir, recs, NewRegistry(), &strings.Builder{})
			for _, name := range []string{"trace.json", "spans.jsonl", "metrics.json", "metrics.prom"} {
				if _, statErr := os.Stat(filepath.Join(dir, name)); statErr != nil {
					t.Errorf("%s not written: %v", name, statErr)
				}
			}
			if tc.want == "" {
				if err != nil {
					t.Fatal(err)
				}
				return
			}
			if !errors.Is(err, hterr.ErrInvariantViolated) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want an invariant violation naming %q", err, tc.want)
			}
		})
	}
}

// A flight recorder's ring evicts spans whatever their parents, so
// AuditRecords tolerates a record whose parent is absent, and still
// checks it for a negative duration; only a complete run rejects it.
func TestAuditRecordsToleratesOrphans(t *testing.T) {
	recs := readLines(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"first","start_ns":10,"end_ns":20}`,
		`{"id":2,"parent":0,"depth":1,"name":"second","start_ns":50,"end_ns":60}`,
		`{"id":4,"parent":3,"depth":2,"name":"orphan","start_ns":0,"end_ns":5}`,
		`{"id":5,"parent":-1,"depth":0,"name":"next-root","start_ns":100,"end_ns":200}`,
	)
	if vs := AuditRecords(recs); len(vs) > 0 {
		t.Fatalf("violations %v: an orphan is not one", vs)
	}
	recs[3].End = -1
	if vs := AuditRecords(recs); len(vs) != 1 || vs[0].Kind != "negative-duration" {
		t.Fatalf("violations %v, want the orphan's negative duration", vs)
	}
}

// ReadJSONL names the line it cannot read.
func TestReadJSONLRejects(t *testing.T) {
	for _, tc := range []struct{ name, data, want string }{
		{"empty line", `{"id":0,"parent":-1,"name":"a"}` + "\n\n", "line 2 is empty"},
		{"malformed line", "{\"id\":0,\n", "line 1: not a span record"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ReadJSONL(strings.NewReader(tc.data)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}
