package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeJSONL writes span-record lines to a temp file and returns its path.
func writeJSONL(t *testing.T, lines ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "spans.jsonl")
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// A second child that starts before the first stays inside its parent,
// which the old containment-only check accepted; the span auditor
// reports it as a sibling regression.
func TestCheckJSONLSiblingRegress(t *testing.T) {
	path := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"first","track":"t","start_ns":50,"end_ns":60}`,
		`{"id":2,"parent":0,"depth":1,"name":"second","track":"t","start_ns":10,"end_ns":20}`,
	)
	err := checkJSONL(path, false)
	if err == nil || !strings.Contains(err.Error(), "sibling-regress") {
		t.Fatalf("err = %v, want a sibling-regress violation", err)
	}
}

// Well-ordered roots pass; a record whose parent was sampled away or
// evicted is tolerated.
func TestCheckJSONLWellFormed(t *testing.T) {
	path := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"first","track":"t","start_ns":10,"end_ns":20}`,
		`{"id":2,"parent":0,"depth":1,"name":"second","track":"t","start_ns":50,"end_ns":60}`,
		`{"id":4,"parent":3,"depth":2,"name":"orphan","track":"t","start_ns":0,"end_ns":5}`,
		`{"id":0,"parent":-1,"depth":0,"name":"next-root","track":"t","start_ns":100,"end_ns":200}`,
	)
	if err := checkJSONL(path, false); err != nil {
		t.Fatal(err)
	}
	bad := writeJSONL(t,
		`{"id":0,"parent":-1,"depth":0,"name":"root","track":"t","start_ns":0,"end_ns":100}`,
		`{"id":1,"parent":0,"depth":1,"name":"late","track":"t","start_ns":90,"end_ns":120}`,
	)
	if err := checkJSONL(bad, false); err == nil || !strings.Contains(err.Error(), "child-late") {
		t.Fatalf("err = %v, want a child-late violation", err)
	}
}
