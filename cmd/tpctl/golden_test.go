package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"hypertp/internal/fuzzseed"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGolden pins tpctl's output byte for byte: each row's stdout and
// every file it writes, against testdata/golden/<row>/. After an
// intended output change, regenerate with:
//
//	go test ./cmd/tpctl/ -run TestGolden -update-golden
//
// goldenRows are the pinned invocations, each with its golden directory
// testdata/golden/<name>/.
var goldenRows = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"crash-idle", []string{"-crash-at", "idle"}},
	{"crash-hang", []string{"-crash-at", "hang"}},
	{"crash-transplant", []string{"-crash-at", "transplant"}},
	{"verbose", []string{"-v"}},
	{"vms4-verbose", []string{"-vms", "4", "-v"}},
	{"migration", []string{"-mode", "migration"}},
	{"exports", []string{"-vms", "4", "-artifact-dir", "."}},
}

func TestGolden(t *testing.T) {
	for _, row := range goldenRows {
		t.Run(row.name, func(t *testing.T) {
			fuzzseed.Golden(t, filepath.Join("testdata", "golden", row.name), *updateGolden, func(stdout io.Writer) {
				cfg, err := parseArgs(row.args, io.Discard)
				if err == nil {
					err = run(stdout, cfg)
				}
				if err != nil {
					t.Fatalf("%v: %v", row.args, err)
				}
			})
		})
	}
}
