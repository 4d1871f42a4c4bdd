package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hterr"
	"hypertp/internal/par"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGolden pins chaoscheck's output byte for byte: each row's stdout
// and every file it writes (bundles, violation artifacts), against
// testdata/golden/<row>/, at -workers 1 and 4 against the same golden.
// After an intended output change, regenerate with:
//
//	go test ./cmd/chaoscheck/ -run TestGolden -update-golden
func TestGolden(t *testing.T) {
	defer par.SetWorkers(0)
	for _, row := range []struct {
		name string
		args []string
		code int
	}{
		{"seed3-ops300", []string{"-seed", "3", "-ops", "300"}, 0},
		{"seed3-ops300-crash", []string{"-seed", "3", "-ops", "300", "-crash"}, 0},
		{"break-leak-frame", []string{"-seed", "3", "-ops", "300", "-break", "leak-frame", "-bundle-out", "bundle.json"}, 2},
		{"record-out", []string{"-seed", "3", "-ops", "30", "-record-out", "trace.json"}, 0},
	} {
		for i, workers := range []string{"1", "4"} {
			t.Run(row.name+"/workers="+workers, func(t *testing.T) {
				dir := filepath.Join("testdata", "golden", row.name)
				fuzzseed.Golden(t, dir, *updateGolden && i == 0, func(stdout io.Writer) {
					args := append([]string{"-workers", workers}, row.args...)
					cfg, err := parseArgs(args, io.Discard)
					if err != nil {
						t.Fatalf("%v: %v", args, err)
					}
					par.SetWorkers(cfg.Workers)
					err = run(stdout, io.Discard, cfg)
					if code := hterr.Exit(io.Discard, "chaoscheck", err); code != row.code {
						t.Fatalf("%v: exit %d (%v), want %d", args, code, err, row.code)
					}
				})
			})
		}
	}
}
