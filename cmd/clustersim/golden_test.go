package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"hypertp/internal/fuzzseed"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// goldenRows are the pinned invocations, each with its golden directory
// testdata/golden/<name>/.
var goldenRows = []struct {
	name string
	args []string
}{
	{"default", nil},
	{"group2-streams4-kexecs4", []string{"-group", "2", "-streams", "4", "-kexecs", "4"}},
	{"fault-seed7-rate0.2", []string{"-fault-seed", "7", "-fault-rate", "0.2"}},
	{"fleet", []string{"-fleet"}},
	{"fleet-crash0.25", []string{"-fleet", "-crash-rate", "0.25"}},
	{"fleet-prom", []string{"-fleet", "-hosts", "20", "-fleet-vms", "40", "-artifact-dir", "."}},
	{"exports", []string{"-artifact-dir", "."}},
}

// TestGolden pins clustersim's output byte for byte: each row's stdout
// and every file it writes, against testdata/golden/<row>/, at -workers
// 1 and 4 against the same golden. After an intended output change,
// regenerate with:
//
//	go test ./cmd/clustersim/ -run TestGolden -update-golden
func TestGolden(t *testing.T) {
	for _, row := range goldenRows {
		for i, workers := range []string{"1", "4"} {
			t.Run(row.name+"/workers="+workers, func(t *testing.T) {
				dir := filepath.Join("testdata", "golden", row.name)
				fuzzseed.Golden(t, dir, *updateGolden && i == 0, func(stdout io.Writer) {
					args := append([]string{"-workers", workers}, row.args...)
					o, err := parseArgs(args, io.Discard)
					if err == nil {
						err = dispatch(stdout, o)
					}
					if err != nil {
						t.Fatalf("%v: %v", args, err)
					}
				})
			})
		}
	}
}
