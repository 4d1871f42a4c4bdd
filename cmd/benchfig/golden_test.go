package main

import (
	"flag"
	"io"
	"path/filepath"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/par"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// TestGolden pins benchfig's output byte for byte, one golden per
// section under testdata/golden/<section>/, at -workers 1 and 4 against
// the same golden. Sections run independently and print in table order,
// so together the rows pin the full run. After an intended output
// change, regenerate with:
//
//	go test ./cmd/benchfig/ -run TestGolden -update-golden
func TestGolden(t *testing.T) {
	defer par.SetWorkers(0)
	for _, sec := range sections {
		for i, workers := range []string{"1", "4"} {
			t.Run(sec.name+"/workers="+workers, func(t *testing.T) {
				dir := filepath.Join("testdata", "golden", sec.name)
				fuzzseed.Golden(t, dir, *updateGolden && i == 0, func(stdout io.Writer) {
					if code := run([]string{"-only", sec.name, "-workers", workers}, stdout, io.Discard); code != 0 {
						t.Fatalf("-only %s: exit %d", sec.name, code)
					}
				})
			})
		}
	}
}
