// Package fuzzseed keeps the repo's generated test fixtures in lockstep
// with the code that generates them: the checked-in seed corpora of the
// fuzz targets (Check) and the golden outputs of the commands (Golden).
//
// Each fuzz target's seeds live under the owning package's
// testdata/fuzz/<Target>/ directory in the standard Go fuzzing v1
// encoding, so `go test` exercises them on every plain run and `go test
// -fuzz` starts from a meaningful corpus instead of an empty one. The
// corpora are generated — the seeds derive from the packages' own
// encoders — so a TestFuzzSeedCorpus in each package calls Check to
// fail loudly when an encoder change makes the checked-in files stale;
// `make fuzz-seeds` regenerates them.
package fuzzseed

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// WriteEnv is the environment variable that switches Check from
// verifying the corpus to rewriting it (the `make fuzz-seeds` mode).
const WriteEnv = "HYPERTP_WRITE_FUZZ_SEEDS"

// File renders one []byte seed in the Go fuzzing v1 corpus encoding.
func File(data []byte) []byte {
	return []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
}

// Check verifies (or, with WriteEnv set, rewrites) the seed corpus for
// the named fuzz target under testdata/fuzz/<target>/. The seeds must
// be the exact list the fuzz target passes to f.Add, in order.
func Check(tb testing.TB, target string, seeds ...[]byte) {
	tb.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	write := os.Getenv(WriteEnv) != ""
	if write {
		if err := os.RemoveAll(dir); err != nil {
			tb.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
	}
	expected := make(map[string]bool, len(seeds))
	for i, seed := range seeds {
		name := fmt.Sprintf("seed-%02d", i)
		expected[name] = true
		path := filepath.Join(dir, name)
		want := File(seed)
		if write {
			if err := os.WriteFile(path, want, 0o644); err != nil {
				tb.Fatal(err)
			}
			continue
		}
		got, err := os.ReadFile(path)
		if err != nil {
			tb.Fatalf("fuzz seed corpus missing (run `make fuzz-seeds` and commit): %v", err)
		}
		if !bytes.Equal(got, want) {
			tb.Fatalf("fuzz seed corpus stale: %s no longer matches the target's f.Add seeds (run `make fuzz-seeds` and commit)", path)
		}
	}
	if write {
		tb.Logf("wrote %d seeds to %s", len(seeds), dir)
		return
	}
	// Verify mode also rejects leftover seed-NN files from a longer past
	// seed list — a shrunk f.Add list must shrink the corpus with it.
	// Only the seed-NN namespace is policed: crashers minimized by
	// `go test -fuzz` land in the same directory under hash names and
	// are deliberately left alone.
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // missing dir already failed above when seeds exist
	}
	for _, e := range entries {
		if name := e.Name(); strings.HasPrefix(name, "seed-") && !expected[name] {
			tb.Fatalf("fuzz seed corpus has stale extra file %s (run `make fuzz-seeds` and commit)",
				filepath.Join(dir, name))
		}
	}
}

// CheckAllocs runs parse over seeds — a target's f.Add list, which Check
// holds to the checked-in corpus — under testing.AllocsPerRun, and fails
// when a seed costs more than base allocations plus perKiB per KiB of
// input. A parser that sizes
// storage from a count in its input, not from the bytes carrying it,
// fails here. Base leaves four allocations for a reject's error text:
// the race detector randomly empties fmt's buffer pool.
func CheckAllocs(tb testing.TB, seeds [][]byte, base, perKiB float64, parse func([]byte)) {
	tb.Helper()
	for i, data := range seeds {
		budget := base + perKiB*float64(len(data))/1024
		if n := testing.AllocsPerRun(10, func() { parse(data) }); n > budget {
			tb.Errorf("seed-%02d: %v allocations for %d bytes, budget %.1f", i, n, len(data), budget)
		}
	}
}
