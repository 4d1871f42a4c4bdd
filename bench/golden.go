package main

import (
	_ "embed"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// The golden digests pin the virtual-time results of every workload at
// the default seed. They are embedded so the check does not depend on the
// working directory.
//
//go:embed testdata/sim_digest.golden
var goldenFile string

// goldenDigests maps "<workload>/<scale>" to its digest.
func goldenDigests() map[string]string { return parseGolden(goldenFile) }

func parseGolden(text string) map[string]string {
	out := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			out[f[0]] = f[1]
		}
	}
	return out
}

// updateGolden merges the given digests into the golden file on disk
// (not the embedded copy: each child of one -update-golden run adds its own).
func updateGolden(digests map[string]string) error {
	path := filepath.Join(benchDir(), "testdata", "sim_digest.golden")
	onDisk, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	all := parseGolden(string(onDisk))
	for k, v := range digests {
		all[k] = v
	}
	keys := make([]string, 0, len(all))
	for k := range all {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("# sim_digest per workload/scale at seed 20210426; rewrite with -update-golden\n")
	for _, k := range keys {
		fmt.Fprintf(&b, "%s %s\n", k, all[k])
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
