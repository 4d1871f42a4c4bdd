package fuzzseed

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// Golden runs exec in a fresh working directory and compares what it
// prints, and every file it leaves there, with the goldens in dir: the
// printed bytes with dir/stdout, each written file with the golden of
// the same name. A file written or missing beyond the goldens fails as
// well as a changed one. With update set, Golden rewrites dir from this
// run instead of comparing. It changes the process's working directory
// until the test ends, so its test must not run in parallel.
func Golden(tb testing.TB, dir string, update bool, exec func(stdout io.Writer)) {
	tb.Helper()
	dir, err := filepath.Abs(dir)
	if err != nil {
		tb.Fatal(err)
	}
	work := tb.TempDir()
	back, err := os.Getwd()
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.Chdir(work); err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() {
		if err := os.Chdir(back); err != nil {
			tb.Errorf("restoring the working directory: %v", err)
		}
	})
	var stdout bytes.Buffer
	exec(&stdout)
	got, err := readFiles(work)
	if err != nil {
		tb.Fatal(err)
	}
	got["stdout"] = stdout.Bytes()
	if update {
		if err := os.RemoveAll(dir); err != nil {
			tb.Fatal(err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			tb.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				tb.Fatal(err)
			}
		}
		return
	}
	want, err := readFiles(dir)
	if err != nil {
		tb.Fatalf("%v (run with -update-golden to create)", err)
	}
	names := make([]string, 0, len(want)+len(got))
	for name := range want {
		names = append(names, name)
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		path := filepath.Join(filepath.Base(dir), name)
		w, inWant := want[name]
		g, inGot := got[name]
		switch {
		case !inWant:
			tb.Errorf("%s: written but has no golden; if intended, rerun with -update-golden", path)
		case !inGot:
			tb.Errorf("%s: has a golden but was not written", path)
		case !bytes.Equal(w, g):
			tb.Errorf("%s: %s; if the change is intended, rerun with -update-golden", path, diffLines(w, g))
		}
	}
}

// readFiles returns the contents of every file in dir by name.
func readFiles(dir string) (map[string][]byte, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		files[e.Name()] = data
	}
	return files, nil
}

// diffLines names the first line where got departs from want.
func diffLines(want, got []byte) string {
	w, g := strings.SplitAfter(string(want), "\n"), strings.SplitAfter(string(got), "\n")
	for i := 0; ; i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("differs at line %d:\n want %q\n  got %q", i+1, wl, gl)
		}
	}
}

// readmeFlag matches a backquoted flag token in a README table row: the
// flag name right after the opening backquote, ended by the closing one
// or by a space before its argument ("`-workers N`"). Globs such as
// "`-no-*`" do not match.
var readmeFlag = regexp.MustCompile("`(-[a-z][a-z0-9-]*)[` ]")

// CheckREADMEFlags fails tb unless every flag that readme's command-line
// table names for cmd — each backquoted -flag token in the row of
// `go run ./cmd/<cmd>` — is one the command defines: parse, given the
// flag alone as its command line, must not report it undefined on
// stderr. The table cannot then keep naming a flag the command dropped.
func CheckREADMEFlags(tb testing.TB, readme, cmd string, parse func(args []string, stderr io.Writer)) {
	tb.Helper()
	data, err := os.ReadFile(readme)
	if err != nil {
		tb.Fatal(err)
	}
	prefix := "| `go run ./cmd/" + cmd + "` |"
	var row string
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, prefix) {
			row = line
		}
	}
	flags := readmeFlag.FindAllStringSubmatch(row, -1)
	if len(flags) == 0 {
		tb.Fatalf("%s: no table row %q naming a flag", readme, prefix)
	}
	for _, m := range flags {
		var stderr strings.Builder
		parse([]string{m[1]}, &stderr)
		if strings.Contains(stderr.String(), "flag provided but not defined") {
			tb.Errorf("%s names %s for %s, which does not define it", readme, m[1], cmd)
		}
	}
}
