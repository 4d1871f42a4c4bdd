package fuzzseed

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// fatalRecorder captures Fatal/Fatalf instead of aborting, and Errorf
// messages, so the Check and Golden failure paths are testable.
type fatalRecorder struct {
	testing.TB
	failed bool
	msg    string
	errs   []string
}

func (r *fatalRecorder) Helper() {}
func (r *fatalRecorder) Fatal(args ...any) {
	r.failed = true
}
func (r *fatalRecorder) Fatalf(format string, args ...any) {
	r.failed = true
	r.msg = format
}
func (r *fatalRecorder) Logf(format string, args ...any) {}
func (r *fatalRecorder) Errorf(format string, args ...any) {
	r.errs = append(r.errs, fmt.Sprintf(format, args...))
}

// withCorpusDir runs fn chdir'd into a temp dir so Check's relative
// testdata/fuzz paths land there.
func withCorpusDir(t *testing.T, fn func()) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(old); err != nil {
			t.Fatal(err)
		}
	}()
	fn()
}

func TestCheckWriteThenVerify(t *testing.T) {
	seeds := [][]byte{[]byte("one"), []byte("two")}
	withCorpusDir(t, func() {
		t.Setenv(WriteEnv, "1")
		rec := &fatalRecorder{TB: t}
		Check(rec, "FuzzX", seeds...)
		if rec.failed {
			t.Fatal("write mode failed")
		}

		t.Setenv(WriteEnv, "")
		rec = &fatalRecorder{TB: t}
		Check(rec, "FuzzX", seeds...)
		if rec.failed {
			t.Fatalf("fresh corpus failed verification: %s", rec.msg)
		}
	})
}

func TestCheckRejectsStaleExtraSeed(t *testing.T) {
	seeds := [][]byte{[]byte("one"), []byte("two")}
	withCorpusDir(t, func() {
		t.Setenv(WriteEnv, "1")
		Check(&fatalRecorder{TB: t}, "FuzzX", seeds...)
		t.Setenv(WriteEnv, "")

		// The f.Add list shrank: seed-01 is now a stale leftover.
		rec := &fatalRecorder{TB: t}
		Check(rec, "FuzzX", seeds[:1]...)
		if !rec.failed || !strings.Contains(rec.msg, "stale extra file") {
			t.Fatalf("stale seed-01 not rejected (failed=%v msg=%q)", rec.failed, rec.msg)
		}

		// Crashers minimized by `go test -fuzz` use hash names in the
		// same directory and must be tolerated.
		crasher := filepath.Join("testdata", "fuzz", "FuzzX", "582528ddfad69eb5")
		if err := os.WriteFile(crasher, File([]byte("boom")), 0o644); err != nil {
			t.Fatal(err)
		}
		rec = &fatalRecorder{TB: t}
		Check(rec, "FuzzX", seeds...)
		if rec.failed {
			t.Fatalf("crasher file wrongly rejected: %s", rec.msg)
		}
	})
}

// Golden rewrites a row's goldens under update, then names every file
// that departs from them: a changed line, a written file with no golden,
// and a golden file the run no longer writes.
func TestGoldenUpdateThenVerify(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "row")
	run := func(update bool, stdout, file string) []string {
		rec := &fatalRecorder{TB: t}
		Golden(rec, dir, update, func(w io.Writer) {
			io.WriteString(w, stdout)
			if err := os.WriteFile(file, []byte("export\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		})
		if rec.failed {
			t.Fatalf("Golden failed fatally: %s", rec.msg)
		}
		return rec.errs
	}
	if errs := run(true, "a\nb\n", "x.json"); len(errs) != 0 {
		t.Fatalf("update reported %v", errs)
	}
	if errs := run(false, "a\nb\n", "x.json"); len(errs) != 0 {
		t.Fatalf("unchanged run reported %v", errs)
	}
	for _, tc := range []struct {
		stdout, file string
		want         []string
	}{
		{"a\nc\n", "x.json", []string{`row/stdout: differs at line 2:` + "\n" + ` want "b\n"` + "\n" + `  got "c\n"`}},
		{"a\nb\n", "y.json", []string{"row/x.json: has a golden but was not written", "row/y.json: written but has no golden"}},
	} {
		errs := run(false, tc.stdout, tc.file)
		if len(errs) != len(tc.want) {
			t.Fatalf("%q %s: got %d errors %q, want %d", tc.stdout, tc.file, len(errs), errs, len(tc.want))
		}
		for i, want := range tc.want {
			if !strings.HasPrefix(errs[i], want) {
				t.Errorf("%q %s: error %q, want prefix %q", tc.stdout, tc.file, errs[i], want)
			}
		}
	}
}
