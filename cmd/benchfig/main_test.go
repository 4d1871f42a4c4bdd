package main

import (
	"bytes"
	"io"
	"strings"
	"testing"

	"hypertp/internal/fuzzseed"
)

// benchfig runs the command and returns its exit status and output.
func benchfig(args ...string) (int, string, string) {
	var stdout, stderr bytes.Buffer
	code := run(args, &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// A selector that names no section is a usage error that lists the valid
// names, not an empty run.
func TestRunUnknownSectionExits2(t *testing.T) {
	code, stdout, stderr := benchfig("-only", "table1,tabel1")
	if code != 2 || stdout != "" {
		t.Fatalf("exit %d, stdout %q; want 2 and nothing printed", code, stdout)
	}
	for _, want := range []string{"tabel1", "table1,table2,fig6"} {
		if !strings.Contains(stderr, want) {
			t.Errorf("stderr %q does not name %q", stderr, want)
		}
	}
}

// table1 carries the Xen/KVM common-vulnerability table in the rows the
// old standalone report rendered.
func TestRunTable1CommonVulnerabilities(t *testing.T) {
	code, stdout, stderr := benchfig("-only", "table1", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, row := range []string{
		"Common vulnerabilities between Xen and KVM (2013-2019)\n",
		"CVE-2015-3456  2015  7.7   qemu                  VENOM: QEMU virtual floppy disk controller missing bounds...\n",
		"CVE-2015-5307  2015  4.9   hardware-mishandling  DoS via incomplete handling of the Alignment Check except...\n",
		"CVE-2015-8104  2015  4.9   hardware-mishandling  DoS via incomplete handling of the Debug Exception (#DB)    \n",
	} {
		if !strings.Contains(stdout, row) {
			t.Errorf("table1 lacks %q:\n%s", row, stdout)
		}
	}
	if strings.Contains(stdout, "==== table2 ====") {
		t.Error("-only table1 printed other sections")
	}
}

// The output does not depend on the worker-pool width.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	only := "table1,table2,decisions"
	_, one, _ := benchfig("-only", only, "-workers", "1")
	code, four, stderr := benchfig("-only", only, "-workers", "4")
	if code != 0 || one == "" {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if one != four {
		t.Fatalf("-workers 1 and 4 differ:\n%s\nvs\n%s", one, four)
	}
}

// Every flag the README's benchfig row names is one benchfig defines.
func TestREADMEFlagsDefined(t *testing.T) {
	fuzzseed.CheckREADMEFlags(t, "../../README.md", "benchfig", func(args []string, stderr io.Writer) {
		run(args, io.Discard, stderr)
	})
}
