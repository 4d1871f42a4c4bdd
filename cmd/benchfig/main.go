// Command benchfig regenerates every table and figure of the paper's
// evaluation in one run, printing the rendered tables and plots plus the
// headline comparisons recorded in EXPERIMENTS.md.
//
// Usage:
//
//	benchfig           # everything
//	benchfig -only fig6,table4,fig13
//	benchfig -workers 8
//
// An -only name that selects no section exits 2 with the valid names.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"hypertp/internal/experiments"
	"hypertp/internal/obs"
	"hypertp/internal/par"
)

// sections maps selector names to the drivers. Each driver renders into
// the supplied writer so sections can run concurrently and still print in
// a deterministic order.
var sections = []struct {
	name string
	run  func(w io.Writer) error
}{
	{"table1", func(w io.Writer) error {
		db, tab := experiments.Table1()
		fmt.Fprintln(w, tab.Render())
		_, win := experiments.Section22Windows()
		fmt.Fprintln(w, win.Render())
		common := &obs.Table{
			Title:   "Common vulnerabilities between Xen and KVM (2013-2019)",
			Headers: []string{"CVE", "Year", "CVSS", "Category", "Description"},
		}
		for _, r := range db.CommonVulnerabilities() {
			desc := r.Description
			if len(desc) > 60 {
				desc = desc[:57] + "..."
			}
			common.AddRow(r.ID, fmt.Sprint(r.Year), fmt.Sprintf("%.1f", r.CVSS), string(r.Category), desc)
		}
		fmt.Fprintln(w, common.Render())
		return nil
	}},
	{"table2", func(w io.Writer) error {
		fmt.Fprintln(w, experiments.Table2().Render())
		return nil
	}},
	{"fig6", func(w io.Writer) error {
		_, tab, err := experiments.Figure6()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"fig7", func(w io.Writer) error {
		_, tabs, err := experiments.Figure7()
		return printTabs(w, tabs, err)
	}},
	{"fig8", func(w io.Writer) error {
		_, tabs, err := experiments.Figure8()
		return printTabs(w, tabs, err)
	}},
	{"fig9", func(w io.Writer) error {
		_, tabs, err := experiments.Figure9()
		return printTabs(w, tabs, err)
	}},
	{"fig10", func(w io.Writer) error {
		_, tabs, err := experiments.Figure10()
		return printTabs(w, tabs, err)
	}},
	{"table4", func(w io.Writer) error {
		_, tab, err := experiments.Table4()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"fig11", func(w io.Writer) error {
		_, render, err := experiments.Figure11()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render)
		return nil
	}},
	{"fig12", func(w io.Writer) error {
		_, render, err := experiments.Figure12()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, render)
		return nil
	}},
	{"table5", func(w io.Writer) error {
		_, _, tab, err := experiments.Table5()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"table6", func(w io.Writer) error {
		_, tab, err := experiments.Table6()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"fig13", func(w io.Writer) error {
		_, tab, err := experiments.Figure13()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"fig14", func(w io.Writer) error {
		_, tabs, err := experiments.Figure14()
		return printTabs(w, tabs, err)
	}},
	{"directions", func(w io.Writer) error {
		_, tab, err := experiments.DirectionsMatrix()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"decisions", func(w io.Writer) error {
		fmt.Fprintln(w, "Transplant decision policy (Xen datacenter):")
		for _, d := range experiments.Decisions() {
			target := d.Target
			if target == "" {
				target = "-"
			}
			fmt.Fprintf(w, "  %-15s pool=%d transplant=%-5v target=%s\n",
				d.CVE, d.Pool, d.Transplant, target)
		}
		fmt.Fprintln(w)
		return nil
	}},
	{"groupsize", func(w io.Writer) error {
		_, tab, err := experiments.GroupSizeSweep()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"ablation", func(w io.Writer) error {
		_, tab, err := experiments.Ablation()
		if err != nil {
			return err
		}
		fmt.Fprintln(w, tab.Render())
		return nil
	}},
	{"tcb", func(w io.Writer) error {
		fmt.Fprintln(w, experiments.TCB().Render())
		return nil
	}},
}

func printTabs(w io.Writer, tabs []*obs.Table, err error) error {
	if err != nil {
		return err
	}
	for _, tab := range tabs {
		fmt.Fprintln(w, tab.Render())
	}
	return nil
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchfig", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("only", "", "comma-separated subset (e.g. fig6,table4); empty = all")
	workers := fs.Int("workers", 0, "host worker pool size for wall-clock parallelism (0 = GOMAXPROCS)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	par.SetWorkers(*workers)

	want := map[string]bool{}
	if *only != "" {
		for _, s := range strings.Split(*only, ",") {
			if s = strings.TrimSpace(s); s != "" {
				want[s] = true
			}
		}
	}
	all := len(want) == 0
	var selected []int
	var names []string
	for i, sec := range sections {
		names = append(names, sec.name)
		if all || want[sec.name] {
			delete(want, sec.name)
			selected = append(selected, i)
		}
	}
	if len(want) > 0 {
		var unknown []string
		for name := range want {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		fmt.Fprintf(stderr, "benchfig: unknown -only section %s; valid: %s\n",
			strings.Join(unknown, ", "), strings.Join(names, ","))
		return 2
	}

	// Render every selected section into its own buffer on the worker
	// pool, then print the buffers in section order — the output is
	// byte-identical to a sequential run for any worker count. Errors
	// surface in section order (lowest index wins), matching the first
	// error a sequential run would report.
	bufs, err := par.Map(selected, func(_ int, idx int) (*bytes.Buffer, error) {
		var buf bytes.Buffer
		fmt.Fprintf(&buf, "==== %s ====\n\n", sections[idx].name)
		if err := sections[idx].run(&buf); err != nil {
			return nil, fmt.Errorf("%s: %w", sections[idx].name, err)
		}
		return &buf, nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "benchfig: %v\n", err)
		return 1
	}
	for _, buf := range bufs {
		stdout.Write(buf.Bytes())
	}
	return 0
}
