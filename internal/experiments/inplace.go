package experiments

import (
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/par"
)

// Fig6Row is one machine's InPlaceTP breakdown (single 1 vCPU / 1 GB VM).
type Fig6Row struct {
	Machine string
	Report  *core.InPlaceReport
}

// Figure6 reproduces Fig. 6: the InPlaceTP time breakdown for Xen→KVM on
// M1 and M2 with a single idle 1 vCPU / 1 GB VM.
func Figure6() ([]Fig6Row, *obs.Table, error) {
	var rows []Fig6Row
	tab := &obs.Table{
		Title: "Figure 6: InPlaceTP Xen→KVM time breakdown, single 1 vCPU / 1 GB VM (seconds)",
		Headers: []string{"Machine", "PRAM", "Translation", "Reboot", "Restoration",
			"Downtime", "Total", "Network"},
	}
	for _, p := range []*hw.Profile{hw.M1(), hw.M2()} {
		rep, err := runInPlace(p, hv.KindXen, hv.KindKVM, 1, 1, GiBytes(1))
		if err != nil {
			return nil, nil, err
		}
		rows = append(rows, Fig6Row{Machine: p.Name, Report: rep})
		tab.AddRow(p.Name, secs(rep.PRAM), secs(rep.Translation), secs(rep.Reboot),
			secs(rep.Restoration), secs(rep.Downtime), secs(rep.Total), secs(rep.Network))
	}
	return rows, tab, nil
}

// SweepDim labels a Fig. 7/10 sweep dimension.
type SweepDim string

// The three sweep dimensions of Figs. 7-10.
const (
	SweepVCPUs  SweepDim = "vcpus"
	SweepMemory SweepDim = "memory-gib"
	SweepVMs    SweepDim = "num-vms"
)

// sweepValues are the paper's x-axis points.
var sweepValues = map[SweepDim][]int{
	SweepVCPUs:  {1, 2, 4, 6, 8, 10},
	SweepMemory: {2, 4, 6, 8, 10, 12},
	SweepVMs:    {2, 4, 6, 8, 10, 12},
}

// SweepPoint is one x-axis point of an InPlaceTP scalability sweep.
type SweepPoint struct {
	X      int
	Report *core.InPlaceReport
}

// Sweep is one (machine, dimension) panel of Fig. 7 or Fig. 10.
type Sweep struct {
	Machine string
	Dim     SweepDim
	Points  []SweepPoint
}

// runSweeps executes the full 2-machine x 3-dimension grid for the given
// transplant direction. Every sweep point runs on its own testbed with its
// own virtual clock, so the grid is flattened and fanned out on the par
// worker pool, then reassembled in grid order — the resulting reports are
// identical to a sequential run for any worker count.
func runSweeps(from, to hv.Kind) ([]Sweep, error) {
	profiles := []*hw.Profile{hw.M1(), hw.M2()}
	dims := []SweepDim{SweepVCPUs, SweepMemory, SweepVMs}
	type job struct {
		profile *hw.Profile
		dim     SweepDim
		x       int
	}
	var jobs []job
	for _, p := range profiles {
		for _, dim := range dims {
			for _, x := range sweepValues[dim] {
				jobs = append(jobs, job{p, dim, x})
			}
		}
	}
	reports, err := par.Map(jobs, func(_ int, j job) (*core.InPlaceReport, error) {
		n, vcpus, mem := 1, 1, GiBytes(1)
		switch j.dim {
		case SweepVCPUs:
			vcpus = j.x
		case SweepMemory:
			mem = GiBytes(j.x)
		case SweepVMs:
			n = j.x
		}
		rep, err := runInPlace(j.profile, from, to, n, vcpus, mem)
		if err != nil {
			return nil, fmt.Errorf("%s/%s x=%d: %w", j.profile.Name, j.dim, j.x, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, err
	}
	var out []Sweep
	i := 0
	for _, p := range profiles {
		for _, dim := range dims {
			sw := Sweep{Machine: p.Name, Dim: dim}
			for _, x := range sweepValues[dim] {
				sw.Points = append(sw.Points, SweepPoint{X: x, Report: reports[i]})
				i++
			}
			out = append(out, sw)
		}
	}
	return out, nil
}

// Figure7 reproduces Fig. 7: InPlaceTP Xen→KVM scalability across vCPUs,
// memory size and VM count on M1 and M2.
func Figure7() ([]Sweep, []*obs.Table, error) {
	sweeps, err := runSweeps(hv.KindXen, hv.KindKVM)
	if err != nil {
		return nil, nil, err
	}
	return sweeps, renderSweeps("Figure 7: InPlaceTP Xen→KVM scalability", sweeps), nil
}

// Figure10 reproduces Fig. 10: InPlaceTP KVM→Xen scalability (dominated
// by Xen's two-kernel boot).
func Figure10() ([]Sweep, []*obs.Table, error) {
	sweeps, err := runSweeps(hv.KindKVM, hv.KindXen)
	if err != nil {
		return nil, nil, err
	}
	return sweeps, renderSweeps("Figure 10: InPlaceTP KVM→Xen scalability", sweeps), nil
}

func renderSweeps(title string, sweeps []Sweep) []*obs.Table {
	var tabs []*obs.Table
	for _, sw := range sweeps {
		tab := &obs.Table{
			Title: fmt.Sprintf("%s — %s, sweep %s (seconds)", title, sw.Machine, sw.Dim),
			Headers: []string{string(sw.Dim), "PRAM", "Translation", "Reboot",
				"Restoration", "Downtime", "Total"},
		}
		for _, pt := range sw.Points {
			r := pt.Report
			tab.AddRow(fmt.Sprint(pt.X), secs(r.PRAM), secs(r.Translation),
				secs(r.Reboot), secs(r.Restoration), secs(r.Downtime), secs(r.Total))
		}
		tabs = append(tabs, tab)
	}
	return tabs
}

// AblationRow is one §4.2.5 optimization toggled off.
type AblationRow struct {
	Name     string
	Options  core.Options
	Report   *core.InPlaceReport
	Downtime time.Duration
}

// Ablation measures each optimization's contribution on the reference
// workload (M1, 4 VMs of 1 vCPU / 2 GiB).
func Ablation() ([]AblationRow, *obs.Table, error) {
	full := core.DefaultOptions()
	configs := []struct {
		name string
		opts core.Options
	}{
		{"all optimizations (paper config)", full},
		{"no pre-pause preparation", withOpts(full, func(o *core.Options) { o.PrepareBeforePause = false })},
		{"no parallelization", withOpts(full, func(o *core.Options) { o.Parallel = false })},
		{"no huge pages", withOpts(full, func(o *core.Options) { o.HugePages = false })},
		{"no early restoration", withOpts(full, func(o *core.Options) { o.EarlyRestoration = false })},
		{"none (fully de-optimized)", core.Options{}},
	}
	tab := &obs.Table{
		Title:   "Ablation of the §4.2.5 optimizations (M1, 4 VMs x 1 vCPU / 2 GiB, Xen→KVM)",
		Headers: []string{"Configuration", "PRAM", "Downtime", "Total", "PRAM bytes"},
	}
	// Each configuration runs on its own testbed, so the six runs fan out.
	reports, err := par.Map(configs, func(_ int, cfg struct {
		name string
		opts core.Options
	}) (*core.InPlaceReport, error) {
		tb, err := newTestbed(hw.M1(), hv.KindXen, 4, 1, GiBytes(2))
		if err != nil {
			return nil, err
		}
		_, rep, err := tb.engine.InPlace(tb.hyp, hv.KindKVM, cfg.opts)
		return rep, err
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []AblationRow
	for i, cfg := range configs {
		rep := reports[i]
		rows = append(rows, AblationRow{Name: cfg.name, Options: cfg.opts, Report: rep, Downtime: rep.Downtime})
		tab.AddRow(cfg.name, secs(rep.PRAM), secs(rep.Downtime), secs(rep.Total),
			fmt.Sprint(rep.PRAMMetadataBytes))
	}
	return rows, tab, nil
}

func withOpts(base core.Options, mutate func(*core.Options)) core.Options {
	mutate(&base)
	return base
}

// DirectionRow is one (source, target) InPlaceTP direction across the
// three-hypervisor pool.
type DirectionRow struct {
	From, To hv.Kind
	Report   *core.InPlaceReport
}

// DirectionsMatrix runs InPlaceTP in all six directions of the
// {Xen, KVM, NOVA} pool on M1 (single 1 vCPU / 1 GiB VM) — an extension
// beyond the paper's two-hypervisor evaluation showing how the target's
// boot path sets the downtime.
func DirectionsMatrix() ([]DirectionRow, *obs.Table, error) {
	kinds := []hv.Kind{hv.KindXen, hv.KindKVM, hv.KindNOVA}
	tab := &obs.Table{
		Title:   "Transplant directions across the pool (M1, 1 vCPU / 1 GiB, seconds)",
		Headers: []string{"From", "To", "Reboot", "Downtime", "Total"},
	}
	type pair struct{ from, to hv.Kind }
	var pairs []pair
	for _, from := range kinds {
		for _, to := range kinds {
			if from != to {
				pairs = append(pairs, pair{from, to})
			}
		}
	}
	// Independent testbeds per direction — fan out, merge in matrix order.
	reports, err := par.Map(pairs, func(_ int, pr pair) (*core.InPlaceReport, error) {
		rep, err := runInPlace(hw.M1(), pr.from, pr.to, 1, 1, GiBytes(1))
		if err != nil {
			return nil, fmt.Errorf("%v→%v: %w", pr.from, pr.to, err)
		}
		return rep, nil
	})
	if err != nil {
		return nil, nil, err
	}
	var rows []DirectionRow
	for i, pr := range pairs {
		rep := reports[i]
		rows = append(rows, DirectionRow{From: pr.from, To: pr.to, Report: rep})
		tab.AddRow(pr.from.String(), pr.to.String(), secs(rep.Reboot),
			secs(rep.Downtime), secs(rep.Total))
	}
	return rows, tab, nil
}
