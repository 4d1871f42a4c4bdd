package experiments

import (
	"fmt"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// migRig is a source machine plus two destination machines (one Xen for
// the homogeneous baseline, one KVM for MigrationTP) on a 1 Gbps link —
// the paper's M1 pair.
type migRig struct {
	clock *simtime.Clock
	link  *simnet.Link
	src   hv.Hypervisor
}

func newMigRig() (*migRig, error) {
	clock := simtime.NewClock()
	src, err := xen.Boot(hw.NewMachine(clock, hw.M1()))
	if err != nil {
		return nil, err
	}
	return &migRig{
		clock: clock,
		link:  simnet.NewLink(clock, "m1-pair", simnet.Gbps1, 100*time.Microsecond),
		src:   src,
	}, nil
}

func (r *migRig) receiver(kind hv.Kind, seed uint64) (*migration.Receiver, error) {
	m := hw.NewMachine(r.clock, hw.M1())
	var dest hv.Hypervisor
	var err error
	switch kind {
	case hv.KindXen:
		dest, err = xen.Boot(m)
	default:
		dest, err = kvm.Boot(m)
	}
	if err != nil {
		return nil, err
	}
	return migration.NewReceiver(r.clock, dest, seed), nil
}

// migrateBatch creates n VMs on the source and migrates them concurrently
// to the receiver, returning the per-VM reports.
func (r *migRig) migrateBatch(n, vcpus int, memBytes uint64, recv *migration.Receiver) ([]*migration.Report, error) {
	var ids []hv.VMID
	for i := 0; i < n; i++ {
		vm, err := r.src.CreateVM(hv.Config{
			Name:  fmt.Sprintf("vm-%02d", i),
			VCPUs: vcpus, MemBytes: memBytes, HugePages: true,
			Seed: Seed + uint64(i),
		})
		if err != nil {
			return nil, err
		}
		ids = append(ids, vm.ID)
	}
	reports := make([]*migration.Report, 0, n)
	var firstErr error
	for _, id := range ids {
		migration.Run(r.clock, migration.Params{
			Link: r.link, Source: r.src, Dest: recv, VMID: id,
		}, func(rep *migration.Report, err error) {
			if err != nil && firstErr == nil {
				firstErr = err
			}
			if rep != nil {
				reports = append(reports, rep)
			}
		})
	}
	r.clock.Run()
	if firstErr != nil {
		return nil, firstErr
	}
	return reports, nil
}

// Table4Result holds the Table 4 comparison.
type Table4Result struct {
	XenDowntime, TPDowntime time.Duration
	XenTotal, TPTotal       time.Duration
}

// Table4 reproduces Table 4: downtime and migration time of a
// 1 vCPU / 1 GB VM under homogeneous Xen→Xen migration vs MigrationTP
// (Xen→KVM).
func Table4() (*Table4Result, *obs.Table, error) {
	res := &Table4Result{}
	{
		rig, err := newMigRig()
		if err != nil {
			return nil, nil, err
		}
		recv, err := rig.receiver(hv.KindXen, Seed)
		if err != nil {
			return nil, nil, err
		}
		reps, err := rig.migrateBatch(1, 1, GiBytes(1), recv)
		if err != nil {
			return nil, nil, err
		}
		res.XenDowntime, res.XenTotal = reps[0].Downtime, reps[0].TotalTime
	}
	{
		rig, err := newMigRig()
		if err != nil {
			return nil, nil, err
		}
		recv, err := rig.receiver(hv.KindKVM, Seed)
		if err != nil {
			return nil, nil, err
		}
		reps, err := rig.migrateBatch(1, 1, GiBytes(1), recv)
		if err != nil {
			return nil, nil, err
		}
		res.TPDowntime, res.TPTotal = reps[0].Downtime, reps[0].TotalTime
	}
	tab := &obs.Table{
		Title:   "Table 4: Xen→Xen live migration vs MigrationTP (Xen→KVM), 1 vCPU / 1 GB",
		Headers: []string{"", "Xen to Xen", "MigrationTP (Xen to KVM)"},
	}
	tab.AddRow("Downtime (ms)", ms(res.XenDowntime), ms(res.TPDowntime))
	tab.AddRow("Migration time (s)", secs(res.XenTotal), secs(res.TPTotal))
	return res, tab, nil
}

// MigPoint is one x-axis point of a Fig. 8/9 sweep: the distribution of
// per-VM values for the Xen baseline and MigrationTP.
type MigPoint struct {
	X   int
	Xen obs.BoxStats
	TP  obs.BoxStats
}

// MigSweep is one panel of Fig. 8 or Fig. 9.
type MigSweep struct {
	Dim    SweepDim
	Points []MigPoint
}

// runMigSweeps executes the three sweeps, extracting a per-VM metric.
// Each (dimension, x) point builds its own rigs with its own clocks and
// fixed per-point seeds (Seed + x*10 + i), so points fan out on the par
// worker pool and the results are independent of the worker count.
func runMigSweeps(metric func(*migration.Report) float64) ([]MigSweep, error) {
	dims := []SweepDim{SweepVCPUs, SweepMemory, SweepVMs}
	type job struct {
		dim SweepDim
		x   int
	}
	var jobs []job
	for _, dim := range dims {
		for _, x := range sweepValues[dim] {
			jobs = append(jobs, job{dim, x})
		}
	}
	points, err := par.Map(jobs, func(_ int, j job) (MigPoint, error) {
		n, vcpus, mem := 1, 1, GiBytes(1)
		switch j.dim {
		case SweepVCPUs:
			vcpus = j.x
		case SweepMemory:
			mem = GiBytes(j.x)
		case SweepVMs:
			n = j.x
		}
		pt := MigPoint{X: j.x}
		for i, kind := range []hv.Kind{hv.KindXen, hv.KindKVM} {
			rig, err := newMigRig()
			if err != nil {
				return pt, err
			}
			recv, err := rig.receiver(kind, Seed+uint64(j.x*10+i))
			if err != nil {
				return pt, err
			}
			reps, err := rig.migrateBatch(n, vcpus, mem, recv)
			if err != nil {
				return pt, fmt.Errorf("%s x=%d: %w", j.dim, j.x, err)
			}
			vals := make([]float64, len(reps))
			for jj, rep := range reps {
				vals[jj] = metric(rep)
			}
			if kind == hv.KindXen {
				pt.Xen = obs.Box(vals)
			} else {
				pt.TP = obs.Box(vals)
			}
		}
		return pt, nil
	})
	if err != nil {
		return nil, err
	}
	var out []MigSweep
	i := 0
	for _, dim := range dims {
		sw := MigSweep{Dim: dim}
		for range sweepValues[dim] {
			sw.Points = append(sw.Points, points[i])
			i++
		}
		out = append(out, sw)
	}
	return out, nil
}

// Figure8 reproduces Fig. 8: per-VM downtime (ms) of MigrationTP vs the
// Xen baseline across the three sweeps.
func Figure8() ([]MigSweep, []*obs.Table, error) {
	sweeps, err := runMigSweeps(func(r *migration.Report) float64 {
		return float64(r.Downtime) / float64(time.Millisecond)
	})
	if err != nil {
		return nil, nil, err
	}
	return sweeps, renderMigSweeps("Figure 8: migration downtime (ms)", sweeps), nil
}

// Figure9 reproduces Fig. 9: total migration time (s) across the sweeps.
func Figure9() ([]MigSweep, []*obs.Table, error) {
	sweeps, err := runMigSweeps(func(r *migration.Report) float64 {
		return r.TotalTime.Seconds()
	})
	if err != nil {
		return nil, nil, err
	}
	return sweeps, renderMigSweeps("Figure 9: total migration time (s)", sweeps), nil
}

func renderMigSweeps(title string, sweeps []MigSweep) []*obs.Table {
	var tabs []*obs.Table
	for _, sw := range sweeps {
		tab := &obs.Table{
			Title:   fmt.Sprintf("%s — sweep %s", title, sw.Dim),
			Headers: []string{string(sw.Dim), "Xen med", "Xen min-max", "HyperTP med", "HyperTP min-max"},
		}
		for _, pt := range sw.Points {
			tab.AddRow(fmt.Sprint(pt.X),
				fmt.Sprintf("%.2f", pt.Xen.Median),
				fmt.Sprintf("%.2f-%.2f", pt.Xen.Min, pt.Xen.Max),
				fmt.Sprintf("%.2f", pt.TP.Median),
				fmt.Sprintf("%.2f-%.2f", pt.TP.Min, pt.TP.Max))
		}
		tabs = append(tabs, tab)
	}
	return tabs
}
