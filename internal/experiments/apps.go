package experiments

import (
	"fmt"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/workload"
)

// appVM is the §5.3 application VM shape: 2 vCPUs / 8 GB on M1.
const (
	appVCPUs  = 2
	appMemGiB = 8
)

// appTransplantTimings derives the phase boundaries the workload
// timelines need: the InPlaceTP network-visible gap and the MigrationTP
// pre-copy window for the 2 vCPU / 8 GB VM.
type appTransplantTimings struct {
	InPlaceGap time.Duration // downtime + NIC reinit (network services)
	MigWindow  time.Duration // pre-copy duration at 1 Gbps
}

func computeAppTimings() (*appTransplantTimings, error) {
	rep, err := runInPlace(hw.M1(), hv.KindXen, hv.KindKVM, 1, appVCPUs, GiBytes(appMemGiB))
	if err != nil {
		return nil, err
	}
	// 8 GB over 1 Gbps plus dirty-page rounds ≈ the paper's 76-78 s.
	transfer := time.Duration(float64(GiBytes(appMemGiB)) / float64(simnetGbps1) * float64(time.Second))
	return &appTransplantTimings{
		InPlaceGap: rep.NetworkDowntime,
		MigWindow:  transfer + 8*time.Second,
	}, nil
}

// simnetGbps1 mirrors simnet.Gbps1 without importing it here.
const simnetGbps1 = 1_000_000_000 / 8

// AppTimelines is the Fig. 11/12 output for one workload: QPS and latency
// series for InPlaceTP and MigrationTP runs plus the Xen/KVM baselines.
type AppTimelines struct {
	Workload string

	InPlaceQPS, InPlaceLat     *obs.Series
	MigrationQPS, MigrationLat *obs.Series
	XenQPS, KVMQPS             *obs.Series

	// ObservedGapSec is the InPlaceTP service interruption visible in
	// the QPS series (the paper reports ~9 s for Redis and MySQL).
	ObservedGapSec float64
	// MigQPSDropFrac and MigLatRiseFrac quantify the degradation window
	// (paper: −68% QPS, +252% latency for MySQL).
	MigQPSDropFrac float64
	MigLatRiseFrac float64
}

func appTimelines(p workload.ServerProfile) (*AppTimelines, error) {
	t, err := computeAppTimings()
	if err != nil {
		return nil, err
	}
	const total = 200 * time.Second
	const step = time.Second
	gapStart := 50 * time.Second

	out := &AppTimelines{Workload: p.Name}
	out.InPlaceQPS, out.InPlaceLat, err = workload.Timelines(p, workload.Schedule{
		Kind: workload.InPlaceTP, Total: total, Step: step,
		GapStart: gapStart, GapEnd: gapStart + t.InPlaceGap,
	}, Seed)
	if err != nil {
		return nil, err
	}
	migStart := 46 * time.Second
	out.MigrationQPS, out.MigrationLat, err = workload.Timelines(p, workload.Schedule{
		Kind: workload.MigrationTP, Total: total + 60*time.Second, Step: step,
		DegradeStart: migStart, DegradeEnd: migStart + t.MigWindow,
	}, Seed+1)
	if err != nil {
		return nil, err
	}
	out.XenQPS, _, err = workload.Timelines(p, workload.Schedule{
		Kind: workload.RunXen, Total: total, Step: step,
	}, Seed+2)
	if err != nil {
		return nil, err
	}
	out.KVMQPS, _, err = workload.Timelines(p, workload.Schedule{
		Kind: workload.RunKVM, Total: total, Step: step,
	}, Seed+3)
	if err != nil {
		return nil, err
	}

	out.ObservedGapSec = workload.GapSeconds(out.InPlaceQPS, step)
	during := obs.Mean(windowVals(out.MigrationQPS, migStart+5*time.Second, migStart+t.MigWindow-5*time.Second))
	before := obs.Mean(windowVals(out.MigrationQPS, 0, migStart-5*time.Second))
	out.MigQPSDropFrac = 1 - during/before
	latDuring := obs.Mean(windowVals(out.MigrationLat, migStart+5*time.Second, migStart+t.MigWindow-5*time.Second))
	latBefore := obs.Mean(windowVals(out.MigrationLat, 0, migStart-5*time.Second))
	out.MigLatRiseFrac = latDuring/latBefore - 1
	return out, nil
}

func windowVals(s *obs.Series, from, to time.Duration) []float64 {
	pts := s.Window(from, to)
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// Figure11 reproduces Fig. 11: Redis under InPlaceTP and MigrationTP.
func Figure11() (*AppTimelines, string, error) {
	tl, err := appTimelines(workload.Redis())
	if err != nil {
		return nil, "", err
	}
	return tl, renderAppTimelines("Figure 11: Redis QPS", tl), nil
}

// Figure12 reproduces Fig. 12: MySQL latency and QPS under both
// mechanisms.
func Figure12() (*AppTimelines, string, error) {
	tl, err := appTimelines(workload.MySQL())
	if err != nil {
		return nil, "", err
	}
	return tl, renderAppTimelines("Figure 12: MySQL QPS and latency", tl), nil
}

func renderAppTimelines(title string, tl *AppTimelines) string {
	out := title + "\n\nInPlaceTP (QPS):\n"
	out += obs.RenderSeries(72, 10, tl.InPlaceQPS)
	out += "\nMigrationTP (QPS):\n"
	out += obs.RenderSeries(72, 10, tl.MigrationQPS)
	out += "\nMigrationTP (latency):\n"
	out += obs.RenderSeries(72, 10, tl.MigrationLat)
	out += fmt.Sprintf("\nobserved InPlaceTP gap: %.1f s; migration window: QPS −%.0f%%, latency +%.0f%%\n",
		tl.ObservedGapSec, tl.MigQPSDropFrac*100, tl.MigLatRiseFrac*100)
	return out
}

// Table5 reproduces Table 5: the 23 SPECrate benchmarks with a transplant
// at the midpoint under both mechanisms.
func Table5() ([]workload.SPECResult, []workload.SPECResult, *obs.Table, error) {
	rep, err := runInPlace(hw.M1(), hv.KindXen, hv.KindKVM, 1, appVCPUs, GiBytes(appMemGiB))
	if err != nil {
		return nil, nil, nil, err
	}
	inplace, maxIn := workload.RunSPECSuite(workload.ModeInPlace, rep.Downtime, Seed)
	migr, maxMig := workload.RunSPECSuite(workload.ModeMigration, 5*time.Millisecond, Seed)
	tab := &obs.Table{
		Title: "Table 5: SPECrate 2017 with a Xen→KVM transplant at the midpoint",
		Headers: []string{"Benchmark", "KVM (s)", "Xen (s)", "InPlaceTP (s)", "Deg (%)",
			"MigrationTP (s)", "Deg (%)"},
	}
	for i, r := range inplace {
		m := migr[i]
		tab.AddRow(r.Name,
			fmt.Sprintf("%.2f", r.KVMSec), fmt.Sprintf("%.2f", r.XenSec),
			fmt.Sprintf("%.2f", r.TPSec), fmt.Sprintf("%.2f", r.DegPct),
			fmt.Sprintf("%.2f", m.TPSec), fmt.Sprintf("%.2f", m.DegPct))
	}
	tab.AddRow("max degradation", "", "", "", fmt.Sprintf("%.2f", maxIn), "", fmt.Sprintf("%.2f", maxMig))
	return inplace, migr, tab, nil
}

// Table6 reproduces Table 6: Darknet training iteration times.
func Table6() (map[string]workload.DarknetRun, *obs.Table, error) {
	rep, err := runInPlace(hw.M1(), hv.KindXen, hv.KindKVM, 1, appVCPUs, GiBytes(appMemGiB))
	if err != nil {
		return nil, nil, err
	}
	runs := map[string]workload.DarknetRun{
		"default":       workload.RunDarknet(workload.DarknetDefault, 0, Seed),
		"xen-migration": workload.RunDarknet(workload.DarknetXenMigration, 0, Seed),
		"inplacetp":     workload.RunDarknet(workload.DarknetInPlaceTP, rep.Downtime, Seed),
		"migrationtp":   workload.RunDarknet(workload.DarknetMigrationTP, 0, Seed),
	}
	tab := &obs.Table{
		Title:   "Table 6: Darknet MNIST training iteration durations (seconds)",
		Headers: []string{"Scenario", "Mean iteration", "Longest iteration"},
	}
	for _, name := range []string{"default", "xen-migration", "inplacetp", "migrationtp"} {
		r := runs[name]
		tab.AddRow(name, fmt.Sprintf("%.3f", r.Mean()), fmt.Sprintf("%.3f", r.Longest()))
	}
	return runs, tab, nil
}
