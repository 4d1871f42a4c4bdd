package experiments

import (
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simtime"
	"hypertp/internal/vulndb"
)

func TestTable1(t *testing.T) {
	db, tab := Table1()
	if db == nil {
		t.Fatal("no database")
	}
	out := tab.Render()
	// Spot-check the paper's rows.
	if !strings.Contains(out, "2015") || !strings.Contains(out, "Total") {
		t.Fatalf("table missing rows:\n%s", out)
	}
	if len(tab.Rows) != 8 { // 7 years + total
		t.Fatalf("rows = %d", len(tab.Rows))
	}
	// 2017 row: 17 Xen critical.
	for _, row := range tab.Rows {
		if row[0] == "2017" && row[1] != "17" {
			t.Fatalf("2017 Xen crit = %s, want 17", row[1])
		}
	}
}

func TestSection22(t *testing.T) {
	stats, tab := Section22Windows()
	if stats.Tracked != 24 {
		t.Fatalf("tracked = %d", stats.Tracked)
	}
	if !strings.Contains(tab.Render(), "CVE-2017-12188") {
		t.Fatal("max CVE missing from table")
	}
}

func TestTable2(t *testing.T) {
	tab := Table2()
	if len(tab.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(tab.Rows))
	}
	out := tab.Render()
	for _, want := range []string{"LAPIC", "MTRR", "IOAPIC", "PIT2", "XCRS"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 missing %q:\n%s", want, out)
		}
	}
}

func TestTCBTable(t *testing.T) {
	out := TCB().Render()
	if !strings.Contains(out, "8.5 in TCB") {
		t.Fatalf("TCB table wrong:\n%s", out)
	}
}

func TestDecisions(t *testing.T) {
	ds := Decisions()
	if len(ds) != 8 {
		t.Fatalf("decisions = %d, want 4 CVEs x 2 pools", len(ds))
	}
	lookup := func(cve string, pool int) DecisionDemo {
		for _, d := range ds {
			if d.CVE == cve && d.Pool == pool {
				return d
			}
		}
		t.Fatalf("decision %s/pool-%d missing", cve, pool)
		return DecisionDemo{}
	}
	if d := lookup("CVE-2016-6258", 2); !d.Transplant || d.Target != "kvm" {
		t.Fatalf("CVE-2016-6258 decision = %+v", d)
	}
	// VENOM: refused with two pool members, escapes to the
	// microhypervisor with three.
	if d := lookup("CVE-2015-3456", 2); d.Transplant {
		t.Fatal("VENOM decision must refuse with a two-member pool")
	}
	if d := lookup("CVE-2015-3456", 3); !d.Transplant || d.Target != "nova" {
		t.Fatalf("VENOM three-pool decision = %+v", d)
	}
	if d := lookup("CVE-2015-8104", 3); d.Transplant {
		t.Fatal("medium flaw must not trigger")
	}
}

func TestFigure6(t *testing.T) {
	rows, tab, err := Figure6()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Machine != "M1" || rows[1].Machine != "M2" {
		t.Fatalf("rows = %+v", rows)
	}
	m1 := rows[0].Report
	if m1.Downtime < 1500*time.Millisecond || m1.Downtime > 1900*time.Millisecond {
		t.Fatalf("M1 downtime = %v", m1.Downtime)
	}
	if !strings.Contains(tab.Render(), "M2") {
		t.Fatal("table missing M2")
	}
}

func TestTable4(t *testing.T) {
	res, tab, err := Table4()
	if err != nil {
		t.Fatal(err)
	}
	if res.TPDowntime >= res.XenDowntime {
		t.Fatal("MigrationTP downtime not lower than Xen")
	}
	// Total times within ~1s of each other (Table 4: 9.564 vs 9.63).
	diff := res.XenTotal - res.TPTotal
	if diff < 0 {
		diff = -diff
	}
	if diff > time.Second {
		t.Fatalf("totals differ by %v", diff)
	}
	if !strings.Contains(tab.Render(), "Downtime") {
		t.Fatal("table wrong")
	}
}

func TestFigure11Redis(t *testing.T) {
	tl, render, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: ~9 s observed interruption for InPlaceTP with networking.
	if tl.ObservedGapSec < 7 || tl.ObservedGapSec > 12 {
		t.Fatalf("observed gap = %.1f s, want ~9", tl.ObservedGapSec)
	}
	// Redis improves ~37% after landing on KVM.
	preVals := windowVals(tl.InPlaceQPS, 0, 45*time.Second)
	postVals := windowVals(tl.InPlaceQPS, 70*time.Second, 190*time.Second)
	pre, post := mean(preVals), mean(postVals)
	gain := (post - pre) / pre
	if gain < 0.30 || gain > 0.45 {
		t.Fatalf("post-transplant gain = %.2f, want ~0.37", gain)
	}
	if render == "" {
		t.Fatal("no render")
	}
}

func TestFigure12MySQL(t *testing.T) {
	tl, _, err := Figure12()
	if err != nil {
		t.Fatal(err)
	}
	// Paper: −68% QPS and +252% latency during the migration window.
	if tl.MigQPSDropFrac < 0.55 || tl.MigQPSDropFrac > 0.80 {
		t.Fatalf("QPS drop = %.2f, want ~0.68", tl.MigQPSDropFrac)
	}
	if tl.MigLatRiseFrac < 2.0 || tl.MigLatRiseFrac > 3.1 {
		t.Fatalf("latency rise = %.2f, want ~2.52", tl.MigLatRiseFrac)
	}
	if g := tl.ObservedGapSec; g < 7 || g > 12 {
		t.Fatalf("observed gap = %.1f s", g)
	}
}

func TestTable5(t *testing.T) {
	inplace, migr, tab, err := Table5()
	if err != nil {
		t.Fatal(err)
	}
	if len(inplace) != 23 || len(migr) != 23 {
		t.Fatal("row count wrong")
	}
	for _, r := range inplace {
		if r.DegPct > 5.5 {
			t.Fatalf("%s InPlaceTP degradation %.2f%% too high", r.Name, r.DegPct)
		}
	}
	if !strings.Contains(tab.Render(), "deepsjeng") {
		t.Fatal("table missing benchmark")
	}
}

func TestTable6(t *testing.T) {
	runs, tab, err := Table6()
	if err != nil {
		t.Fatal(err)
	}
	if runs["inplacetp"].Longest() <= runs["migrationtp"].Longest() {
		t.Fatal("InPlaceTP longest iteration not above MigrationTP")
	}
	if !strings.Contains(tab.Render(), "xen-migration") {
		t.Fatal("table missing scenario")
	}
}

func TestFigure13(t *testing.T) {
	points, tab, err := Figure13()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 5 || points[0].CompatPct != 0 || points[4].CompatPct != 80 {
		t.Fatalf("points = %+v", points)
	}
	if points[0].Migrations < 120 || points[0].Migrations > 185 {
		t.Fatalf("0%% migrations = %d, want ~154", points[0].Migrations)
	}
	if g := points[4].TimeGainPct; g < 70 || g > 92 {
		t.Fatalf("80%% time gain = %.0f%%, want ~80%%", g)
	}
	for i := 1; i < len(points); i++ {
		if points[i].Migrations >= points[i-1].Migrations {
			t.Fatal("migrations not strictly decreasing")
		}
		if points[i].TimeGainPct <= points[i-1].TimeGainPct {
			t.Fatal("time gain not increasing")
		}
	}
	if !strings.Contains(tab.Render(), "80") {
		t.Fatal("table wrong")
	}
}

func TestFigure14(t *testing.T) {
	fig, tabs, err := Figure14()
	if err != nil {
		t.Fatal(err)
	}
	if len(tabs) != 3 {
		t.Fatal("panel count wrong")
	}
	// Anchors: 16 KB PRAM @1 GiB, 60 KB @12 GiB, 148 KB @12 VMs;
	// UISR ~5 KB @1 vCPU, ~38 KB @10 vCPUs.
	if fig.Memory[0].X != 2 || fig.Memory[0].PRAMBytes != 20<<10 {
		t.Fatalf("PRAM @2GiB = %d, want 20KB", fig.Memory[0].PRAMBytes)
	}
	last := fig.Memory[len(fig.Memory)-1]
	if last.X != 12 || last.PRAMBytes != 60<<10 {
		t.Fatalf("PRAM @12GiB = %d, want 60KB", last.PRAMBytes)
	}
	vms12 := fig.VMs[len(fig.VMs)-1]
	if vms12.X != 12 || vms12.PRAMBytes != 148<<10 {
		t.Fatalf("PRAM @12 VMs = %d, want 148KB", vms12.PRAMBytes)
	}
	u1 := fig.VCPUs[0].UISRBytes
	u10 := fig.VCPUs[len(fig.VCPUs)-1].UISRBytes
	if u1 < 4000 || u1 > 6200 {
		t.Fatalf("UISR @1 vCPU = %d", u1)
	}
	if u10 < 33000 || u10 > 42000 {
		t.Fatalf("UISR @10 vCPUs = %d", u10)
	}
}

// Ablation rows must show every optimization contributing.
func TestAblationTable(t *testing.T) {
	rows, tab, err := Ablation()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d", len(rows))
	}
	full := rows[0].Downtime
	for i := 1; i < len(rows); i++ {
		if rows[i].Downtime <= full {
			t.Fatalf("%q downtime %v not above optimized %v", rows[i].Name, rows[i].Downtime, full)
		}
	}
	// The fully de-optimized config is the worst.
	worst := rows[len(rows)-1].Downtime
	for i := 1; i < len(rows)-1; i++ {
		if rows[i].Downtime > worst {
			t.Fatalf("%q worse than fully de-optimized", rows[i].Name)
		}
	}
	if !strings.Contains(tab.Render(), "huge pages") {
		t.Fatal("table wrong")
	}
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	var s float64
	for _, v := range vs {
		s += v
	}
	return s / float64(len(vs))
}

var _ = vulndb.FirstYear // keep the import for the study tests above

func TestDirectionsMatrix(t *testing.T) {
	rows, tab, err := DirectionsMatrix()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	byDir := map[string]*struct{ reboot time.Duration }{}
	for _, r := range rows {
		byDir[r.From.String()+">"+r.To.String()] = &struct{ reboot time.Duration }{r.Report.Reboot}
	}
	// The target's boot path sets the reboot cost: into NOVA is the
	// fastest, into Xen the slowest, regardless of source.
	if byDir["xen>nova"].reboot >= byDir["xen>kvm"].reboot {
		t.Fatal("NOVA target not faster than KVM target")
	}
	if byDir["kvm>xen"].reboot <= byDir["kvm>nova"].reboot {
		t.Fatal("Xen target not slower than NOVA target")
	}
	if byDir["nova>xen"].reboot != byDir["kvm>xen"].reboot {
		t.Fatal("reboot cost depends on source, not target")
	}
	if !strings.Contains(tab.Render(), "nova") {
		t.Fatal("table missing nova rows")
	}
}

func TestGroupSizeSweep(t *testing.T) {
	points, tab, err := GroupSizeSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	// Larger groups shrink the re-migration cascade: fewer rounds of
	// replanning means fewer VMs parked on not-yet-upgraded hosts.
	if points[2].Migrations >= points[0].Migrations {
		t.Fatalf("group-5 migrations %d not below group-1 %d",
			points[2].Migrations, points[0].Migrations)
	}
	// But every plan still moves each VM at least once.
	for _, p := range points {
		if p.Migrations < 100 {
			t.Fatalf("group %d migrations = %d < VM count", p.GroupSize, p.Migrations)
		}
	}
	if !strings.Contains(tab.Render(), "Group size") {
		t.Fatal("table wrong")
	}
}

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
// The budgets below count with the collector off for the same reason: a
// collection empties those pools, and when one lands is not a count.
var raceEnabled bool

// TestSectionAllocBudgets pins the benchfig sections that are one unit of
// work rather than a sweep of units, at one worker: the §2 study tables,
// the Fig. 6 pair of transplants, the Table 4 migrations, the application
// timelines, and the Fig. 14 overhead census. The sweeps (Figs. 7-10 and
// 13, the ablation) are pinned by their units: core's
// TestEngineAllocBudgets, TestWarmHopAllocBudget and cluster's
// TestUpgradeAllocBudget. A machine builds a PhysMem leaf for each GiB
// it holds beyond the one NewPhysMem embeds: Figures 11 and 12 and
// Tables 5 and 6 run an 8 GiB VM (7 leaves), and Figure 14's memory and
// VM-count sweeps hold 2 to 12 GiB at a time (72 leaves in all).
func TestSectionAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"Table1", 3095, func() error { Table1(); Section22Windows(); return nil }},
		{"Table2", 13, func() error { Table2(); return nil }},
		{"Figure6", 340, func() error { _, _, err := Figure6(); return err }},
		{"Table4", 228, func() error { _, _, err := Table4(); return err }},
		{"Figure11", 478, func() error { _, _, err := Figure11(); return err }},
		{"Figure12", 478, func() error { _, _, err := Figure12(); return err }},
		{"Table5", 526, func() error { _, _, _, err := Table5(); return err }},
		{"Table6", 231, func() error { _, _, err := Table6(); return err }},
		{"Figure14", 923, func() error { _, _, err := Figure14(); return err }},
	} {
		var err error
		run := func() { err = tc.run() }
		if n := testing.AllocsPerRun(2, run); n > tc.budget || err != nil {
			t.Errorf("%s allocated %v times, budget %v (err %v)", tc.name, n, tc.budget, err)
		}
	}
}

// TestObservabilityTaxAllocBudget pins what tracing costs a cold InPlace
// (Xen→KVM, one 1 vCPU / 1 GiB VM on M1): a full recorder, spans and
// metrics, attached to the testbed may add at most a pinned number of
// allocations to the untraced run.
func TestObservabilityTaxAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const budget = 53 // over 152 untraced
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var err error
	run := func() { _, err = runInPlace(hw.M1(), hv.KindXen, hv.KindKVM, 1, 1, GiBytes(1)) }
	untraced := testing.AllocsPerRun(2, run)
	SetObsFactory(func(clock *simtime.Clock) *obs.Recorder { return obs.NewRecorder(clock) })
	defer SetObsFactory(nil)
	traced := testing.AllocsPerRun(2, run)
	if err != nil || traced-untraced > budget {
		t.Errorf("tracing added %v allocations to %v, budget %v (err %v)", traced-untraced, untraced, budget, err)
	}
}
