package experiments

import (
	"fmt"

	"hypertp/internal/core"
	"hypertp/internal/obs"
	"hypertp/internal/vulndb"
)

// Table1 reproduces the paper's Table 1: critical and medium
// vulnerabilities per year in Xen and KVM plus the common ones.
func Table1() (*vulndb.Database, *obs.Table) {
	db := vulndb.Load()
	tab := &obs.Table{
		Title: "Table 1: critical and medium vulnerabilities per year in Xen and KVM",
		Headers: []string{"Year", "Xen crit", "Xen med", "KVM crit", "KVM med",
			"Common crit", "Common med"},
	}
	totals := [6]int{}
	for y := vulndb.FirstYear; y <= vulndb.LastYear; y++ {
		row := [6]int{
			db.Count(y, "xen", vulndb.SeverityCritical),
			db.Count(y, "xen", vulndb.SeverityMedium),
			db.Count(y, "kvm", vulndb.SeverityCritical),
			db.Count(y, "kvm", vulndb.SeverityMedium),
			db.Count(y, "common", vulndb.SeverityCritical),
			db.Count(y, "common", vulndb.SeverityMedium),
		}
		for i, v := range row {
			totals[i] += v
		}
		tab.AddRow(fmt.Sprint(y), fmt.Sprint(row[0]), fmt.Sprint(row[1]),
			fmt.Sprint(row[2]), fmt.Sprint(row[3]), fmt.Sprint(row[4]), fmt.Sprint(row[5]))
	}
	tab.AddRow("Total", fmt.Sprint(totals[0]), fmt.Sprint(totals[1]),
		fmt.Sprint(totals[2]), fmt.Sprint(totals[3]), fmt.Sprint(totals[4]), fmt.Sprint(totals[5]))
	return db, tab
}

// Section22Windows reproduces the §2.2 KVM vulnerability-window analysis.
func Section22Windows() (vulndb.WindowStats, *obs.Table) {
	db := vulndb.Load()
	stats := db.KVMWindowStats()
	tab := &obs.Table{
		Title:   "Section 2.2: KVM vulnerability windows (Red Hat tracker data)",
		Headers: []string{"Metric", "Value"},
	}
	tab.AddRow("tracked vulnerabilities", fmt.Sprint(stats.Tracked))
	tab.AddRow("average window (days)", fmt.Sprintf("%.1f", stats.AverageDays))
	tab.AddRow("share above 60 days", fmt.Sprintf("%.0f%%", stats.Over60Frac*100))
	tab.AddRow("maximum window", fmt.Sprintf("%d days (%s)", stats.MaxDays, stats.MaxID))
	tab.AddRow("minimum window", fmt.Sprintf("%d days (%s)", stats.MinDays, stats.MinID))
	return stats, tab
}

// Table2 reproduces the paper's Table 2: the Xen ↔ UISR ↔ KVM platform
// state mapping the converters implement.
func Table2() *obs.Table {
	tab := &obs.Table{
		Title:   "Table 2: Xen-KVM VM state mapping through UISR",
		Headers: []string{"Xen HVM state", "UISR", "KVM"},
	}
	tab.AddRow("CPU", "CPU (regs/sregs)", "(S)REGS, MSRS, FPU")
	tab.AddRow("LAPIC", "LAPIC", "MSRS (IA32_APIC_BASE)")
	tab.AddRow("LAPIC regs", "LAPIC_REGS", "LAPIC_REGS (1 KiB page)")
	tab.AddRow("MTRR", "MTRR", "MSRS (0xFE, 0x200-0x2FF)")
	tab.AddRow("XSAVE", "XSAVE", "XCRS, XSAVE")
	tab.AddRow("IOAPIC (48 pins)", "IOAPIC", "IRQCHIP (24 pins)")
	tab.AddRow("PIT", "PIT", "PIT2")
	return tab
}

// TCB reproduces the §4.4 trusted-computing-base accounting.
func TCB() *obs.Table {
	tab := &obs.Table{
		Title:   "Section 4.4: HyperTP code contribution",
		Headers: []string{"Component", "KLOC", "in TCB", "userspace"},
	}
	for _, c := range core.TCBReport() {
		tab.AddRow(c.Name, fmt.Sprintf("%.1f", c.KLOC),
			fmt.Sprint(c.InTCB), fmt.Sprint(c.Userspace))
	}
	total, tcb, userFrac := core.TCBTotals()
	tab.AddRow("total", fmt.Sprintf("%.1f", total), fmt.Sprintf("%.1f in TCB", tcb),
		fmt.Sprintf("%.0f%% of TCB userspace", userFrac*100))
	return tab
}

// DecisionDemo exercises the transplant decision policy on the named
// real-world flaws — the §1 scenario of choosing a safe replacement.
type DecisionDemo struct {
	CVE     string
	Current string
	// Pool is the repertoire size the decision used (2 or 3).
	Pool       int
	Transplant bool
	Target     string
}

// Decisions runs the policy across the named CVEs for a Xen datacenter,
// once with the paper's two-member pool and once with the microhypervisor
// added (which rescues the VENOM case).
func Decisions() []DecisionDemo {
	db := vulndb.Load()
	var out []DecisionDemo
	for _, pool := range [][]string{
		{"xen", "kvm"},
		{"xen", "kvm", "nova"},
	} {
		for _, cve := range []string{
			"CVE-2016-6258",  // Xen-only critical → transplant to KVM
			"CVE-2015-3456",  // VENOM, common critical
			"CVE-2015-8104",  // common medium → below the critical bar
			"CVE-2017-12188", // KVM-only → Xen hosts unaffected
		} {
			ok, target := db.TransplantWorthwhile(cve, "xen", pool)
			out = append(out, DecisionDemo{
				CVE: cve, Current: "xen", Pool: len(pool),
				Transplant: ok, Target: target,
			})
		}
	}
	return out
}
