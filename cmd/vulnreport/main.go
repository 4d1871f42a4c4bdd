// Command vulnreport prints the §2 vulnerability study: the Table 1
// per-year counts, the §2.2 window statistics, the common-vulnerability
// list, and the transplant decision policy applied to the named
// real-world flaws.
package main

import (
	"fmt"

	"hypertp/internal/experiments"
	"hypertp/internal/obs"
)

func main() {
	db, tab := experiments.Table1()
	fmt.Println(tab.Render())

	_, winTab := experiments.Section22Windows()
	fmt.Println(winTab.Render())

	common := &obs.Table{
		Title:   "Common vulnerabilities between Xen and KVM (2013-2019)",
		Headers: []string{"CVE", "Year", "CVSS", "Category", "Description"},
	}
	for _, r := range db.CommonVulnerabilities() {
		desc := r.Description
		if len(desc) > 60 {
			desc = desc[:57] + "..."
		}
		common.AddRow(r.ID, fmt.Sprint(r.Year), fmt.Sprintf("%.1f", r.CVSS),
			string(r.Category), desc)
	}
	fmt.Println(common.Render())

	dec := &obs.Table{
		Title:   "Transplant decision policy (Xen datacenter)",
		Headers: []string{"CVE", "Pool size", "Transplant?", "Target"},
	}
	for _, d := range experiments.Decisions() {
		target := d.Target
		if target == "" {
			target = "-"
		}
		dec.AddRow(d.CVE, fmt.Sprint(d.Pool), fmt.Sprint(d.Transplant), target)
	}
	fmt.Println(dec.Render())
}
