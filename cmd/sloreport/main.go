// Command sloreport runs a fleet CVE response and prints the
// vulnerability-window SLO report: the per-CVE fleet remediation
// timeline (per-host remediation latency vs disclosure, p50/p95/max),
// the burn-rate verdict against the declared target ("99% of hosts
// remediated within the CVE's remediation window of disclosure"), and
// the per-VM downtime summary.
//
// Usage:
//
//	sloreport -hosts 50 -vms 100
//	sloreport -cve CVE-2016-6258 -kexecs 8 -streams 8 -strict
//	sloreport -prom-out slo.prom
//	sloreport -crash-hosts 5 -mttr-budget 10s    # availability + MTTR verdict
//
// -crash-hosts fail-stops that many hosts before the response; the
// reactive recovery path salvages them with emergency transplants and
// the report gains the availability section (unplanned outages, MTTR
// p50/p95/max, and — with -mttr-budget — a PASS/FAIL verdict that
// -strict enforces). An unrecovered crash exits with status 2.
//
// The report is deterministic: byte-identical for any -workers count.
// -strict exits with status 3 when any declared SLO fails; -prom-out
// additionally dumps the run's metrics registry (including the slo.*
// series) in Prometheus text exposition format.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/par"
	"hypertp/internal/reactive"
	"hypertp/internal/sched"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

func main() {
	var (
		hosts   = flag.Int("hosts", 20, "fleet size (all hosts start on the vulnerable hypervisor)")
		vms     = flag.Int("vms", 40, "tenant VM population")
		cve     = flag.String("cve", "CVE-2016-6258", "the disclosed vulnerability to respond to")
		kexecs  = flag.Int("kexecs", 4, "simultaneous-kexec cap for the response schedule")
		streams = flag.Int("streams", 4, "fabric migration-stream cap for the response schedule")
		workers = flag.Int("workers", 0, "worker-pool width (0 = library default; the report is identical for any width)")
		promOut = flag.String("prom-out", "", "write the run's metrics registry in Prometheus text format")
		strict  = flag.Bool("strict", false, "exit 3 when any declared SLO fails")
		crashes = flag.Int("crash-hosts", 0, "fail-stop this many hosts before the response; the reactive path recovers them and the report gains the availability section")
		mttr    = flag.Duration("mttr-budget", 0, "declare an MTTR budget (p99 of outages repaired within this window; 0 = none declared)")
	)
	flag.Parse()
	if *workers > 0 {
		par.SetWorkers(*workers)
	}
	code, err := run(os.Stdout, *hosts, *vms, *cve, *kexecs, *streams, *promOut, *strict, *crashes, *mttr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sloreport: %v\n", err)
		if class := hterr.Class(err); class != nil {
			fmt.Fprintf(os.Stderr, "sloreport: class: %s\n", hterr.Label(class))
		}
	}
	os.Exit(code)
}

func run(w io.Writer, hosts, vms int, cve string, kexecs, streams int, promOut string, strict bool, crashes int, mttr time.Duration) (int, error) {
	nova, err := orchestrator.NewFleet(hosts, vms)
	if err != nil {
		return 1, err
	}
	clock := nova.Clock()
	rec := obs.NewRecorder(clock)
	nova.SetRecorder(rec)
	tracker := slo.NewTracker()
	tracker.SetRegistry(rec.Metrics())
	nova.SetSLO(tracker)

	limits := sched.Limits{MaxKexecs: kexecs, LinkStreams: streams}
	nova.SetFleetLimits(&limits)

	var storm *orchestrator.StormResponse
	if crashes > 0 {
		// An unplanned crash storm ahead of the disclosure: the reactive
		// path recovers the hosts and charges the outage time into the
		// MTTR/availability timeline the report renders below.
		if crashes > hosts {
			crashes = hosts
		}
		if mttr > 0 {
			tracker.SetMTTRBudget(slo.Target{Quantile: slo.DefaultQuantile, Window: mttr})
		}
		nova.SetDetector(reactive.NewDetector(reactive.ProbeConfig{Seed: 42}))
		for i := 0; i < crashes; i++ {
			clock.Advance(37 * time.Millisecond)
			if _, err := nova.CrashHost(fmt.Sprintf("host-%03d", i*hosts/crashes), "injected fail-stop"); err != nil {
				return 1, err
			}
		}
		storm, err = nova.RecoverFleet(core.DefaultOptions())
		if err != nil {
			return 1, err
		}
		if n := len(storm.FrozenNodes) + len(storm.LostNodes); n > 0 {
			return 2, hterr.HypervisorCrashed(fmt.Errorf(
				"%d of %d crashed hosts not recovered (frozen %v, lost %v)",
				n, len(storm.DownHosts), storm.FrozenNodes, storm.LostNodes))
		}
	}

	resp, err := nova.RespondToCVE(vulndb.Load(), cve, []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		return 1, err
	}
	now := clock.Now()

	if storm != nil {
		fmt.Fprintf(w, "reactive recovery: %d hosts crashed, %d recovered in %v\n",
			len(storm.DownHosts), len(storm.RecoveredNodes), storm.Elapsed.Round(time.Millisecond))
	}
	fmt.Fprintf(w, "fleet response: %s — %d upgraded, %d skipped, %d quarantined in %v (%s)\n\n",
		cve, len(resp.UpgradedNodes), len(resp.SkippedNodes), len(resp.QuarantinedNodes),
		resp.Elapsed.Round(time.Millisecond), resp.Outcome)
	if err := tracker.WriteReport(w, now); err != nil {
		return 1, err
	}
	if promOut != "" {
		f, err := os.Create(promOut)
		if err != nil {
			return 1, err
		}
		if err := rec.Metrics().WritePrometheus(f, false); err != nil {
			f.Close()
			return 1, err
		}
		if err := f.Close(); err != nil {
			return 1, err
		}
		fmt.Fprintf(w, "metrics: wrote %s (Prometheus text format)\n", promOut)
	}
	if strict && !tracker.Pass(now) {
		return 3, fmt.Errorf("SLO violated (see report above)")
	}
	return 0, nil
}
