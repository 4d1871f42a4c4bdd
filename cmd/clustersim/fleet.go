package main

import (
	"fmt"
	"io"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/reactive"
	"hypertp/internal/sched"
	"hypertp/internal/slo"
	"hypertp/internal/tpcache"
	"hypertp/internal/vulndb"
)

// fleetCVE is the critical Xen flaw the -fleet scenario responds to by
// default.
const fleetCVE = "CVE-2016-6258"

// fleetConfig is the -fleet scenario's shape beyond its size: the CVE
// answered, the crash storm ahead of it (-crash-rate, -mttr-budget) and
// the transplant cache (-no-cache).
type fleetConfig struct {
	CVE        string // empty means fleetCVE
	CrashRate  float64
	MTTRBudget time.Duration
	NoCache    bool
}

// fleetRun is one CVE response's worth of outcome: the response, the
// final VM placement, and the SLO tracker fed the run's spans.
type fleetRun struct {
	resp      *orchestrator.FleetResponse
	storm     *orchestrator.StormResponse
	placement []string
	slo       *slo.Tracker
	rec       *obs.Recorder
	now       time.Duration
}

// crashFleet fail-stops every step-th host (crashRate of the fleet,
// staggered 37ms apart so the detector sees distinct crash times) and
// recovers the lot through the scheduled emergency path under the same
// capacity limits the response will run with. A host left frozen or
// lost afterwards is an unrecovered crash: surfaced as the crash error
// class, which exits with status 2.
func crashFleet(nova *orchestrator.Nova, hosts int, crashRate float64) (*orchestrator.StormResponse, error) {
	count := int(crashRate*float64(hosts) + 0.5)
	if count < 1 {
		count = 1
	}
	if count > hosts {
		count = hosts
	}
	nova.SetDetector(reactive.NewDetector(reactive.ProbeConfig{Seed: 42}))
	clock := nova.Clock()
	for i := 0; i < count; i++ {
		clock.Advance(37 * time.Millisecond)
		name := fmt.Sprintf("host-%03d", i*hosts/count)
		if _, err := nova.CrashHost(name, "injected fail-stop"); err != nil {
			return nil, err
		}
	}
	storm, err := nova.RecoverFleet(core.DefaultOptions())
	if err != nil {
		return nil, err
	}
	if n := len(storm.FrozenNodes) + len(storm.LostNodes); n > 0 {
		return storm, hterr.HypervisorCrashed(fmt.Errorf(
			"clustersim: %d of %d crashed hosts not recovered (frozen %v, lost %v)",
			n, len(storm.DownHosts), storm.FrozenNodes, storm.LostNodes))
	}
	return storm, nil
}

// respondOnce builds a fresh fleet and runs the CVE response under the
// given limits. An observed run has a span recorder and
// vulnerability-window SLO tracking attached; a non-nil spans collects
// its span records, and without it each span tree is released as its
// root ends. An unobserved run — the serial baseline, read only for its
// response and placement — records nothing.
func respondOnce(hosts, vms int, limits sched.Limits, fl fleetConfig, observed bool, spans *obs.Collector) (*fleetRun, error) {
	nova, err := orchestrator.NewFleet(hosts, vms)
	if err != nil {
		return nil, err
	}
	clock := nova.Clock()
	var rec *obs.Recorder
	var tracker *slo.Tracker // nil-safe: an unobserved run tracks nothing
	if observed {
		rec = obs.NewRecorder(clock)
		if spans != nil {
			rec.AddSink(spans)
		}
		nova.SetRecorder(rec)
		tracker = slo.NewTracker()
		tracker.SetRegistry(rec.Metrics())
		rec.AddSink(tracker)
	}
	var storm *orchestrator.StormResponse
	if fl.CrashRate > 0 {
		// The crash storm lands before the disclosure: the response then
		// finds the recovered hosts already on the safe hypervisor.
		if fl.MTTRBudget > 0 {
			tracker.SetMTTRBudget(slo.Target{Quantile: slo.DefaultQuantile, Window: fl.MTTRBudget})
		}
		nova.SetFleetLimits(&limits)
		storm, err = crashFleet(nova, hosts, fl.CrashRate)
		if err != nil {
			return nil, err
		}
	}
	opts := core.DefaultOptions()
	if !fl.NoCache {
		opts.Cache = tpcache.New()
	}
	nova.SetFleetLimits(&limits)
	resp, err := nova.RespondToCVE(vulndb.Load(), fl.CVE, []string{"xen", "kvm"}, opts)
	if err != nil {
		return nil, err
	}
	run := &fleetRun{resp: resp, storm: storm, slo: tracker, rec: rec, now: clock.Now()}
	for _, rec := range nova.Records() {
		run.placement = append(run.placement, fmt.Sprintf("%s@%s:%v", rec.Name, rec.Node, rec.Kind))
	}
	return run, nil
}

// runFleet runs the cluster-wide CVE response twice — once on the
// serial baseline scheduler and once concurrently under the capacity
// limits — and reports the makespan reduction plus the fleet's
// vulnerability-window SLO report (remediation latency vs disclosure,
// burn rate, PASS/FAIL verdict). The final placement must be identical
// between the two runs (same planner, different timeline); a divergence
// is an invariant violation and exits non-zero. The whole report is
// byte-identical for any -workers count.
func runFleet(w io.Writer, hosts, vms int, sc schedConfig, artifactDir string, fl fleetConfig) error {
	defer sc.apply()()
	if fl.CVE == "" {
		fl.CVE = fleetCVE
	}
	limits := sc.limits()
	if !sc.enabled() {
		limits = sched.Limits{MaxKexecs: 4, LinkStreams: 4}
	}

	serial, err := respondOnce(hosts, vms, sched.Serial(), fl, false, nil)
	if err != nil {
		return err
	}
	var spans *obs.Collector
	if artifactDir != "" {
		spans = &obs.Collector{}
	}
	conc, err := respondOnce(hosts, vms, limits, fl, true, spans)
	if err != nil {
		return err
	}
	if fmt.Sprint(serial.placement) != fmt.Sprint(conc.placement) {
		return hterr.InvariantViolated(fmt.Errorf(
			"clustersim: concurrent schedule changed VM placement:\nserial:     %v\nconcurrent: %v",
			serial.placement, conc.placement))
	}

	tab := &obs.Table{
		Title: fmt.Sprintf("Fleet CVE response: %s, %d hosts x %d VMs (kexecs %d, streams %d)",
			fl.CVE, hosts, vms, limits.MaxKexecs, limits.LinkStreams),
		Headers: []string{"Schedule", "Upgraded", "Skipped", "Quarantined", "Makespan", "Speedup"},
	}
	row := func(name string, r *orchestrator.FleetResponse) {
		tab.AddRow(name, fmt.Sprint(len(r.UpgradedNodes)), fmt.Sprint(len(r.SkippedNodes)),
			fmt.Sprint(len(r.QuarantinedNodes)), r.Elapsed.Round(time.Millisecond).String(),
			fmt.Sprintf("%.2fx", float64(serial.resp.Elapsed)/float64(r.Elapsed)))
	}
	row("serial", serial.resp)
	row("concurrent", conc.resp)
	fmt.Fprintln(w, tab.Render())
	fmt.Fprintf(w, "placement: identical across schedules (%d VMs)\n", vms)
	if conc.storm != nil {
		s := conc.storm
		fmt.Fprintf(w, "reactive recovery: %d hosts crashed, %d recovered, %d frozen, %d lost (makespan %v)\n",
			len(s.DownHosts), len(s.RecoveredNodes), len(s.FrozenNodes), len(s.LostNodes),
			s.Elapsed.Round(time.Millisecond))
	}
	if !fl.NoCache {
		s := conc.resp.Summary()
		ratio := 0.0
		if s.CacheHits+s.CacheMisses > 0 {
			ratio = float64(s.CacheHits) / float64(s.CacheHits+s.CacheMisses)
		}
		fmt.Fprintf(w, "cache: %d hits / %d misses (ratio %.2f)\n",
			s.CacheHits, s.CacheMisses, ratio)
	}
	fmt.Fprintln(w)
	// The concurrent run is the production shape: its vulnerability
	// window is the one the fleet would actually see.
	if err := conc.slo.WriteReport(w, conc.now); err != nil {
		return err
	}
	if artifactDir != "" {
		if err := obs.WriteArtifacts(artifactDir, spans.Records(), conc.rec.Metrics(), w); err != nil {
			return err
		}
	}
	if !conc.slo.Pass(conc.now) {
		return fmt.Errorf("clustersim: fleet SLO violated (see report above)")
	}
	return nil
}
