// Command clustersim runs the §5.4 cluster upgrade experiment: a
// BtrPlace-style rolling upgrade of a simulated cluster while varying the
// fraction of InPlaceTP-compatible VMs (Fig. 13).
//
// Usage:
//
//	clustersim -hosts 10 -vms-per-host 10 -group 1
//	clustersim -artifact-dir upgrade/ -trace-frac 0.8
//	clustersim -fault-seed 7 -fault-rate 0.2 -fault-sites cluster.host
//	clustersim -fleet -hosts 20 -fleet-vms 40 -artifact-dir slo/
//	clustersim -fleet -crash-rate 0.25 -mttr-budget 10s
//
// -artifact-dir writes one upgrade's artifacts, run at the -trace-frac
// compatibility fraction, into a directory: trace.json (Chrome
// trace_event; open in Perfetto), spans.jsonl, metrics.json and
// metrics.prom. With -fleet it writes the concurrent response's instead,
// the hypertp_slo_* series included. All are byte-identical for any
// -workers count.
//
// -fleet runs the cluster-wide CVE response (-cve) instead and appends
// the fleet's vulnerability-window SLO report: per-host remediation
// latency vs disclosure (p50/p95/max), burn rate, and a PASS/FAIL
// verdict; a failed SLO exits non-zero. -crash-rate fail-stops part of
// the fleet first and adds the availability section (MTTR p50/p95/max,
// and a verdict against -mttr-budget); an unrecovered crash exits 2.
//
// -fault-seed/-fault-rate/-fault-sites inject host failures into the
// planned upgrade: hosts whose in-place upgrade fails are quarantined,
// their VMs re-planned onto healthy hosts, and the table gains outcome
// columns. -streams/-kexecs add the same plans' concurrent re-timing
// (Sched total, Speedup), with or without faults.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hypertp/internal/cluster"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/sched"
)

func main() {
	o, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	os.Exit(hterr.Exit(os.Stderr, "clustersim", dispatch(os.Stdout, o)))
}

// dispatch runs the scenario the flags in o select, printing to w.
func dispatch(w io.Writer, o options) error {
	switch {
	case o.fleet:
		return runFleet(w, o.hosts, o.fleetVMs, o.sc, o.artifactDir, o.fl)
	case o.fl.CrashRate > 0 || o.fl.MTTRBudget > 0 || o.fl.CVE != fleetCVE:
		return fmt.Errorf("clustersim: -crash-rate, -cve and -mttr-budget apply to the -fleet scenario")
	}
	return run(w, o.hosts, o.vmsPerHost, o.group, o.traceFrac, o.fc, o.sc, o.artifactDir)
}

// options is one clustersim invocation's worth of parsed flags.
type options struct {
	hosts, vmsPerHost, group int
	traceFrac                float64
	fleet                    bool
	fleetVMs                 int
	artifactDir              string
	fc                       faultConfig
	sc                       schedConfig
	fl                       fleetConfig
}

// parseArgs parses the command line. Usage errors, including a
// fraction outside [0,1] and a negative count, are reported on stderr
// and returned; main exits 2 on them.
func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("clustersim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		hosts      = fs.Int("hosts", 10, "number of physical hosts")
		vmsPerHost = fs.Int("vms-per-host", 10, "VMs per host (1 vCPU / 4 GiB each)")
		group      = fs.Int("group", 1, "hosts taken offline per upgrade group")
		artDir     = fs.String("artifact-dir", "", "write the traced upgrade's (or, with -fleet, the concurrent response's) trace.json, spans.jsonl, metrics.json and metrics.prom into this directory")
		traceFrac  = fs.Float64("trace-frac", 0.8, "InPlaceTP-compatible fraction for the traced upgrade")
		faultSeed  = fs.Uint64("fault-seed", 0, "fault-injection seed (deterministic)")
		faultRate  = fs.Float64("fault-rate", 0, "per-site fault probability in [0,1]")
		faultSites = fs.String("fault-sites", "", "comma-separated injection sites (empty = all registered sites)")
		workers    = fs.Int("workers", 0, "worker-pool width for concurrent schedules (0 = library default; results are identical for any width)")
		streams    = fs.Int("streams", 0, "fabric migration-stream cap for the concurrent schedule columns (0 = off)")
		kexecs     = fs.Int("kexecs", 0, "simultaneous-kexec cap for the concurrent schedule columns (0 = unlimited)")
		fleet      = fs.Bool("fleet", false, "run the fleet CVE-response scenario on the concurrent scheduler instead of the Fig. 13 sweep")
		fleetVMs   = fs.Int("fleet-vms", 32, "VM population for -fleet")
		cve        = fs.String("cve", fleetCVE, "the disclosed vulnerability the -fleet response answers")
		crashRate  = fs.Float64("crash-rate", 0, "fraction in [0,1] of -fleet hosts fail-stopped before the response; the reactive path recovers them and the report gains an availability section")
		mttrBudget = fs.Duration("mttr-budget", 0, "with -crash-rate, declare an MTTR budget: p99 of outages repaired within this window (0 = none declared)")
		warmPool   = fs.Int("warm-pool", 0, "pre-stage up to n warm translation entries before the -fleet response")
		noCache    = fs.Bool("no-cache", false, "disable the transplant cache for -fleet (force every transplant cold)")
	)
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	var err error
	for _, p := range []struct {
		flag  string
		value float64
	}{{"fault-rate", *faultRate}, {"crash-rate", *crashRate}, {"trace-frac", *traceFrac}} {
		if err == nil && !(p.value >= 0 && p.value <= 1) {
			err = fmt.Errorf("-%s %v outside [0,1]", p.flag, p.value)
		}
	}
	for _, n := range []struct {
		flag  string
		value int
	}{{"streams", *streams}, {"kexecs", *kexecs}, {"warm-pool", *warmPool}} {
		if err == nil && n.value < 0 {
			err = fmt.Errorf("-%s %d below its minimum 0", n.flag, n.value)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "clustersim: %v\n", err)
		return options{}, err
	}
	return options{
		hosts: *hosts, vmsPerHost: *vmsPerHost, group: *group, traceFrac: *traceFrac,
		fleet: *fleet, fleetVMs: *fleetVMs, artifactDir: *artDir,
		fc: faultConfig{Seed: *faultSeed, Rate: *faultRate, Sites: *faultSites},
		sc: schedConfig{Workers: *workers, Streams: *streams, Kexecs: *kexecs},
		fl: fleetConfig{CVE: *cve, CrashRate: *crashRate, MTTRBudget: *mttrBudget,
			WarmPool: *warmPool, NoCache: *noCache},
	}, nil
}

// schedConfig carries the concurrent-scheduling flags.
type schedConfig struct {
	Workers int
	Streams int
	Kexecs  int
}

func (sc schedConfig) enabled() bool { return sc.Streams > 0 || sc.Kexecs > 0 }

func (sc schedConfig) limits() sched.Limits {
	return sched.Limits{LinkStreams: sc.Streams, MaxKexecs: sc.Kexecs}
}

// apply sets the worker-pool width for the run and returns a restore
// function. Width only changes wall-clock speed, never results.
func (sc schedConfig) apply() func() {
	if sc.Workers <= 0 {
		return func() {}
	}
	old := par.Workers()
	par.SetWorkers(sc.Workers)
	return func() { par.SetWorkers(old) }
}

// faultConfig carries the fault-injection flags.
type faultConfig struct {
	Seed  uint64
	Rate  float64
	Sites string
}

func (fc faultConfig) enabled() bool { return fc.Rate > 0 || fc.Seed != 0 || fc.Sites != "" }

// plan materializes a fresh fault plan (fresh per run, so every
// compatibility fraction sees the same deterministic shot sequence). With
// injection off its rate is 0: it fires nothing.
func (fc faultConfig) plan() (*fault.Plan, error) {
	sites, err := fault.ParseSites(fc.Sites)
	if err != nil {
		return nil, err
	}
	return fault.NewPlan(fc.Seed, fc.Rate).Restrict(sites...), nil
}

func run(w io.Writer, hosts, vmsPerHost, group int, traceFrac float64, fc faultConfig, sc schedConfig, artifactDir string) error {
	defer sc.apply()()
	model := cluster.DefaultExecutionModel()
	runOnce := func(frac float64, rec *obs.Recorder) (cluster.Result, *cluster.Plan, error) {
		c, err := cluster.New(cluster.Config{
			Hosts: hosts, VMsPerHost: vmsPerHost, StreamFrac: 0.3, CPUFrac: 0.3,
		})
		if err != nil {
			return cluster.Result{}, nil, err
		}
		c.SetInPlaceCompatibleFraction(frac, 42)
		faults, err := fc.plan()
		if err != nil {
			return cluster.Result{}, nil, err
		}
		plan, err := c.PlanUpgrade(group, faults)
		if err == nil {
			err = c.Validate()
		}
		if err != nil {
			return cluster.Result{}, nil, err
		}
		res, err := plan.Execute(model, rec, sched.Serial())
		return res, plan, err
	}

	base, _, err := runOnce(0, nil)
	if err != nil {
		return err
	}
	headers := []string{"InPlaceTP-compatible %", "# migrations", "Migration time",
		"Total time", "Time gain %"}
	if fc.enabled() {
		headers = append(headers, "Outcome", "Quarantined", "Replanned")
	}
	if sc.enabled() {
		headers = append(headers, "Sched total", "Speedup")
	}
	tab := &obs.Table{
		Title: fmt.Sprintf("Cluster upgrade: %d hosts x %d VMs, offline groups of %d (Fig. 13)",
			hosts, vmsPerHost, group),
		Headers: headers,
	}
	for _, pct := range []int{0, 20, 40, 60, 80, 100} {
		if pct == 100 && group > 1 {
			continue
		}
		res, plan, err := runOnce(float64(pct)/100, nil)
		if err != nil {
			return err
		}
		gain := (1 - float64(res.TotalTime)/float64(base.TotalTime)) * 100
		row := []string{fmt.Sprint(pct), fmt.Sprint(res.Migrations),
			res.MigrationTime.Round(time.Second).String(),
			res.TotalTime.Round(time.Second).String(),
			fmt.Sprintf("%.0f", gain)}
		if fc.enabled() {
			row = append(row, string(res.Outcome),
				fmt.Sprint(len(res.FailedHosts)), fmt.Sprint(res.ReplannedVMs))
		}
		if sc.enabled() {
			// The concurrent columns re-time the same plan under the
			// capacity limits.
			sres, err := plan.Execute(model, nil, sc.limits())
			if err != nil {
				return err
			}
			row = append(row, sres.TotalTime.Round(time.Second).String(),
				fmt.Sprintf("%.2fx", float64(res.TotalTime)/float64(sres.TotalTime)))
		}
		tab.AddRow(row...)
	}
	fmt.Fprintln(w, tab.Render())
	if fc.enabled() {
		fmt.Fprintf(w, "fault injection: seed %d, rate %.2f, sites %s\n",
			fc.Seed, fc.Rate, orAll(fc.Sites))
	}

	if artifactDir == "" {
		return nil
	}
	// The planner is clock-less: spans carry explicit virtual times from
	// the execution model, so every artifact is deterministic.
	rec := obs.NewRecorder(nil)
	if _, _, err := runOnce(traceFrac, rec); err != nil {
		return err
	}
	return obs.WriteArtifacts(artifactDir, rec, w)
}

// orAll renders an empty site restriction as "all".
func orAll(s string) string {
	if s == "" {
		return "all"
	}
	return s
}
