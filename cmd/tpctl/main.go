// Command tpctl runs one hypervisor transplant on a simulated host and
// prints the phase breakdown — the operator's view of a single InPlaceTP
// or MigrationTP operation.
//
// Usage:
//
//	tpctl -mode inplace  -from xen -to kvm -machine M1 -vms 1 -vcpus 1 -mem-gib 1
//	tpctl -mode migration -from xen -to kvm -vms 2 -mem-gib 1
//	tpctl -mode inplace -from xen -to kvm -cve CVE-2016-6258   # policy check first
//	tpctl -mode inplace -no-cache           # force the cold path
//	tpctl -mode inplace -artifact-dir run/
//	tpctl -mode inplace -fault-seed 42 -fault-rate 1 -fault-sites kexec.handover -fault-plan
//	tpctl -mode inplace -crash-at idle        # fail-stop, then emergency recovery
//	tpctl -mode inplace -crash-at transplant  # double fault at the worst point
//
// -artifact-dir writes the run's artifacts into a directory: trace.json
// (Chrome trace_event; open in Perfetto or chrome://tracing),
// spans.jsonl (every span record, one per line), metrics.json and
// metrics.prom (the metrics registry as JSON and in Prometheus text
// exposition format). All are deterministic: byte-identical across runs.
//
// -fault-seed/-fault-rate/-fault-sites arm deterministic fault
// injection at the named phase boundaries; the engine's recovery paths
// (rollback-to-source before the kexec point, crash recovery after it,
// bounded migration retry) ride the faults out. -fault-plan prints the
// shots that actually fired.
//
// -crash-at fail-stops the source hypervisor (idle: between operations;
// hang: wedged, then fenced; transplant: mid-transplant with guests
// paused — the double fault) and salvages the guests with an emergency
// transplant to -to. Exit status 2 when a crash goes unrecovered, the
// same convention as invariant violations.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/vulndb"
)

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	os.Exit(hterr.Exit(os.Stderr, "tpctl", run(os.Stdout, cfg)))
}

// parseArgs parses the command line into a runConfig. Usage errors,
// including a -fault-rate outside [0,1], are reported on stderr and
// returned; main exits 2 on them.
func parseArgs(args []string, stderr io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("tpctl", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		mode       = fs.String("mode", "inplace", "transplant mode: inplace or migration")
		from       = fs.String("from", "xen", "current hypervisor: xen, kvm or nova")
		to         = fs.String("to", "kvm", "target hypervisor: xen, kvm or nova")
		machine    = fs.String("machine", "M1", "machine profile: M1 or M2")
		vms        = fs.Int("vms", 1, "number of VMs on the host")
		vcpus      = fs.Int("vcpus", 1, "vCPUs per VM")
		memGiB     = fs.Int("mem-gib", 1, "memory per VM in GiB")
		cve        = fs.String("cve", "", "check the transplant decision policy for this CVE first")
		noPrep     = fs.Bool("no-prepare", false, "disable pre-pause preparation (ablation)")
		noPar      = fs.Bool("no-parallel", false, "disable parallel translation (ablation)")
		noHuge     = fs.Bool("no-hugepages", false, "disable huge-page PRAM entries (ablation)")
		noEarly    = fs.Bool("no-early-restore", false, "disable early restoration (ablation)")
		artDir     = fs.String("artifact-dir", "", "write the run's trace.json, spans.jsonl, metrics.json and metrics.prom into this directory")
		faultSeed  = fs.Uint64("fault-seed", 0, "fault-injection seed (deterministic; 0 with rate 0 disables)")
		faultRate  = fs.Float64("fault-rate", 0, "per-site fault probability in [0,1]")
		faultSites = fs.String("fault-sites", "", "comma-separated injection sites (empty = all registered sites)")
		faultPlan  = fs.Bool("fault-plan", false, "print the fault shots that fired during the run")
		noCache    = fs.Bool("no-cache", false, "disable the transplant cache (force the cold path)")
		crashAt    = fs.String("crash-at", "", "fail-stop the source hypervisor and run the emergency recovery: idle, hang, or transplant (crash mid-transplant, at the double-fault window)")
		verbose    = fs.Bool("v", false, "print the Fig. 3 workflow: the phase spans, one line each")
	)
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	if !(*faultRate >= 0 && *faultRate <= 1) {
		err := fmt.Errorf("-fault-rate %v outside [0,1]", *faultRate)
		fmt.Fprintf(stderr, "tpctl: %v\n", err)
		return runConfig{}, err
	}
	return runConfig{
		Mode: *mode, From: *from, To: *to, Machine: *machine,
		VMs: *vms, VCPUs: *vcpus, MemGiB: *memGiB, CVE: *cve,
		Opts: core.Options{
			PrepareBeforePause: !*noPrep,
			Parallel:           !*noPar,
			HugePages:          !*noHuge,
			EarlyRestoration:   !*noEarly,
		},
		ArtifactDir: *artDir,
		FaultSeed:   *faultSeed,
		FaultRate:   *faultRate,
		FaultSites:  *faultSites,
		FaultPlan:   *faultPlan,
		NoCache:     *noCache,
		CrashAt:     *crashAt,
		Verbose:     *verbose,
	}, nil
}

func parseProfile(s string) (*hw.Profile, error) {
	switch s {
	case "M1", "m1":
		return hw.M1(), nil
	case "M2", "m2":
		return hw.M2(), nil
	default:
		return nil, fmt.Errorf("unknown machine %q (want M1 or M2)", s)
	}
}

// runConfig is one tpctl invocation's worth of parsed flags.
type runConfig struct {
	Mode, From, To, Machine string
	VMs, VCPUs, MemGiB      int
	CVE                     string
	Opts                    core.Options
	ArtifactDir             string
	FaultSeed               uint64
	FaultRate               float64
	FaultSites              string
	FaultPlan               bool
	NoCache                 bool
	CrashAt                 string
	Verbose                 bool
}

func run(stdout io.Writer, cfg runConfig) error {
	fromKind, err := hv.ParseKind(cfg.From)
	if err != nil {
		return err
	}
	toKind, err := hv.ParseKind(cfg.To)
	if err != nil {
		return err
	}
	profile, err := parseProfile(cfg.Machine)
	if err != nil {
		return err
	}

	if cfg.CVE != "" {
		db := vulndb.Load()
		rec, ok := db.Lookup(cfg.CVE)
		if !ok {
			return fmt.Errorf("unknown CVE %q", cfg.CVE)
		}
		fmt.Fprintf(stdout, "policy check: %s (CVSS %.1f, %s, affects %v)\n",
			rec.ID, rec.CVSS, rec.Severity(), rec.Affects)
		worthwhile, target := db.TransplantWorthwhile(cfg.CVE, cfg.From, []string{"xen", "kvm"})
		if !worthwhile {
			return fmt.Errorf("policy: transplant not indicated for %s on %s", cfg.CVE, cfg.From)
		}
		fmt.Fprintf(stdout, "policy: transplant %s → %s indicated\n\n", cfg.From, target)
	}

	clock := simtime.NewClock()
	srcMachine := hw.NewMachine(clock, profile)
	engine := core.NewEngine(clock, srcMachine)
	var rec *obs.Recorder
	spans := &obs.Collector{}
	if cfg.Verbose || cfg.ArtifactDir != "" {
		rec = obs.NewRecorder(clock)
		rec.AddSink(spans)
		engine.Obs = rec
	}
	var plan *fault.Plan
	if cfg.FaultRate > 0 || cfg.FaultSeed != 0 || cfg.FaultSites != "" {
		sites, err := fault.ParseSites(cfg.FaultSites)
		if err != nil {
			return err
		}
		plan = fault.NewPlan(cfg.FaultSeed, cfg.FaultRate).SetClock(clock).SetRecorder(rec)
		if len(sites) > 0 {
			plan.Restrict(sites...)
		}
		engine.Fault = plan
		fmt.Fprintf(stdout, "fault injection: seed %d, rate %.2f, sites %s\n\n",
			cfg.FaultSeed, cfg.FaultRate, orAll(cfg.FaultSites))
	}
	src, err := engine.BootHypervisor(fromKind)
	if err != nil {
		return err
	}
	var vmIDs []hv.VMID
	for i := 0; i < cfg.VMs; i++ {
		vm, err := src.CreateVM(hv.Config{
			Name:  fmt.Sprintf("vm-%02d", i),
			VCPUs: cfg.VCPUs, MemBytes: uint64(cfg.MemGiB) << 30, HugePages: true,
			Seed: uint64(100 + i), InPlaceCompatible: true,
		})
		if err != nil {
			return err
		}
		vmIDs = append(vmIDs, vm.ID)
	}
	fmt.Fprintf(stdout, "host: %s running %s with %d VM(s) of %d vCPU / %d GiB\n\n",
		profile.Name, src.Name(), cfg.VMs, cfg.VCPUs, cfg.MemGiB)

	var cache *tpcache.Cache
	if !cfg.NoCache {
		cache = tpcache.New()
		cfg.Opts.Cache = cache
	}

	switch cfg.Mode {
	case "inplace":
		var rep *core.InPlaceReport
		switch cfg.CrashAt {
		case "":
			_, rep, err = engine.InPlace(src, toKind, cfg.Opts)
			if err != nil {
				return err
			}
		case "idle", "hang":
			// Fail-stop (or wedge) the hypervisor between operations and
			// run the salvage path directly — the detector-triggered shape.
			if cfg.CrashAt == "hang" {
				src.Hang("operator-injected hang")
				fmt.Fprintf(stdout, "hang injected: %s wedged; fencing and salvaging\n\n", src.Name())
			} else {
				src.Crash("operator-injected crash")
				fmt.Fprintf(stdout, "crash injected: %s fail-stopped while idle\n\n", src.Name())
			}
			_, rep, err = engine.Emergency(src, toKind, cfg.Opts)
			if err != nil {
				return err
			}
		case "transplant":
			// Force the double fault: the source dies at the worst point,
			// guests paused and state untranslated; the emergency path
			// must finish the job.
			if plan == nil {
				plan = fault.NewPlan(1, 0).SetClock(clock).SetRecorder(rec)
				engine.Fault = plan
			}
			plan.ForceAt(fault.SiteHVCrashDuringTP, 1)
			if _, _, err := engine.InPlace(src, toKind, cfg.Opts); err == nil {
				return fmt.Errorf("forced mid-transplant crash did not fire")
			} else if hterr.Class(err) != hterr.ErrHypervisorCrashed {
				return err
			}
			fmt.Fprintf(stdout, "crash injected: %s fail-stopped mid-transplant; transplant abandoned, salvaging\n\n", src.Name())
			_, rep, err = engine.Emergency(src, toKind, cfg.Opts)
			if err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown -crash-at %q (want idle, hang, or transplant)", cfg.CrashAt)
		}
		title := fmt.Sprintf("InPlaceTP %s → %s on %s", cfg.From, cfg.To, profile.Name)
		if rep.Emergency {
			title = fmt.Sprintf("Emergency transplant %s → %s on %s", cfg.From, cfg.To, profile.Name)
		}
		tab := &obs.Table{
			Title:   title,
			Headers: []string{"Phase", "Duration"},
		}
		tab.AddRow("PRAM construction (pre-pause)", rep.PRAM.String())
		tab.AddRow("UISR translation", rep.Translation.String())
		tab.AddRow("micro-reboot", rep.Reboot.String())
		tab.AddRow("restoration", rep.Restoration.String())
		tab.AddRow("NIC reinitialization (overlapped)", rep.Network.String())
		tab.AddRow("downtime", rep.Downtime.String())
		tab.AddRow("network downtime", rep.NetworkDowntime.String())
		tab.AddRow("total", rep.Total.String())
		fmt.Fprintln(stdout, tab.Render())
		fmt.Fprintf(stdout, "overheads: PRAM %d B, UISR %d B, wiped %d frames\n",
			rep.PRAMMetadataBytes, rep.UISRBytes, rep.WipedFrames)
		fmt.Fprintf(stdout, "outcome: %s (attempts %d, faults absorbed %d)\n",
			rep.Outcome, rep.Summary().Attempts, rep.Faults)
		if cache != nil {
			fmt.Fprintf(stdout, "cache: %s\n", cache.Stats())
		}
		if cfg.Verbose {
			fmt.Fprintf(stdout, "\nworkflow trace:\n")
			printWorkflow(stdout, spans.Records())
		}
	case "migration":
		if cfg.CrashAt != "" {
			return fmt.Errorf("-crash-at exercises the in-place emergency path; use -mode inplace")
		}
		dstMachine := hw.NewMachine(clock, profile)
		dstEngine := core.NewEngine(clock, dstMachine)
		dst, err := dstEngine.BootHypervisor(toKind)
		if err != nil {
			return err
		}
		link := simnet.NewLink(clock, "pair", simnet.Gbps1, 100*time.Microsecond)
		link.SetRecorder(rec)
		recv := migration.NewReceiver(clock, dst, 1)
		tab := &obs.Table{
			Title:   fmt.Sprintf("MigrationTP %s → %s over 1 Gbps", cfg.From, cfg.To),
			Headers: []string{"VM", "Rounds", "Bytes sent", "Downtime", "Total", "Attempts", "Outcome"},
		}
		var retry fault.RetryPolicy
		if plan != nil {
			retry = fault.DefaultRetryPolicy()
		}
		for _, id := range vmIDs {
			rep, err := core.MigrationTP(clock, core.MigrationTPParams{
				Link: link, Source: src, Dest: recv, VMID: id, Obs: rec,
				Fault: plan, Retry: retry,
			})
			if err != nil {
				return err
			}
			tab.AddRow(rep.VMName, fmt.Sprint(rep.Rounds), fmt.Sprint(rep.BytesSent),
				rep.Downtime.String(), rep.TotalTime.String(),
				fmt.Sprint(rep.Attempts), string(rep.Outcome))
		}
		fmt.Fprintln(stdout, tab.Render())
	default:
		return fmt.Errorf("unknown mode %q (want inplace or migration)", cfg.Mode)
	}
	if cfg.ArtifactDir != "" {
		if err := obs.WriteArtifacts(cfg.ArtifactDir, spans.Records(), rec.Metrics(), stdout); err != nil {
			return err
		}
	}
	if cfg.FaultPlan && plan != nil {
		shots := plan.Shots()
		if len(shots) == 0 {
			fmt.Fprintln(stdout, "fault plan: no shots fired")
		} else {
			fmt.Fprintf(stdout, "fault plan: %d shot(s) fired:\n", len(shots))
			for _, s := range shots {
				fmt.Fprintln(stdout, "  "+s.String())
			}
		}
	}
	return nil
}

// printWorkflow prints each transplant's span tree — the root, the
// Fig. 3 phases under it, and the recovery passes nested in them — one
// line per span record: virtual start, name and attributes.
func printWorkflow(w io.Writer, recs []obs.SpanRecord) {
	for _, rec := range recs {
		line := fmt.Sprintf("%13.6fs  %*s%-12s", rec.Start.Seconds(), 2*rec.Depth, "", rec.Name)
		for _, a := range rec.Attrs {
			line += " " + a.Key + "=" + a.Value
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// orAll renders an empty site restriction as "all".
func orAll(s string) string {
	if s == "" {
		return "all"
	}
	return s
}
