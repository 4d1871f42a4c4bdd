// Command chaoscheck runs the randomized fleet soak: generate a seeded
// scenario of fleet operations (transplants both directions, live
// migrations, CVE responses, quarantines, fabric cuts, planner sweeps)
// under deterministic fault injection, audit every global invariant
// after each step, and — on a violation — shrink the scenario to a
// minimal reproduction and write a replay bundle.
//
// Usage:
//
//	chaoscheck -seed 1 -ops 500
//	chaoscheck -seed 7 -ops 500 -fault-rate 0.2 -bundle-out fail.json
//	chaoscheck -replay fail.json
//	chaoscheck -seed 1 -ops 200 -break leak-frame     # auditor self-test
//	chaoscheck -seed 1 -ops 500 -crash                # crash-storm soak
//	chaoscheck -seed 3 -ops 50 -record-out trace.json # record a corpus trace
//
// -record-out writes the run's operation trace — violation or not — as
// a replayable trace bundle: the corpus format of FuzzTransplantTrace in
// internal/chaos. A recorded bundle replays with -replay and, prefixed
// with an 8-byte mutation seed, seeds that fuzz target.
//
// -crash grows the op vocabulary with the reactive-recovery kinds:
// single-host fail-stops and hangs (recovered by an emergency
// transplant to the other hypervisor), fleet-wide crash storms swept by
// the scheduled recovery, and mid-transplant double faults that must
// ride the driver's self-heal. The auditor proves frame ownership,
// guest memory checksums and Nova bookkeeping survive every recovery.
//
// Span memory stays bounded however long the soak: each span tree is
// audited whole as it ends and then released, and a flight recorder
// keeps the last 512 span records. On a violation, the run's metrics
// registry (chaos-metrics.json) and the flight-recorder spans
// (chaos-flight.jsonl) are written to -artifact-dir alongside the
// replay bundle.
//
// The run is deterministic: identical flags produce an identical
// summary, trace, and (on failure) a byte-identical bundle at any
// -workers count. Exit status: 0 when every invariant held, 2 on an
// invariant or watchdog violation (the hterr label is printed) and on
// usage errors, 1 on setup errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"hypertp/internal/chaos"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/par"
)

func main() {
	cfg, err := parseArgs(os.Args[1:], os.Stderr)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(2)
	}
	par.SetWorkers(cfg.Workers)
	os.Exit(hterr.Exit(os.Stderr, "chaoscheck", run(os.Stdout, os.Stderr, cfg)))
}

// parseArgs parses the command line into a runConfig. Usage errors,
// including a -fault-rate outside [0,1] and a size below its minimum,
// are reported on stderr and returned; main exits 2 on them.
func parseArgs(args []string, stderr io.Writer) (runConfig, error) {
	fs := flag.NewFlagSet("chaoscheck", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed      = fs.Uint64("seed", 1, "scenario seed (drives ops and fault plans)")
		ops       = fs.Int("ops", 200, "number of fleet operations")
		hosts     = fs.Int("hosts", 4, "fleet size (hosts alternate xen/kvm)")
		vms       = fs.Int("vms", 6, "tenant VMs booted before the first op")
		faultRate = fs.Float64("fault-rate", 0.15, "per-site fault probability in [0,1] for ops carrying a plan")
		crash     = fs.Bool("crash", false, "grow the op vocabulary with hypervisor crashes, hangs, crash storms and mid-transplant double faults (reactive recovery)")
		opBudget  = fs.Duration("op-budget", chaos.DefaultOpBudget, "virtual-time watchdog budget per operation")
		breaker   = fs.String("break", "", "arm a deliberate invariant breaker: leak-frame or corrupt-memory")
		noShrink  = fs.Bool("no-shrink", false, "skip shrinking on violation (report the raw failure)")
		bundleOut = fs.String("bundle-out", "chaos-bundle.json", "replay bundle path written on violation")
		artDir    = fs.String("artifact-dir", ".", "directory for violation artifacts (chaos-metrics.json, chaos-flight.jsonl)")
		replay    = fs.String("replay", "", "replay a previously written bundle instead of generating")
		recordOut = fs.String("record-out", "", "record the generated operation trace as a replayable corpus bundle (FuzzTransplantTrace seed material), violation or not")
		workers   = fs.Int("workers", 0, "host worker pool size (0 = GOMAXPROCS); results are identical for any value")
		verbose   = fs.Bool("v", false, "print the per-op trace")
	)
	if err := fs.Parse(args); err != nil {
		return runConfig{}, err
	}
	var err error
	if !(*faultRate >= 0 && *faultRate <= 1) {
		err = fmt.Errorf("-fault-rate %v outside [0,1]", *faultRate)
	}
	// chaos.Config fills in zero or out-of-range sizes with defaults, so
	// old bundles replay unchanged; on the command line they are errors.
	for _, n := range []struct {
		flag       string
		value, min int
	}{{"ops", *ops, 1}, {"hosts", *hosts, 2}, {"vms", *vms, 1}} {
		if err == nil && n.value < n.min {
			err = fmt.Errorf("-%s %d below its minimum %d", n.flag, n.value, n.min)
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "chaoscheck: %v\n", err)
		return runConfig{}, err
	}
	return runConfig{
		Config: chaos.Config{
			Seed: *seed, Ops: *ops, Hosts: *hosts, VMs: *vms,
			FaultRate: *faultRate, OpBudget: *opBudget, Break: *breaker,
			Crash: *crash,
		},
		Shrink: !*noShrink, BundleOut: *bundleOut, Replay: *replay,
		RecordOut: *recordOut, ArtifactDir: *artDir, Verbose: *verbose,
		Workers: *workers,
	}, nil
}

type runConfig struct {
	chaos.Config
	Shrink      bool
	BundleOut   string
	Replay      string
	RecordOut   string
	ArtifactDir string
	Verbose     bool
	Workers     int
}

// run executes one soak or replay and returns what decides the exit
// status (hterr.Exit): nil when every invariant held, the classified
// violation, or a setup error.
func run(stdout, stderr io.Writer, cfg runConfig) error {
	start := time.Now()
	var res *chaos.Result
	var err error
	expectViolation := false
	if cfg.Replay != "" {
		data, rerr := os.ReadFile(cfg.Replay)
		if rerr != nil {
			return rerr
		}
		b, perr := chaos.ParseBundle(data)
		if perr != nil {
			return perr
		}
		expectViolation = b.IsFailure()
		if expectViolation {
			fmt.Fprintf(stdout, "replaying %s: %d op(s), expected violation: %s\n", cfg.Replay, len(b.Ops), b.Invariant)
		} else {
			fmt.Fprintf(stdout, "replaying %s: %d op(s), recorded trace (no expected violation)\n", cfg.Replay, len(b.Ops))
		}
		res, err = b.Replay()
	} else {
		res, err = chaos.Run(cfg.Config)
	}
	if err != nil {
		return err
	}
	if cfg.Verbose {
		for _, line := range res.Trace {
			fmt.Fprintln(stdout, line)
		}
		fmt.Fprintln(stdout)
	}
	fmt.Fprint(stdout, res.Summary())
	fmt.Fprintf(stderr, "wall time: %v\n", time.Since(start).Round(time.Millisecond))

	if cfg.RecordOut != "" {
		data, merr := chaos.NewTraceBundle(res.Config, res.Ops).Marshal()
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(cfg.RecordOut, data, 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "record: wrote %s (%d op(s); replay with -replay, or feed to FuzzTransplantTrace in internal/chaos)\n",
			cfg.RecordOut, len(res.Ops))
	}

	if res.Failure == nil {
		if expectViolation {
			// A replay that no longer violates means the bug is fixed (or
			// the bundle is stale) — worth a loud note, but a clean exit.
			fmt.Fprintln(stdout, "replay: violation did not reproduce")
		}
		return nil
	}

	ferr := res.Failure.Err()
	if cfg.ArtifactDir != "" {
		// The observability state around the violation ships with it.
		if err := obs.WriteFiles(cfg.ArtifactDir, stdout,
			obs.Artifact{Name: "chaos-metrics.json", Write: res.Obs.Metrics().WriteMetricsJSON},
			obs.Artifact{Name: "chaos-flight.jsonl", Write: res.Flight.WriteJSONL}); err != nil {
			return err
		}
	}
	if cfg.Replay == "" && cfg.Shrink {
		ops, fail := chaos.Shrink(res.Config, res.Ops, res.Failure)
		fmt.Fprintf(stdout, "shrunk: %d op(s) reproduce the %s violation\n", len(ops), fail.Invariant)
		rerun, rerr := chaos.RunOps(res.Config, ops)
		var trace []string
		if rerr == nil {
			trace = rerun.Trace
		}
		data, merr := chaos.NewBundle(res.Config, ops, fail, trace).Marshal()
		if merr != nil {
			return merr
		}
		if werr := os.WriteFile(cfg.BundleOut, data, 0o644); werr != nil {
			return werr
		}
		fmt.Fprintf(stdout, "bundle: wrote %s (replay with -replay %s)\n", cfg.BundleOut, cfg.BundleOut)
		ferr = fail.Err()
	}
	return ferr
}
