package chaos

import (
	"fmt"

	"hypertp/internal/simtime"
)

// The operation vocabulary. Ops reference hosts and VMs by name; the
// executor resolves names against the current fleet state, so a
// generated op stays meaningful (or degrades to a recorded skip) when
// shrinking removes the ops before it.
const (
	// OpWorkload makes a guest write a working set and re-baselines its
	// memory checksum.
	OpWorkload = "workload"
	// OpMigrate live-migrates a VM to a target host.
	OpMigrate = "migrate"
	// OpUpgrade transplants a host in place to the other hypervisor
	// kind (Xen↔KVM, whichever direction applies at execution time).
	OpUpgrade = "upgrade"
	// OpRespond runs the fleet-wide CVE response for the CVE in Target.
	OpRespond = "respond-cve"
	// OpRespondFleet runs the same CVE response on the concurrent fleet
	// scheduler (internal/sched) under capacity limits, exercising the
	// DAG path against the same invariant audits as the serial one.
	OpRespondFleet = "respond-fleet"
	// OpQuarantine drains and fences a host; OpReturn brings it back.
	OpQuarantine = "quarantine"
	OpReturn     = "return"
	// OpLinkDown severs the fabric link; OpLinkUp restores it.
	OpLinkDown = "link-down"
	OpLinkUp   = "link-up"
	// OpSweep runs the clock-less rolling-upgrade planner (the cluster
	// package) as a self-contained consistency exercise.
	OpSweep = "cluster-sweep"
	// OpWarmPoolRefill tops up the transplant warm pool: pre-staged UISR
	// translations later transplants consume as warm starts. A recorded
	// skip when the run has caching disabled.
	OpWarmPoolRefill = "warm-pool-refill"
	// OpCrashHV fail-stops one host's hypervisor (or hangs it when
	// Target is "hang") and runs the emergency recovery; a host whose
	// salvage freezes stays downed and a later OpCrashHV retries it.
	// Generated only on crash-enabled runs (Config.Crash).
	OpCrashHV = "crash-hv"
	// OpCrashStorm crashes Count healthy hosts at once and sweeps the
	// whole downed set through the scheduled emergency recovery under
	// kexec limits.
	OpCrashStorm = "crash-storm"
	// OpCrashDuringTransplant upgrades a host with a fail-stop forced at
	// the worst point — after the pause phase, before translation — so
	// the driver's self-healing double-fault path runs.
	OpCrashDuringTransplant = "crash-during-tp"
)

// Op is one generated operation. The zero fields are omitted from
// bundles to keep them readable.
type Op struct {
	Kind   string `json:"kind"`
	Host   string `json:"host,omitempty"`
	VM     string `json:"vm,omitempty"`
	Target string `json:"target,omitempty"`
	Pages  int    `json:"pages,omitempty"`
	// Count sizes multi-host ops (how many hosts an OpCrashStorm downs).
	Count int `json:"count,omitempty"`
	// Fault seeds this op's fault plan (0 = no injection for this op).
	Fault uint64 `json:"fault,omitempty"`
}

// respondCVEs are the named critical vulnerabilities the generator draws
// from: one affecting both pool members (the VENOM refusal path), one
// Xen-only and two KVM-only (the upgrade paths in each direction).
var respondCVEs = []string{"CVE-2015-3456", "CVE-2016-6258", "CVE-2017-12188", "CVE-2013-0311"}

// source is the draw stream the generator consumes: a seeded
// *simtime.Rand for Generate, or the raw bytes of a fuzz input, so that
// fuzzing reaches every op kind through this one generator body.
type source interface {
	Intn(n int) int
	Uint64() uint64
	Float64() float64
}

// Generate derives cfg.Ops operations from cfg.Seed via SplitMix64 — the
// same stream every time, on every platform, at any worker count.
func Generate(cfg Config) []Op {
	cfg = cfg.withDefaults()
	return generate(cfg, simtime.NewRand(cfg.Seed))
}

// generate draws cfg.Ops operations over cfg's fleet from rng.
func generate(cfg Config, rng source) []Op {
	host := func() string { return fmt.Sprintf("host-%02d", rng.Intn(cfg.Hosts)) }
	vm := func() string { return fmt.Sprintf("vm-%02d", rng.Intn(cfg.VMs)) }
	ops := make([]Op, 0, cfg.Ops)
	for i := 0; i < cfg.Ops; i++ {
		var op Op
		switch w := rng.Intn(100); {
		// The crash vocabulary is carved out of the low end of the weight
		// space only when Config.Crash is set; on crash-free runs these
		// guards never match and no extra rng draws occur, so every
		// pinned pre-crash op stream stays byte-identical.
		case cfg.Crash && w < 8:
			op = Op{Kind: OpCrashHV, Host: host()}
			if rng.Intn(4) == 0 {
				op.Target = "hang"
			}
		case cfg.Crash && w < 12:
			op = Op{Kind: OpCrashStorm, Count: 2 + rng.Intn(3)}
		case cfg.Crash && w < 15:
			op = Op{Kind: OpCrashDuringTransplant, Host: host()}
		case w < 30:
			op = Op{Kind: OpWorkload, VM: vm(), Pages: 1 + rng.Intn(64)}
		case w < 50:
			op = Op{Kind: OpMigrate, VM: vm(), Target: host()}
		case w < 68:
			op = Op{Kind: OpUpgrade, Host: host()}
		case w < 75:
			op = Op{Kind: OpQuarantine, Host: host()}
		case w < 82:
			op = Op{Kind: OpReturn, Host: host()}
		case w < 86:
			op = Op{Kind: OpLinkDown}
		case w < 90:
			op = Op{Kind: OpLinkUp}
		case w < 93:
			op = Op{Kind: OpRespond, Target: respondCVEs[rng.Intn(len(respondCVEs))]}
		case w < 96:
			op = Op{Kind: OpRespondFleet, Target: respondCVEs[rng.Intn(len(respondCVEs))]}
		case w < 98:
			op = Op{Kind: OpWarmPoolRefill}
		default:
			op = Op{Kind: OpSweep}
		}
		// Half the ops run under a fresh deterministic fault plan when
		// injection is enabled; the seed is drawn unconditionally so
		// the op stream does not depend on the fault rate.
		if seed := rng.Uint64() | 1; rng.Float64() < 0.5 && cfg.FaultRate > 0 {
			op.Fault = seed
		}
		ops = append(ops, op)
	}
	return ops
}
