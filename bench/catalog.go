package main

// The names in this file are an interface: BENCHMARK.json declares them,
// bench_test.go checks the two agree, and later perf issues refer to them.

// Clocks. Every metric names the one it is read on, so a host-time number
// is never mistaken for the paper's result.
const (
	clockHost    = "host"     // what the simulator costs on this machine
	clockVirtual = "virtual"  // what the modelled system takes (the paper's result)
	clockNone    = "count"    // a count or ratio read from a public report
	clockAcc     = "accuracy" // virtual time against the paper's printed numbers
)

// Units of the virtual clock carry a sim_ prefix so that a reader (or a
// tool) never averages them with host milliseconds.
const (
	unitSimMs = "sim_ms"
	unitSimS  = "sim_s"
)

type metricDef struct {
	name   string
	unit   string
	clock  string
	better string  // "lower" | "higher"
	bound  float64 // end-to-end only: allowed worsening as a share of the parent's median
	span   string  // per-layer host times: the span whose self time, per traced op, this is
	// perCall divides the span's self time by its call count instead: the
	// probes that do not run once per op.
	perCall bool
}

// endToEnd are the bounded metrics, reported by the untraced run for
// every workload.
var endToEnd = []metricDef{
	{name: "op_wall_ms_p50", unit: "ms", clock: clockHost, better: "lower", bound: 0.25},
	{name: "op_wall_ms_p90", unit: "ms", clock: clockHost, better: "lower", bound: 0.25},
	{name: "ops_per_s", unit: "1/s", clock: clockHost, better: "higher", bound: 0.25},
	{name: "alloc_mb_per_op", unit: "MB", clock: clockHost, better: "lower", bound: 0.05},
	{name: "allocs_per_op", unit: "count", clock: clockHost, better: "lower", bound: 0.05},
	{name: "rss_mb_p90", unit: "MB", clock: clockHost, better: "lower", bound: 0.10},
	{name: "setup_s", unit: "s", clock: clockHost, better: "lower", bound: 0.25},
}

// exact are end-to-end in meaning but cannot carry a relative bound: they
// repeat exactly for a seed (a deterministic simulator), read zero at seed
// state (fail_ratio), or exist on one workload only (sim_err_pct_max). They
// are printed by both runs and declared with the per-layer metrics; any
// change in a sim_* value is caught by sim_digest instead of a bound.
var exact = []metricDef{
	{name: "sim_downtime_ms_p50", unit: unitSimMs, clock: clockVirtual, better: "lower"},
	{name: "sim_time_s_p50", unit: unitSimS, clock: clockVirtual, better: "lower"},
	{name: "sim_err_pct_max", unit: "%", clock: clockAcc, better: "lower"},
	{name: "fail_ratio", unit: "ratio", clock: clockNone, better: "lower"},
}

func hostSpan(name, span string) metricDef {
	return metricDef{name: name, unit: "ms", clock: clockHost, better: "lower", span: span}
}

func count(name, unit, better string) metricDef {
	return metricDef{name: name, unit: unit, clock: clockNone, better: better}
}

func virtual(name, unit string) metricDef {
	return metricDef{name: name, unit: unit, clock: clockVirtual, better: "lower"}
}

// perLayer are reported by the traced run. Host times are self time per
// traced op; counts are means per traced op unless the name says _max or
// _ratio. A metric of a layer the workload never enters reads 0.
var perLayer = append(append([]metricDef(nil), exact...), []metricDef{
	hostSpan("hw.new_machine_ms", "hw.new_machine"),
	hostSpan("hw.physmem_new_ms", "hw.physmem_new"),
	hostSpan("hw.alloc_ms", "hw.alloc"),
	hostSpan("hw.claim_ms", "hw.claim"),
	hostSpan("hw.write_ms", "hw.write"),
	hostSpan("hw.checksum_ms", "hw.checksum"),
	hostSpan("hw.wipe_ms", "hw.wipe"),
	count("hw.dedup_hits", "count", "higher"),

	hostSpan("hv.create_vm_ms", "hv.create_vm"),
	hostSpan("hv.boot_ms", "hv.boot"),
	hostSpan("hv.save_uisr_ms", "hv.save_uisr"),
	hostSpan("hv.mem_extents_ms", "hv.mem_extents"),
	hostSpan("hv.checksum_all_ms", "hv.checksum_all"),
	hostSpan("hv.copy_contents_ms", "hv.copy_contents"),
	hostSpan("guest.write_ws_ms", "guest.write_ws"),
	hostSpan("guest.verify_ms", "guest.verify"),

	hostSpan("pram.build_ms", "pram.build"),
	hostSpan("pram.parse_ms", "pram.parse"),
	count("pram.metadata_bytes", "bytes", "lower"),
	count("pram.snapshot_hits", "count", "higher"),
	count("pram.snapshot_misses", "count", "lower"),
	hostSpan("uisr.encode_ms", "uisr.encode"),
	hostSpan("uisr.decode_ms", "uisr.decode"),
	count("uisr.blob_bytes", "bytes", "lower"),
	hostSpan("kexec.load_ms", "kexec.load"),

	hostSpan("core.inplace_ms", "core.inplace"),
	hostSpan("core.emergency_ms", "core.emergency"),
	count("core.wiped_frames", "count", "lower"),
	count("core.attempts", "count", "lower"),
	count("core.faults", "count", "lower"),
	virtual("core.sim_pram_ms", unitSimMs),
	virtual("core.sim_translation_ms", unitSimMs),
	virtual("core.sim_reboot_ms", unitSimMs),
	virtual("core.sim_restoration_ms", unitSimMs),

	count("tpcache.hits", "count", "higher"),
	count("tpcache.misses", "count", "lower"),
	count("tpcache.warm_starts", "count", "higher"),
	count("tpcache.hit_ratio", "ratio", "higher"),

	hostSpan("migration.run_ms", "migration.run"),
	count("migration.rounds", "count", "lower"),
	count("migration.bytes_sent", "bytes", "lower"),
	count("migration.throttle_levels", "count", "lower"),
	hostSpan("simnet.transfer_ms", "simnet.transfer"),
	count("simnet.transfers", "count", "lower"),

	{name: "sched.execute_ms_1e2", unit: "ms", clock: clockHost, better: "lower", span: "sched.execute_1e2", perCall: true},
	{name: "sched.execute_ms_1e3", unit: "ms", clock: clockHost, better: "lower", span: "sched.execute_1e3", perCall: true},
	{name: "sched.execute_ms_1e4", unit: "ms", clock: clockHost, better: "lower", span: "sched.execute_1e4", perCall: true},
	count("sched.nodes", "count", "lower"),
	hostSpan("orchestrator.build_ms", "orchestrator.build"),
	hostSpan("orchestrator.crash_ms", "orchestrator.crash"),
	hostSpan("orchestrator.recover_ms", "orchestrator.recover"),
	hostSpan("orchestrator.respond_ms", "orchestrator.respond"),
	count("orchestrator.upgraded_nodes", "count", "higher"),
	count("orchestrator.recovered_nodes", "count", "higher"),
	count("orchestrator.migrated_vms", "count", "lower"),
	count("orchestrator.quarantined_nodes", "count", "lower"),
	virtual("reactive.sim_detect_ms_max", unitSimMs),

	count("obs.spans", "count", "lower"),
	hostSpan("obs.export_ms", "obs.export"),
	count("obs.export_bytes", "bytes", "lower"),
	hostSpan("slo.report_ms", "slo.report"),
	virtual("slo.sim_remediation_p95_s", unitSimS),

	{name: "proc.cpu_user_s", unit: "s", clock: clockHost, better: "lower"},
	{name: "proc.cpu_sys_s", unit: "s", clock: clockHost, better: "lower"},
	{name: "proc.minor_faults", unit: "count", clock: clockHost, better: "lower"},
	{name: "proc.gc_cycles", unit: "count", clock: clockHost, better: "lower"},
	{name: "proc.gc_pause_ms", unit: "ms", clock: clockHost, better: "lower"},
	{name: "proc.heap_inuse_peak_mb", unit: "MB", clock: clockHost, better: "lower"},
	{name: "proc.rss_hwm_mb", unit: "MB", clock: clockHost, better: "lower"},
	{name: "bench.trace_overhead_pct", unit: "%", clock: clockHost, better: "lower"},
}...)

// workloadDef names one workload and why it exists; setup builds whatever
// outlives a single op (nothing, for the cold workloads).
type workloadDef struct {
	name   string
	why    string
	passes int // timed passes of a full-scale run without -seconds
	setup  func(e *env) (fixture, error)
}

var workloads = []workloadDef{
	{
		name:   "inplace_cold",
		why:    "fresh testbed per InPlaceTP, no cache: testbed build (hw/hv) dominates, tpcache/sched/obs idle",
		passes: 12,
		setup:  newColdFixture,
	},
	{
		name:   "inplace_warm",
		why:    "36 persistent hosts ping-pong KVM<->Xen on primed caches: tpcache/pram/uisr/wipe path, no testbed build",
		passes: 60,
		setup:  newWarmFixture,
	},
	{
		name:   "migration_precopy",
		why:    "fresh Xen source and Xen/KVM receiver over 1 Gbps: page-content copy/checksum, simnet and stream framing",
		passes: 12,
		setup:  newMigrationFixture,
	},
	{
		name:   "fleet_cve_response",
		why:    "64 hosts/512 VMs crash-recover then CVE response: the only load on sched/orchestrator/reactive/obs/slo",
		passes: 120,
		setup:  newFleetFixture,
	},
}

func lookupWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}
