// Package chaos is the randomized fleet soak harness: a seeded generator
// emits a sequence of fleet operations — in-place transplants in both
// directions, live migrations, CVE responses, guest workload writes,
// host quarantine/return, fabric sever/restore, rolling-upgrade planner
// sweeps — each optionally composed with a deterministic fault plan, and
// a global auditor re-checks the stack's invariants after every step:
//
//   - frame ownership: no physical frame leaked, tagged to a dead VM, or
//     out of sync with the allocator's accounting (hw.AuditOwners);
//   - guest memory integrity: every surviving VM's memory checksum
//     matches its post-workload baseline, and every byte the guest wrote
//     reads back exactly (transplants and migrations preserve memory);
//   - fleet bookkeeping: the Nova database agrees with per-host truth —
//     placement, VM ids, hypervisor kinds;
//   - vulnerability state: after a successful CVE response, no healthy
//     host runs an affected hypervisor;
//   - observability structure: every span tree, audited as its root
//     ends, stays well-nested on the monotone virtual clock;
//   - liveness: every operation completes or rolls back within a
//     virtual-time budget — a livelock is a failure, not a hang.
//
// Everything is deterministic: same seed, same ops, same audit outcome,
// regardless of the worker-pool size. On a violation the failing run
// shrinks to a minimal reproducing op list and serializes to a replay
// bundle (see Shrink, Bundle, cmd/chaoscheck).
package chaos

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/reactive"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/vulndb"
)

// Config parameterizes one soak run. The zero value is not runnable;
// withDefaults fills in the standard small fleet.
type Config struct {
	// Seed drives both the op generator and every per-op fault plan.
	Seed uint64 `json:"seed"`
	// Ops is the number of operations to generate and execute.
	Ops int `json:"ops"`
	// Hosts is the fleet size; hosts alternate Xen and KVM.
	Hosts int `json:"hosts"`
	// VMs is the tenant population booted before the first op.
	VMs int `json:"vms"`
	// FaultRate is the per-site fault probability for ops that carry a
	// fault plan. Zero disables injection entirely.
	FaultRate float64 `json:"fault_rate"`
	// OpBudget is the virtual-time watchdog budget per operation; an op
	// that charges more is flagged as a livelock. Zero takes a generous
	// default calibrated against the slowest fleet operation.
	OpBudget time.Duration `json:"op_budget,omitempty"`
	// Crash grows the op vocabulary with the reactive-recovery kinds:
	// single-host fail-stops and hangs (OpCrashHV), fleet-wide crash
	// storms swept through the scheduled emergency recovery
	// (OpCrashStorm), and fail-stops forced mid-transplant
	// (OpCrashDuringTransplant). Off by default so existing pinned
	// streams stay byte-identical; a failure detector is attached to
	// Nova only on crash-enabled runs.
	Crash bool `json:"crash,omitempty"`
	// Break arms a deliberate invariant breaker, used to prove the
	// auditor catches what it claims to: "leak-frame" allocates a frame
	// tagged to a dead VM after each transplant, "corrupt-memory"
	// flips a guest byte behind the write journal after each workload.
	Break string `json:"break,omitempty"`
	// Cache enables the transplant cache for the whole soak: every
	// transplant op runs with a shared tpcache.Cache.
	// Caching must be invisible to every invariant the auditor holds —
	// identical traces, checksums, and virtual time — which is exactly
	// what a cached soak proves.
	Cache bool `json:"cache,omitempty"`
}

// flightCap is the flight recorder's capacity: enough to hold the spans
// of the last handful of fleet operations next to a violation, small
// enough that a soak's resident span memory is trivially bounded.
const flightCap = 512

// DefaultOpBudget bounds one fleet operation in virtual time: far above
// a full CVE response over the default fleet (a dozen multi-second
// boots plus evacuations), far below "hung".
const DefaultOpBudget = 30 * time.Minute

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Ops <= 0 {
		c.Ops = 100
	}
	if c.Hosts < 2 {
		c.Hosts = 4
	}
	if c.VMs <= 0 {
		c.VMs = 6
	}
	if c.OpBudget <= 0 {
		c.OpBudget = DefaultOpBudget
	}
	return c
}

// Failure pins one invariant violation to the op whose audit caught it.
type Failure struct {
	OpIndex int `json:"op_index"`
	Op      Op  `json:"op"`
	// Invariant is the broken invariant's kind: "frame-ownership",
	// "memory-integrity", "bookkeeping", "vulndb", "span-structure",
	// or "watchdog".
	Invariant string `json:"invariant"`
	Detail    string `json:"detail"`
}

// Err renders the failure as a classified error: watchdog flags carry
// hterr.ErrWatchdogExpired, everything else hterr.ErrInvariantViolated.
func (f *Failure) Err() error {
	base := fmt.Errorf("chaos: op %d (%s): %s invariant: %s", f.OpIndex, f.Op.Kind, f.Invariant, f.Detail)
	if f.Invariant == "watchdog" {
		return hterr.WatchdogExpired(base)
	}
	return hterr.InvariantViolated(base)
}

// Result is the outcome of one soak run.
type Result struct {
	Config   Config
	Ops      []Op
	Executed int
	OpErrors int
	Faulted  int // ops that carried a fault plan
	// VirtualElapsed is the fleet clock at the end of the run.
	VirtualElapsed time.Duration
	DeadHosts      []string
	Quarantined    []string
	SurvivingVMs   []string
	// Trace is one deterministic line per executed op.
	Trace []string
	// CacheStats is the shared transplant cache's final census on cached
	// runs (zero value otherwise). Informational: the counters are not
	// part of the determinism contract, the trace and audits are.
	CacheStats tpcache.Stats `json:"cache_stats,omitempty"`
	// Failure is the first violation, nil when every audit passed.
	Failure *Failure

	// Obs and Flight expose the run's recorder and its flight recorder,
	// so callers (cmd/chaoscheck) can dump metrics and the last spans as
	// artifacts on a violation. Never serialized into replay bundles.
	Obs    *obs.Recorder       `json:"-"`
	Flight *obs.FlightRecorder `json:"-"`
}

// Summary renders the deterministic run summary — identical for
// identical (seed, ops) regardless of worker count.
func (r *Result) Summary() string {
	counts := map[string]int{}
	for _, op := range r.Ops[:r.Executed] {
		counts[op.Kind]++
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	s := fmt.Sprintf("seed=%d ops=%d executed=%d op-errors=%d faulted=%d virtual=%v\n",
		r.Config.Seed, len(r.Ops), r.Executed, r.OpErrors, r.Faulted, r.VirtualElapsed)
	for _, k := range kinds {
		s += fmt.Sprintf("  %-14s %d\n", k, counts[k])
	}
	s += fmt.Sprintf("  hosts: %d dead, %d quarantined; vms: %d surviving\n",
		len(r.DeadHosts), len(r.Quarantined), len(r.SurvivingVMs))
	if r.Failure != nil {
		s += fmt.Sprintf("  VIOLATION at op %d (%s): %s: %s\n",
			r.Failure.OpIndex, r.Failure.Op.Kind, r.Failure.Invariant, r.Failure.Detail)
	} else {
		s += "  all invariants held\n"
	}
	return s
}

// Run generates cfg.Ops operations from cfg.Seed and executes them with
// a full audit after every step, stopping at the first violation.
func Run(cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	return RunOps(cfg, Generate(cfg))
}

// RunOps executes an explicit op list (a replay, or a shrink candidate)
// under cfg's fleet. The returned error covers harness construction
// only; invariant violations land in Result.Failure.
func RunOps(cfg Config, ops []Op) (*Result, error) {
	cfg = cfg.withDefaults()
	h, err := newHarness(cfg)
	if err != nil {
		return nil, err
	}
	return h.run(ops), nil
}

// run executes ops against the harness's fleet, auditing after each.
func (h *harness) run(ops []Op) *Result {
	res := &Result{Config: h.cfg, Ops: ops, Obs: h.rec, Flight: h.flight}
	for i := range ops {
		line := h.step(&ops[i])
		res.Executed++
		if h.lastErr != nil {
			res.OpErrors++
		}
		if ops[i].Fault != 0 && h.cfg.FaultRate > 0 {
			res.Faulted++
		}
		res.Trace = append(res.Trace, fmt.Sprintf("%3d %-14s %s", i, ops[i].Kind, line))
		if fail := h.audit(i, ops[i]); fail != nil {
			res.Failure = fail
			break
		}
	}
	res.VirtualElapsed = h.clock.Now()
	for _, name := range h.hosts {
		if h.dead[name] {
			res.DeadHosts = append(res.DeadHosts, name)
		} else if h.nova.Quarantined(name) {
			res.Quarantined = append(res.Quarantined, name)
		}
	}
	res.SurvivingVMs = append([]string(nil), h.vms...)
	if h.cache != nil {
		res.CacheStats = h.cache.Stats()
	}
	return res
}

// harness is the live fleet a run executes against.
type harness struct {
	cfg    Config
	clock  *simtime.Clock
	fabric *simnet.Link
	rec    *obs.Recorder
	flight *obs.FlightRecorder
	spans  *obs.Auditor
	nova   *orchestrator.Nova
	db     *vulndb.Database
	// cache is the shared transplant cache on cached soaks (nil
	// otherwise); opts() threads it into every transplant op.
	cache *tpcache.Cache

	hosts []string        // all node names, sorted
	dead  map[string]bool // hosts that lost VMs — machine state is toast
	vms   []string        // surviving tracked VMs, sorted

	baseline map[string]uint64 // VM name → memory checksum after last workload
	// lastRespond holds the CVE of an immediately preceding successful
	// fleet response, consumed by the vulndb audit.
	lastRespond string
	// lastElapsed is the virtual time the last op charged (watchdog input).
	lastErr     error
	lastElapsed time.Duration
}

func newHarness(cfg Config) (*harness, error) {
	clock := simtime.NewClock()
	fabric := simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	// Bounded-memory soak: each ended span tree is audited once and kept
	// in a fixed ring for the violation artifacts, and the recorder holds
	// only open spans, so span memory stays O(flightCap) rather than
	// O(ops). Fault and retry evidence is pinned so it survives
	// wraparound.
	rec := obs.NewRecorder(clock)
	spans := &obs.Auditor{}
	flight := obs.NewFlightRecorder(flightCap)
	flight.SetPin(pinFaultEvidence)
	rec.AddSink(spans)
	rec.AddSink(flight)
	nova := orchestrator.NewNova(clock, fabric)
	nova.SetRecorder(rec)
	// Every retry loop in the stack runs under a tight virtual-time
	// watchdog so a livelocked op fails inside the per-op budget.
	retry := fault.DefaultRetryPolicy()
	retry.MaxElapsed = 2 * time.Minute
	nova.SetRetry(retry)

	h := &harness{
		cfg: cfg, clock: clock, fabric: fabric, rec: rec, flight: flight, spans: spans, nova: nova,
		db:       vulndb.Load(),
		dead:     make(map[string]bool),
		baseline: make(map[string]uint64),
	}
	if cfg.Cache {
		h.cache = tpcache.New()
	}
	if cfg.Crash {
		// The heartbeat monitor shares the soak's seed, so every crash's
		// detection latency is a pure function of (seed, host name).
		nova.SetDetector(reactive.NewDetector(reactive.ProbeConfig{Seed: cfg.Seed}))
	}
	for i := 0; i < cfg.Hosts; i++ {
		kind := hv.KindXen
		if i%2 == 1 {
			kind = hv.KindKVM
		}
		name := fmt.Sprintf("host-%02d", i)
		// A slimmed M1: the paper's cost model with a small enough
		// PhysMem that a many-host fleet stays cheap to audit.
		prof := hw.M1()
		prof.Name = name
		prof.RAMBytes = 2 * hw.GiB
		driver, err := orchestrator.NewLibvirtDriver(clock, hw.NewMachine(clock, prof), kind)
		if err != nil {
			return nil, fmt.Errorf("chaos: boot %s: %w", name, err)
		}
		if err := nova.AddNode(name, driver); err != nil {
			return nil, err
		}
		h.hosts = append(h.hosts, name)
	}
	for i := 0; i < cfg.VMs; i++ {
		name := fmt.Sprintf("vm-%02d", i)
		_, err := nova.BootVM(hv.Config{
			Name: name, VCPUs: 1 + i%2, MemBytes: 64 << 20, HugePages: true,
			Seed: cfg.Seed + uint64(i), InPlaceCompatible: i%4 != 3,
		})
		if err != nil {
			return nil, fmt.Errorf("chaos: boot %s: %w", name, err)
		}
		h.vms = append(h.vms, name)
		// Pre-scenario workload fill; its checksum is the baseline every
		// later audit compares against.
		vm := h.lookupVM(name)
		if vm == nil || vm.Guest == nil {
			return nil, fmt.Errorf("chaos: %s has no guest after boot", name)
		}
		if err := vm.Guest.WriteWorkingSet(0, 32); err != nil {
			return nil, err
		}
		if err := h.refreshBaseline(name); err != nil {
			return nil, err
		}
	}
	return h, nil
}

// lookupVM resolves a tracked VM to its live handle via the Nova row.
func (h *harness) lookupVM(name string) *hv.VM {
	rec, ok := h.nova.Record(name)
	if !ok {
		return nil
	}
	node, ok := h.nova.Node(rec.Node)
	if !ok {
		return nil
	}
	vm, ok := node.Driver.Hypervisor().LookupVM(rec.ID)
	if !ok {
		return nil
	}
	return vm
}

func (h *harness) refreshBaseline(name string) error {
	vm := h.lookupVM(name)
	if vm == nil {
		return fmt.Errorf("chaos: baseline: %s not found", name)
	}
	sum, err := vm.Space.ChecksumAll()
	if err != nil {
		return err
	}
	h.baseline[name] = sum
	return nil
}

// pinFaultEvidence is the flight recorder's pin predicate:
// spans that carry fault injections or retry storms stay resident
// across ring wraparound, because that is exactly the context an
// auditor wants next to a violation.
func pinFaultEvidence(rec obs.SpanRecord) bool {
	if strings.Contains(rec.Name, "fault") {
		return true
	}
	for _, ev := range rec.Events {
		if strings.HasPrefix(ev.Name, "fault.") || strings.HasSuffix(ev.Name, ".retry") {
			return true
		}
	}
	return false
}

// syncVMs drops tracked VMs whose database row vanished — a legitimate,
// reconciled loss (host death) rather than a bookkeeping bug.
func (h *harness) syncVMs() {
	kept := h.vms[:0]
	for _, name := range h.vms {
		if _, ok := h.nova.Record(name); ok {
			kept = append(kept, name)
		} else {
			delete(h.baseline, name)
		}
	}
	h.vms = kept
}
