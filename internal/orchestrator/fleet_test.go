package orchestrator

import (
	"encoding/json"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"testing"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

// fleetSpec sizes a synthetic all-Xen fleet. Hosts use a slimmed M1
// profile so even 200-host fleets stay cheap to build; every fourth VM
// is InPlaceTP-incompatible so responses mix evacuations with
// transplants the way the chaos harness does.
type fleetSpec struct {
	hosts   int
	vms     int
	vmMem   uint64
	hostRAM uint64
	threads int
}

func stockFleet() fleetSpec {
	// The stock 8-host/2-spare scenario: 32 one-vCPU VMs pack eight
	// 6-vCPU hosts (affinity + capacity), leaving two hosts empty as
	// spares.
	return fleetSpec{hosts: 10, vms: 32, vmMem: 64 << 20, hostRAM: 2 * hw.GiB, threads: 8}
}

func bigFleet() fleetSpec {
	// The 200-host/1600-VM benchmark scale; small VMs keep the dense
	// frame tables affordable.
	return fleetSpec{hosts: 200, vms: 1600, vmMem: 16 << 20, hostRAM: hw.GiB / 2, threads: 12}
}

func newFleet(tb testing.TB, spec fleetSpec) *cloud {
	tb.Helper()
	if stock := stockFleet(); spec.vmMem == stock.vmMem && spec.hostRAM == stock.hostRAM && spec.threads == stock.threads {
		// The stock host and VM shape is the exported fixture's.
		nova, err := NewFleet(spec.hosts, spec.vms)
		if err != nil {
			tb.Fatal(err)
		}
		return &cloud{clock: nova.Clock(), nova: nova}
	}
	clock := simtime.NewClock()
	fabric := simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	nova := NewNova(clock, fabric)
	for i := 0; i < spec.hosts; i++ {
		name := fmt.Sprintf("host-%03d", i)
		prof := hw.M1()
		prof.Name = name
		prof.RAMBytes = spec.hostRAM
		prof.Threads = spec.threads
		d, err := NewLibvirtDriver(clock, hw.NewMachine(clock, prof), hv.KindXen)
		if err != nil {
			tb.Fatal(err)
		}
		if err := nova.AddNode(name, d); err != nil {
			tb.Fatal(err)
		}
	}
	for i := 0; i < spec.vms; i++ {
		name := fmt.Sprintf("vm-%04d", i)
		_, err := nova.BootVM(hv.Config{
			Name: name, VCPUs: 1, MemBytes: spec.vmMem, HugePages: true,
			Seed: 7 + uint64(i), InPlaceCompatible: i%4 != 3,
		})
		if err != nil {
			tb.Fatal(err)
		}
	}
	return &cloud{clock: clock, nova: nova}
}

// respondFleet runs the stock CVE response under the given limits.
func respondFleet(tb testing.TB, c *cloud, limits sched.Limits) *FleetResponse {
	tb.Helper()
	c.nova.SetFleetLimits(&limits)
	resp, err := c.nova.RespondToCVE(vulndb.Load(), "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		tb.Fatal(err)
	}
	return resp
}

// placement flattens the database into comparable placement lines.
func placement(n *Nova) []string {
	var out []string
	for _, rec := range n.Records() {
		out = append(out, fmt.Sprintf("%s@%s:%v", rec.Name, rec.Node, rec.Kind))
	}
	return out
}

func TestFleetResponseConcurrentSpeedupAndPlacement(t *testing.T) {
	serial := newFleet(t, stockFleet())
	rSerial := respondFleet(t, serial, sched.Serial())

	conc := newFleet(t, stockFleet())
	rConc := respondFleet(t, conc, sched.Limits{MaxKexecs: 4, LinkStreams: 4})

	if rSerial.Outcome != hterr.OutcomeCompleted || rConc.Outcome != hterr.OutcomeCompleted {
		t.Fatalf("outcomes: serial %s, concurrent %s", rSerial.Outcome, rConc.Outcome)
	}
	if len(rConc.UpgradedNodes) != stockFleet().hosts {
		t.Fatalf("concurrent upgraded %d hosts, want %d", len(rConc.UpgradedNodes), stockFleet().hosts)
	}
	// Same planner, same placement decisions: the final world must be
	// identical; only the timeline compresses.
	ps, pc := placement(serial.nova), placement(conc.nova)
	if fmt.Sprint(ps) != fmt.Sprint(pc) {
		t.Fatalf("placement diverged:\nserial:     %v\nconcurrent: %v", ps, pc)
	}
	if rConc.Elapsed*2 > rSerial.Elapsed {
		t.Fatalf("makespan %v not >=2x better than serial %v", rConc.Elapsed, rSerial.Elapsed)
	}
	// Whole fleet secured with guest state intact.
	for _, name := range conc.nova.Nodes() {
		node, _ := conc.nova.Node(name)
		if node.Driver.HypervisorKind() != hv.KindKVM {
			t.Fatalf("node %s still on %v", name, node.Driver.HypervisorKind())
		}
		for _, vm := range node.Driver.VMs() {
			if err := vm.Guest.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func TestFleetResponseSpansWellNested(t *testing.T) {
	c := newFleet(t, stockFleet())
	rec := obs.NewRecorder(c.clock)
	aud, col := &obs.Auditor{}, &obs.Collector{}
	rec.AddSink(aud)
	rec.AddSink(col)
	c.nova.SetRecorder(rec)
	respondFleet(t, c, sched.Limits{MaxKexecs: 4, LinkStreams: 4})
	if vs := aud.Violations(); vs != nil {
		t.Fatalf("span violations after concurrent response: %v", vs)
	}
	recs := col.Records()
	i := slices.IndexFunc(recs, func(r obs.SpanRecord) bool {
		return r.Parent == -1 && r.Name == "nova.respond-cve"
	})
	if i < 0 {
		t.Fatal("no nova.respond-cve root span")
	}
	if i+1 == len(recs) || recs[i+1].Parent != recs[i].ID {
		t.Fatal("respond-cve span has no children")
	}
}

// An injected host failure mid-schedule: the host is quarantined, its
// VMs replan as drain migrations through the same scheduler, and the
// response completes degraded — the scheduled twin of
// TestRespondToCVEDegradesOnHostFault.
func TestFleetResponseHostFaultReplansMidSchedule(t *testing.T) {
	c := newFleet(t, stockFleet())
	c.nova.SetFaults(fault.NewPlan(11, 0).ForceAt(fault.SiteClusterHost, 1))
	c.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 4, LinkStreams: 4})
	resp, err := c.nova.RespondToCVE(vulndb.Load(), "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != hterr.OutcomeDegraded || resp.Faults != 1 {
		t.Fatalf("outcome = %s faults = %d, want degraded/1", resp.Outcome, resp.Faults)
	}
	if len(resp.QuarantinedNodes) != 1 {
		t.Fatalf("quarantined = %v, want exactly one host", resp.QuarantinedNodes)
	}
	q := resp.QuarantinedNodes[0]
	if !c.nova.Quarantined(q) {
		t.Fatal("host not marked quarantined")
	}
	// Every database row still points at a live VM on a healthy host.
	for _, rec := range c.nova.Records() {
		if rec.Node == q {
			t.Fatalf("VM %s still recorded on quarantined host", rec.Name)
		}
		node, _ := c.nova.Node(rec.Node)
		vm, ok := node.Driver.Hypervisor().LookupVM(rec.ID)
		if !ok {
			t.Fatalf("VM %s unreachable on %s", rec.Name, rec.Node)
		}
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if len(resp.ReplannedVMs)+len(resp.StrandedVMs) == 0 && vmCount(c.nova, q) > 0 {
		t.Fatal("quarantined host had VMs but none were replanned or stranded")
	}
}

func vmCount(n *Nova, host string) int {
	node, _ := n.Node(host)
	return len(node.Driver.VMs())
}

// fleetReportBytes serializes everything observable about a response:
// the report itself, the final placement, and the virtual makespan.
func fleetReportBytes(tb testing.TB, c *cloud, resp *FleetResponse) []byte {
	tb.Helper()
	blob, err := json.Marshal(struct {
		Resp      *FleetResponse
		Placement []string
		Now       time.Duration
	}{resp, placement(c.nova), c.clock.Now()})
	if err != nil {
		tb.Fatal(err)
	}
	return blob
}

// The 200-host fleet report must be byte-identical for any worker-pool
// width — the same contract every prior layer holds.
func TestFleetResponseDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("200-host fleet in -short mode")
	}
	run := func(workers int) []byte {
		old := par.Workers()
		par.SetWorkers(workers)
		defer par.SetWorkers(old)
		c := newFleet(t, bigFleet())
		resp := respondFleet(t, c, sched.Limits{MaxKexecs: 8, LinkStreams: 8})
		return fleetReportBytes(t, c, resp)
	}
	b1 := run(1)
	b8 := run(8)
	if string(b1) != string(b8) {
		t.Fatalf("fleet report differs across workers:\n-workers 1: %s\n-workers 8: %s", b1, b8)
	}
}

func BenchmarkFleetResponse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newFleet(b, bigFleet())
		b.StartTimer()
		resp := respondFleet(b, c, sched.Limits{MaxKexecs: 8, LinkStreams: 8})
		if len(resp.UpgradedNodes) != bigFleet().hosts {
			b.Fatalf("upgraded %d hosts, want %d", len(resp.UpgradedNodes), bigFleet().hosts)
		}
	}
}

// BenchmarkFleetResponseSLO is the same 200-host response with the full
// SLO/streaming observability path attached: recorder with a
// head-sampled flight recorder sink, and the vulnerability-window
// tracker. Compared against BenchmarkFleetResponse
// it is the end-to-end instrumentation tax of the export mode; the budget
// is the repo benchmark's bench.trace_overhead_pct ≤ 5 %.
func BenchmarkFleetResponseSLO(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newFleet(b, bigFleet())
		tracker := traceSLO(c)
		b.StartTimer()
		resp := respondFleet(b, c, sched.Limits{MaxKexecs: 8, LinkStreams: 8})
		if len(resp.UpgradedNodes) != bigFleet().hosts {
			b.Fatalf("upgraded %d hosts, want %d", len(resp.UpgradedNodes), bigFleet().hosts)
		}
		if !tracker.Pass(c.clock.Now()) {
			b.Fatal("fleet SLO violated")
		}
	}
}

// traceSLO attaches the export-mode observability path: a recorder with
// a head-sampled flight recorder sink, and a vulnerability-window tracker
// mirrored into its metrics.
func traceSLO(c *cloud) *slo.Tracker {
	rec := obs.NewRecorder(c.clock)
	rec.AddSink(obs.NewHeadSampler(1, 0.1, obs.NewFlightRecorder(256)))
	c.nova.SetRecorder(rec)
	tracker := slo.NewTracker()
	tracker.SetRegistry(rec.Metrics())
	rec.AddSink(tracker)
	return tracker
}

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
// The budgets below count with the collector off for the same reason: a
// collection empties those pools, and when one lands is not a count.
var raceEnabled bool

// TestFleetAllocBudgets pins one fleet operation of each kind on the stock
// fleet (10 hosts, 32 VMs) at one worker, the fleet build included: a CVE
// response; the same response with the streaming observability and SLO
// tracker attached; and a crash-storm
// recovery of five hosts. Each host op the executor emits is a few
// hundred allocations, so an extra one per op moves every row. The plain
// response is pinned in heap bytes too, the least of three runs: each
// cold hop writes a VM's state bytes once, into their frames.
func TestFleetAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	limits := sched.Limits{MaxKexecs: 4, LinkStreams: 4}
	for _, tc := range []struct {
		name   string
		budget float64
		bytes  uint64 // heap bytes per run; 0: counted only
		run    func() error
	}{
		{"RespondToCVE", 4882, 1993024, func() error {
			respondFleet(t, newFleet(t, stockFleet()), limits)
			return nil
		}},
		{"RespondToCVE/slo", 5116, 0, func() error {
			c := newFleet(t, stockFleet())
			traceSLO(c)
			respondFleet(t, c, limits)
			return nil
		}},
		{"RecoverFleet", 2028, 0, func() error {
			c := newFleet(t, stockFleet())
			stormFleet(t, c, []int{0, 2, 5, 8, 9})
			c.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 2})
			_, err := c.nova.RecoverFleet(core.DefaultOptions())
			return err
		}},
	} {
		var err error
		run := func() { err = tc.run() }
		if n := testing.AllocsPerRun(2, run); n > tc.budget || err != nil {
			t.Errorf("%s allocated %v times, budget %v (err %v)", tc.name, n, tc.budget, err)
		}
		if tc.bytes == 0 {
			continue
		}
		// Bytes are measured on one P. The runtime packs allocations
		// under 16 B into 16 B blocks, one open block per P, and counts a
		// block when it opens one; a run the scheduler moves between Ps
		// finds the other P's block at another fill, so the same
		// allocations can read 16 B or more higher (of 320 runs at
		// GOMAXPROCS 2, 10 did, by 16 to 288 B; of 320 at 1, none).
		procs := runtime.GOMAXPROCS(1)
		least := ^uint64(0)
		for range 3 {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			run()
			runtime.ReadMemStats(&ms1)
			least = min(least, ms1.TotalAlloc-ms0.TotalAlloc)
		}
		runtime.GOMAXPROCS(procs)
		if least > tc.bytes || err != nil {
			t.Errorf("%s allocated %d B, budget %d (err %v)", tc.name, least, tc.bytes, err)
		}
	}
}
