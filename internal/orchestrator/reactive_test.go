package orchestrator

import (
	"encoding/json"
	"fmt"
	"testing"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/par"
	"hypertp/internal/reactive"
	"hypertp/internal/sched"
	"hypertp/internal/slo"
)

// reactiveCloud is newCloud plus the reactive control plane: a failure
// detector with a pinned seed and an SLO tracker for the outage ledger.
func reactiveCloud(t *testing.T, nodes int) (*cloud, *slo.Tracker) {
	t.Helper()
	c := newCloud(t, nodes, hv.KindXen)
	det := reactive.NewDetector(reactive.ProbeConfig{Seed: 20210426})
	c.nova.SetDetector(det)
	return c, trackSLO(c)
}

func TestCrashAndRecoverHost(t *testing.T) {
	c, tracker := reactiveCloud(t, 2)
	for i := 0; i < 3; i++ {
		if _, err := c.nova.BootVM(vmCfg(fmt.Sprintf("web-%d", i), true)); err != nil {
			t.Fatal(err)
		}
	}
	rec0, _ := c.nova.Record("web-0")
	host := rec0.Node
	c.clock.Advance(time.Second)

	ev, err := c.nova.CrashHost(host, "injected panic")
	if err != nil {
		t.Fatal(err)
	}
	if ev.CrashedAt != time.Second || ev.DetectedAt <= ev.CrashedAt {
		t.Fatalf("event = %+v", ev)
	}
	if !c.nova.HostDowned(host) || len(c.nova.Downed()) != 1 {
		t.Fatal("host not in the downed ledger")
	}
	if _, err := c.nova.CrashHost(host, "again"); err == nil {
		t.Fatal("double crash accepted")
	}
	// The scheduler must not place new work on a downed host.
	placed, err := c.nova.BootVM(vmCfg("fresh", true))
	if err != nil {
		t.Fatal(err)
	}
	if placed == host {
		t.Fatal("new VM placed on a downed host")
	}

	up, err := c.nova.RecoverHost(host, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if up.Target != hv.KindKVM || up.Report == nil || !up.Report.Emergency {
		t.Fatalf("record = %+v", up)
	}
	if c.nova.HostDowned(host) {
		t.Fatal("host still downed after recovery")
	}
	// MTTR = detection latency + salvage/transplant time, measured from
	// the actual crash.
	if up.Elapsed != c.clock.Now()-ev.CrashedAt || up.Elapsed <= ev.Latency() {
		t.Fatalf("elapsed = %v (latency %v)", up.Elapsed, ev.Latency())
	}
	node, _ := c.nova.Node(host)
	if node.Driver.HypervisorKind() != hv.KindKVM {
		t.Fatalf("host runs %v after emergency", node.Driver.HypervisorKind())
	}
	for i := 0; i < 3; i++ {
		rec, ok := c.nova.Record(fmt.Sprintf("web-%d", i))
		if !ok || rec.Kind != hv.KindKVM {
			t.Fatalf("record = %+v", rec)
		}
		vm, ok := node.Driver.Hypervisor().LookupVM(rec.ID)
		if !ok {
			t.Fatalf("VM %s missing after recovery", rec.Name)
		}
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	a := tracker.Availability(c.clock.Now())
	if a.Hosts != 1 || a.Outages != 1 || a.Open != 0 || a.MTTRMax != up.Elapsed {
		t.Fatalf("availability = %+v, want one closed outage of %v", a, up.Elapsed)
	}
}

func TestHangIsFencedAndRecovered(t *testing.T) {
	c, tracker := reactiveCloud(t, 2)
	if _, err := c.nova.BootVM(vmCfg("app", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("app")
	ev, err := c.nova.HangHost(rec.Node, "watchdog wedge")
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Hung {
		t.Fatal("hang not marked hung")
	}
	if _, err := c.nova.RecoverHost(rec.Node, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if a := tracker.Availability(c.clock.Now()); a.Open != 0 {
		t.Fatalf("availability = %+v", a)
	}
}

func TestRecoverEmptyDownedHost(t *testing.T) {
	c, _ := reactiveCloud(t, 2)
	// b-node has no VMs: recovery is a fresh boot of the emergency
	// target, not a salvage.
	if _, err := c.nova.CrashHost(nodeName(1), "injected"); err != nil {
		t.Fatal(err)
	}
	up, err := c.nova.RecoverHost(nodeName(1), core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if up.Report != nil || up.Target != hv.KindKVM {
		t.Fatalf("record = %+v, want fresh boot to kvm", up)
	}
	node, _ := c.nova.Node(nodeName(1))
	if node.Driver.HypervisorKind() != hv.KindKVM {
		t.Fatal("empty host not rebooted to the emergency target")
	}
}

func TestReactiveErrors(t *testing.T) {
	c, _ := reactiveCloud(t, 1)
	if _, err := c.nova.CrashHost("ghost", "x"); err == nil {
		t.Fatal("crash of unknown node accepted")
	}
	if _, err := c.nova.RecoverHost(nodeName(0), core.DefaultOptions()); err == nil {
		t.Fatal("recovery of a healthy host accepted")
	}
}

// A hypervisor fail-stop mid-transplant self-heals inside the driver:
// HostLiveUpgrade falls through to the emergency path and the upgrade
// still lands on the target, with the aborted attempt's faults counted.
func TestHostLiveUpgradeSelfHealsDoubleFault(t *testing.T) {
	c, _ := reactiveCloud(t, 2)
	for i := 0; i < 2; i++ {
		if _, err := c.nova.BootVM(vmCfg(fmt.Sprintf("db-%d", i), true)); err != nil {
			t.Fatal(err)
		}
	}
	rec, _ := c.nova.Record("db-0")
	c.nova.SetFaults(fault.NewPlan(11, 0).ForceAt(fault.SiteHVCrashDuringTP, 1))
	up, err := c.nova.HostLiveUpgrade(rec.Node, hv.KindKVM, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if up.Report == nil || !up.Report.Emergency {
		t.Fatalf("report = %+v, want the emergency fallthrough", up.Report)
	}
	if up.Report.Faults < 1 || up.Report.Attempts < 2 {
		t.Fatalf("faults=%d attempts=%d, want the aborted attempt folded in",
			up.Report.Faults, up.Report.Attempts)
	}
	if c.nova.HostDowned(rec.Node) {
		t.Fatal("self-healed host left in the downed ledger")
	}
	node, _ := c.nova.Node(rec.Node)
	if node.Driver.HypervisorKind() != hv.KindKVM {
		t.Fatal("double-faulted upgrade did not land on the target")
	}
	for _, vm := range node.Driver.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// Salvage exhaustion leaves the host frozen and downed; clearing the
// fault plan and retrying recovers it — nothing was lost.
func TestRecoverHostFrozenIsRetryable(t *testing.T) {
	c, tracker := reactiveCloud(t, 2)
	if _, err := c.nova.BootVM(vmCfg("app", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("app")
	if _, err := c.nova.CrashHost(rec.Node, "injected"); err != nil {
		t.Fatal(err)
	}
	c.nova.SetFaults(fault.NewPlan(7, 0).
		ForceAt(fault.SitePRAMBuild, 1).
		ForceAt(fault.SitePRAMBuild, 2).
		ForceAt(fault.SitePRAMBuild, 3))
	_, err := c.nova.RecoverHost(rec.Node, core.DefaultOptions())
	if hterr.Class(err) != hterr.ErrHypervisorCrashed {
		t.Fatalf("err = %v, want hypervisor-crashed class", err)
	}
	if !c.nova.HostDowned(rec.Node) {
		t.Fatal("frozen host dropped from the downed ledger")
	}
	if a := tracker.Availability(c.clock.Now()); a.Open != 1 {
		t.Fatalf("availability = %+v, want the outage still open", a)
	}
	c.nova.SetFaults(nil)
	if _, err := c.nova.RecoverHost(rec.Node, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if c.nova.HostDowned(rec.Node) {
		t.Fatal("host still downed after successful retry")
	}
}

// stormFleet crashes a mix of loaded and spare hosts at staggered times
// and returns the crashed names.
func stormFleet(tb testing.TB, c *cloud, hosts []int) []string {
	tb.Helper()
	det := reactive.NewDetector(reactive.ProbeConfig{Seed: 20210426})
	c.nova.SetDetector(det)
	var crashed []string
	for _, i := range hosts {
		name := fmt.Sprintf("host-%03d", i)
		c.clock.Advance(37 * time.Millisecond)
		if _, err := c.nova.CrashHost(name, "storm"); err != nil {
			tb.Fatal(err)
		}
		crashed = append(crashed, name)
	}
	return crashed
}

func TestCrashStormScheduledRecovery(t *testing.T) {
	c := newFleet(t, stockFleet())
	tracker := trackSLO(c)
	crashed := stormFleet(t, c, []int{0, 2, 5, 8, 9})
	limits := sched.Limits{MaxKexecs: 2}
	c.nova.SetFleetLimits(&limits)

	resp, err := c.nova.RecoverFleet(core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != hterr.OutcomeCompleted {
		t.Fatalf("outcome = %s (frozen %v lost %v)", resp.Outcome, resp.FrozenNodes, resp.LostNodes)
	}
	if len(resp.RecoveredNodes) != len(crashed) {
		t.Fatalf("recovered %v, want %v", resp.RecoveredNodes, crashed)
	}
	if len(c.nova.Downed()) != 0 {
		t.Fatalf("downed after sweep: %v", c.nova.Downed())
	}
	if s := resp.Summary(); s.Kind != "crash-storm" || s.Attempts != len(crashed) {
		t.Fatalf("summary = %+v", s)
	}
	// Every crashed host now runs the emergency target with its guests
	// intact, and the database agrees.
	for _, name := range crashed {
		node, _ := c.nova.Node(name)
		if node.Driver.HypervisorKind() != hv.KindKVM {
			t.Fatalf("host %s runs %v after storm", name, node.Driver.HypervisorKind())
		}
		for _, vm := range node.Driver.VMs() {
			if err := vm.Guest.Verify(); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, rec := range c.nova.Records() {
		node, _ := c.nova.Node(rec.Node)
		if _, ok := node.Driver.Hypervisor().LookupVM(rec.ID); !ok {
			t.Fatalf("database row %s points at a missing VM", rec.Name)
		}
	}
	// The outage ledger closed every interval and the MTTR budget holds.
	a := tracker.Availability(c.clock.Now())
	if a.Hosts != len(crashed) || a.Outages != len(crashed) || a.Open != 0 {
		t.Fatalf("availability = %+v", a)
	}
	tracker.SetMTTRBudget(slo.Target{Quantile: 1, Window: time.Hour})
	if !tracker.Pass(c.clock.Now()) {
		t.Fatal("MTTR budget violated by the storm recovery")
	}
	// An empty sweep is a no-op.
	again, err := c.nova.RecoverFleet(core.DefaultOptions())
	if err != nil || len(again.DownHosts) != 0 || again.Outcome != hterr.OutcomeCompleted {
		t.Fatalf("idle sweep = %+v, %v", again, err)
	}
}

// The storm recovery schedule is a pure function of (seed, probe
// config, fleet): byte-identical for any -workers value, serial or
// concurrent alike in its final placement.
func TestCrashStormDeterministicAcrossWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run storm in -short mode")
	}
	run := func(workers int) []byte {
		old := par.Workers()
		par.SetWorkers(workers)
		defer par.SetWorkers(old)
		c := newFleet(t, stockFleet())
		stormFleet(t, c, []int{0, 1, 3, 6, 9})
		c.nova.SetFaults(fault.NewPlan(13, 0.02))
		limits := sched.Limits{MaxKexecs: 3}
		c.nova.SetFleetLimits(&limits)
		resp, err := c.nova.RecoverFleet(core.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		blob, err := json.Marshal(struct {
			Resp      *StormResponse
			Placement []string
			Now       time.Duration
		}{resp, placement(c.nova), c.clock.Now()})
		if err != nil {
			t.Fatal(err)
		}
		return blob
	}
	b1 := run(1)
	b8 := run(8)
	if string(b1) != string(b8) {
		t.Fatalf("storm recovery differs across workers:\n-workers 1: %s\n-workers 8: %s", b1, b8)
	}
	if again := run(8); string(again) != string(b8) {
		t.Fatal("identical wide runs differ")
	}
}

// BenchmarkCrashStorm is the 200-host fleet losing a quarter of its
// hosts at once and recovering them under a kexec cap — the reactive
// twin of BenchmarkFleetResponse.
func BenchmarkCrashStorm(b *testing.B) {
	var hosts []int
	for i := 0; i < bigFleet().hosts; i += 4 {
		hosts = append(hosts, i)
	}
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		c := newFleet(b, bigFleet())
		crashed := stormFleet(b, c, hosts)
		limits := sched.Limits{MaxKexecs: 8}
		c.nova.SetFleetLimits(&limits)
		b.StartTimer()
		resp, err := c.nova.RecoverFleet(core.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		if len(resp.RecoveredNodes) != len(crashed) {
			b.Fatalf("recovered %d hosts, want %d", len(resp.RecoveredNodes), len(crashed))
		}
	}
}
