package orchestrator

import (
	"errors"
	"fmt"
	"testing"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/sched"
	"hypertp/internal/vulndb"
)

func TestQuarantineDrainsAndReturn(t *testing.T) {
	c := newCloud(t, 3, hv.KindXen)
	for _, name := range []string{"q-0", "q-1", "q-2", "q-3"} {
		if _, err := c.nova.BootVM(vmCfg(name, true)); err != nil {
			t.Fatal(err)
		}
	}
	// Pick the node carrying at least one VM.
	var target string
	for _, rec := range c.nova.Records() {
		target = rec.Node
		break
	}
	replanned, stranded, err := c.nova.Quarantine(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(stranded) != 0 {
		t.Fatalf("stranded %v with two healthy nodes available", stranded)
	}
	if len(replanned) == 0 {
		t.Fatal("no VMs replanned off the quarantined node")
	}
	if !c.nova.Quarantined(target) {
		t.Fatal("node not marked quarantined")
	}
	for _, rec := range c.nova.Records() {
		if rec.Node == target {
			t.Fatalf("record %s still placed on quarantined node", rec.Name)
		}
	}
	node, _ := c.nova.Node(target)
	if n := len(node.Driver.VMs()); n != 0 {
		t.Fatalf("quarantined node still runs %d VMs", n)
	}
	// Quarantine is not idempotent: a second fence is an operator error.
	if _, _, err := c.nova.Quarantine(target); err == nil {
		t.Fatal("double quarantine accepted")
	}
	if _, _, err := c.nova.Quarantine("no-such-node"); err == nil {
		t.Fatal("unknown node accepted")
	}
	// The scheduler must not place new VMs on the fenced node.
	for i := 0; i < 3; i++ {
		placed, err := c.nova.BootVM(vmCfg("post-"+string(rune('a'+i)), true))
		if err != nil {
			t.Fatal(err)
		}
		if placed == target {
			t.Fatal("scheduler placed a VM on a quarantined node")
		}
	}
	if err := c.nova.Return(target); err != nil {
		t.Fatal(err)
	}
	if c.nova.Quarantined(target) {
		t.Fatal("node still quarantined after Return")
	}
	if err := c.nova.Return(target); err == nil {
		t.Fatal("returning a healthy node accepted")
	}
	if err := c.nova.Return("no-such-node"); err == nil {
		t.Fatal("returning an unknown node accepted")
	}
}

func TestNodesListsFleetInOrder(t *testing.T) {
	c := newCloud(t, 3, hv.KindXen)
	names := c.nova.Nodes()
	if len(names) != 3 {
		t.Fatalf("Nodes() = %v", names)
	}
	for i, name := range names {
		if name != nodeName(i) {
			t.Fatalf("Nodes()[%d] = %q, want %q", i, name, nodeName(i))
		}
	}
	// The returned slice is a copy — mutating it must not corrupt Nova.
	names[0] = "mutated"
	if c.nova.Nodes()[0] != nodeName(0) {
		t.Fatal("Nodes() exposed internal state")
	}
}

// TestHostLiveUpgradeLostHostReconciled is the regression for the chaos
// finding: a host whose in-place upgrade dies past the kexec point (all
// boots fail, VMs unrecoverable) must not leave stale placement rows —
// the database would otherwise place VMs on a dead host forever.
func TestHostLiveUpgradeLostHostReconciled(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	if _, err := c.nova.BootVM(vmCfg("doomed", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("doomed")
	other := nodeName(0)
	if rec.Node == other {
		other = nodeName(1)
	}
	// Every target boot fails: the engine exhausts its retry budget past
	// the point of no return and reports the host's VMs lost.
	c.nova.SetFaults(fault.NewPlan(1, 1).Restrict(fault.SiteHVBoot).SetClock(c.clock))
	_, err := c.nova.HostLiveUpgrade(rec.Node, hv.KindKVM, core.DefaultOptions())
	if !errors.Is(err, hterr.ErrVMLost) {
		t.Fatalf("err = %v, want ErrVMLost", err)
	}
	if _, ok := c.nova.Record("doomed"); ok {
		t.Fatal("stale placement row survived the lost host")
	}
	if !c.nova.Quarantined(rec.Node) {
		t.Fatal("lost host not quarantined")
	}
	// The surviving node keeps working: the fleet still boots VMs.
	c.nova.SetFaults(nil)
	placed, err := c.nova.BootVM(vmCfg("fresh", true))
	if err != nil {
		t.Fatal(err)
	}
	if placed != other {
		t.Fatalf("fresh VM placed on %q, want healthy node %q", placed, other)
	}
}

// victimSeed finds a fault-plan seed under which, of the fault streams a
// fleet run derives for sched nodes 0..nodes-1, only the victim's fires
// pram.parse often enough to exhaust the retry budget: that host dies
// past the point of no return, the others ride out at most a retry.
func victimSeed(t *testing.T, nodes, victim int) uint64 {
	t.Helper()
	attempts := fault.DefaultRetryPolicy().Attempts()
	for seed := uint64(1); seed < 10000; seed++ {
		match := true
		for id := 0; id < nodes && match; id++ {
			stream := fault.NewPlan(seed, 0.5).Restrict(fault.SitePRAMParse).Derive(id)
			exhausted := true
			for a := 0; a < attempts && exhausted; a++ {
				exhausted, _ = stream.Arm(fault.SitePRAMParse)
			}
			match = exhausted == (id == victim)
		}
		if match {
			return seed
		}
	}
	t.Fatal("no seed singles out the victim")
	return 0
}

// TestLostHostRule drives the one lost-host rule through every entry
// point that can lose a host: pram.parse exhausts its retries after the
// kexec, so the host's VMs are gone. Whatever the entry point, the rows
// are purged, the host is quarantined and named, every other host
// completes, and no surviving host holds a frame of a dead VM.
func TestLostHostRule(t *testing.T) {
	const hosts, victim = 4, "host-003"
	always := func() *fault.Plan { return fault.NewPlan(1, 1).Restrict(fault.SitePRAMParse) }
	// eachHost runs op on every other host fault-free, then on the victim
	// with pram.parse always firing.
	eachHost := func(c *cloud, op func(name string) error) ([]string, error) {
		for _, name := range c.nova.Nodes() {
			if name != victim {
				if err := op(name); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
		c.nova.SetFaults(always())
		return []string{victim}, op(victim)
	}
	crashAll := func(c *cloud) {
		for _, name := range c.nova.Nodes() {
			if _, err := c.nova.CrashHost(name, "injected"); err != nil {
				t.Fatal(err)
			}
		}
	}
	respond := func(limits *sched.Limits) func(c *cloud) ([]string, error) {
		return func(c *cloud) ([]string, error) {
			c.nova.SetFleetLimits(limits)
			c.nova.SetFaults(fault.NewPlan(victimSeed(t, hosts, hosts-1), 0.5).Restrict(fault.SitePRAMParse))
			resp, err := c.nova.RespondToCVE(vulndb.Load(), "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
			if resp == nil {
				t.Fatalf("no partial response beside %v", err)
			}
			if len(resp.UpgradedNodes) != hosts-1 || resp.Outcome != hterr.OutcomeDegraded {
				t.Errorf("upgraded %v, outcome %s", resp.UpgradedNodes, resp.Outcome)
			}
			return resp.LostNodes, err
		}
	}
	for _, tc := range []struct {
		name string
		run  func(c *cloud) (lost []string, err error)
		// degrades: the loss is reported in the response, not as an error.
		degrades bool
	}{
		{name: "HostLiveUpgrade", run: func(c *cloud) ([]string, error) {
			return eachHost(c, func(name string) error {
				_, err := c.nova.HostLiveUpgrade(name, hv.KindKVM, core.DefaultOptions())
				return err
			})
		}},
		{name: "RespondToCVE/serial", run: respond(nil)},
		{name: "RespondToCVE/4x4", run: respond(&sched.Limits{MaxKexecs: 4, LinkStreams: 4})},
		{name: "RecoverHost", run: func(c *cloud) ([]string, error) {
			crashAll(c)
			return eachHost(c, func(name string) error {
				_, err := c.nova.RecoverHost(name, core.DefaultOptions())
				return err
			})
		}},
		{name: "RecoverFleet", degrades: true, run: func(c *cloud) ([]string, error) {
			crashAll(c)
			c.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 2})
			c.nova.SetFaults(fault.NewPlan(victimSeed(t, hosts, hosts-1), 0.5).Restrict(fault.SitePRAMParse))
			resp, err := c.nova.RecoverFleet(core.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if len(resp.RecoveredNodes) != hosts-1 || resp.Outcome != hterr.OutcomeDegraded {
				t.Errorf("recovered %v, outcome %s", resp.RecoveredNodes, resp.Outcome)
			}
			return resp.LostNodes, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nova, err := NewFleet(hosts, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 2*hosts; i++ { // 3 of a host's 6 vCPUs each: two per host
				cfg := hv.Config{Name: fmt.Sprintf("vm-%d", i), VCPUs: 3, MemBytes: 64 << 20, HugePages: true, Seed: 9, InPlaceCompatible: true}
				if _, err := nova.BootVM(cfg); err != nil {
					t.Fatal(err)
				}
			}
			lost, err := tc.run(&cloud{clock: nova.Clock(), nova: nova})
			if tc.degrades != (err == nil) || err != nil && !errors.Is(err, hterr.ErrVMLost) {
				t.Fatalf("err = %v, want ErrVMLost unless the sweep degrades (%v)", err, tc.degrades)
			}
			if len(lost) != 1 || lost[0] != victim {
				t.Fatalf("lost hosts named %v, want [%s]", lost, victim)
			}
			if !nova.Quarantined(victim) || nova.HostDowned(victim) {
				t.Errorf("victim quarantined=%v downed=%v, want fenced and off the ledger", nova.Quarantined(victim), nova.HostDowned(victim))
			}
			rows := make(map[string]int)
			for _, rec := range nova.Records() {
				rows[rec.Node]++
			}
			for _, name := range nova.Nodes() {
				if name == victim {
					if rows[name] != 0 {
						t.Errorf("%d rows still place VMs on the lost host", rows[name])
					}
					continue
				}
				hyp := nova.nodes[name].Driver.Hypervisor()
				if nova.Quarantined(name) || nova.HostDowned(name) || hyp.Kind() != hv.KindKVM || hyp.VMCount() != 2 || rows[name] != 2 {
					t.Errorf("%s did not complete: quarantined=%v downed=%v kind=%v vms=%d rows=%d", name,
						nova.Quarantined(name), nova.HostDowned(name), hyp.Kind(), hyp.VMCount(), rows[name])
				}
				live := make(map[int]bool)
				for _, vm := range hyp.VMs() {
					live[int(vm.ID)] = true
				}
				if vs := hyp.Machine().Mem.AuditOwners(live); len(vs) > 0 {
					t.Errorf("%s: %v (%d frame violations)", name, vs[0], len(vs))
				}
			}
		})
	}
}
