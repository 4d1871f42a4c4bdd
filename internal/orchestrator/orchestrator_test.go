package orchestrator

import (
	"errors"
	"testing"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/vulndb"
)

type cloud struct {
	clock *simtime.Clock
	nova  *Nova
}

func newCloud(t *testing.T, nodes int, kind hv.Kind) *cloud {
	t.Helper()
	clock := simtime.NewClock()
	fabric := simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	nova := NewNova(clock, fabric)
	for i := 0; i < nodes; i++ {
		m := hw.NewMachine(clock, hw.M2())
		d, err := NewLibvirtDriver(clock, m, kind)
		if err != nil {
			t.Fatal(err)
		}
		if err := nova.AddNode(nodeName(i), d); err != nil {
			t.Fatal(err)
		}
	}
	return &cloud{clock: clock, nova: nova}
}

func nodeName(i int) string { return string(rune('a'+i)) + "-node" }

func vmCfg(name string, compat bool) hv.Config {
	return hv.Config{
		Name: name, VCPUs: 1, MemBytes: 1 << 30, HugePages: true,
		Seed: 5, InPlaceCompatible: compat,
	}
}

func TestAddNodeDuplicate(t *testing.T) {
	c := newCloud(t, 1, hv.KindXen)
	m := hw.NewMachine(c.clock, hw.M2())
	d, _ := NewLibvirtDriver(c.clock, m, hv.KindXen)
	if err := c.nova.AddNode(nodeName(0), d); err == nil {
		t.Fatal("duplicate node accepted")
	}
	if _, ok := c.nova.Node(nodeName(0)); !ok {
		t.Fatal("node lookup failed")
	}
}

func TestBootVMAndRecords(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	node, err := c.nova.BootVM(vmCfg("web-1", true))
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := c.nova.Record("web-1")
	if !ok || rec.Node != node || rec.Kind != hv.KindXen {
		t.Fatalf("record = %+v", rec)
	}
	if _, err := c.nova.BootVM(vmCfg("web-1", true)); err == nil {
		t.Fatal("duplicate VM accepted")
	}
	if len(c.nova.Records()) != 1 {
		t.Fatal("records count wrong")
	}
}

// §4.5.2 point 4: the scheduler keeps transplantable VMs together.
func TestSchedulerHyperTPAffinity(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	nodeA, _ := c.nova.BootVM(vmCfg("compat-1", true))
	nodeB, _ := c.nova.BootVM(vmCfg("legacy-1", false))
	if nodeA == nodeB {
		t.Fatal("mixed transplantability on one node at first placement")
	}
	// Subsequent compatible VMs join the compatible node, incompatible
	// ones the other.
	for i := 0; i < 4; i++ {
		n1, err := c.nova.BootVM(vmCfg("compat-x"+string(rune('0'+i)), true))
		if err != nil {
			t.Fatal(err)
		}
		if n1 != nodeA {
			t.Fatalf("compatible VM scheduled on %s, want %s", n1, nodeA)
		}
		n2, err := c.nova.BootVM(vmCfg("legacy-x"+string(rune('0'+i)), false))
		if err != nil {
			t.Fatal(err)
		}
		if n2 != nodeB {
			t.Fatalf("incompatible VM scheduled on %s, want %s", n2, nodeB)
		}
	}
}

// TestPlacementScanAllocatesNothing: BootVM's scan visits every VM of every
// node through Chassis.EachVM, whose visitor does not escape, so beyond
// Spawn a placement allocates nothing, however many VMs the fleet already
// runs.
func TestPlacementScanAllocatesNothing(t *testing.T) {
	c := newCloud(t, 4, hv.KindXen)
	for i := 0; i < 6; i++ {
		if _, err := c.nova.BootVM(vmCfg(string(rune('a'+i)), i%2 == 0)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := vmCfg("next", true)
	var best *ComputeNode
	if n := testing.AllocsPerRun(20, func() { best = c.nova.place(&cfg) }); n != 0 || best == nil {
		t.Fatalf("placement scan allocated %v times per call, chose %v", n, best)
	}
}

func TestBootVMNoCapacity(t *testing.T) {
	c := newCloud(t, 1, hv.KindXen)
	cfg := vmCfg("huge", true)
	cfg.VCPUs = 1000
	if _, err := c.nova.BootVM(cfg); err == nil {
		t.Fatal("oversized VM accepted")
	}
}

func TestLiveMigrateUpdatesDB(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	src, _ := c.nova.BootVM(vmCfg("mover", false))
	dest := nodeName(0)
	if dest == src {
		dest = nodeName(1)
	}
	rep, err := c.nova.LiveMigrate("mover", dest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Heterogeneous {
		t.Fatal("Xen→Xen flagged heterogeneous")
	}
	rec, _ := c.nova.Record("mover")
	if rec.Node != dest {
		t.Fatalf("record node = %s, want %s", rec.Node, dest)
	}
	if _, err := c.nova.LiveMigrate("mover", dest); err == nil {
		t.Fatal("migration to current node accepted")
	}
	if _, err := c.nova.LiveMigrate("ghost", dest); err == nil {
		t.Fatal("unknown VM accepted")
	}
}

// The §4.5.2 one-click path: evacuate incompatible VMs, transplant the
// host, update the database.
func TestHostLiveUpgrade(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	// Force both kinds of VM onto node a by booting compat first.
	target := nodeName(0)
	other := nodeName(1)
	for i := 0; i < 3; i++ {
		name := "c" + string(rune('0'+i))
		if _, err := c.nova.BootVM(vmCfg(name, true)); err != nil {
			t.Fatal(err)
		}
	}
	// All three landed on the same node (affinity). Identify it.
	rec, _ := c.nova.Record("c0")
	target = rec.Node
	if target == nodeName(1) {
		other = nodeName(0)
	}
	// Add one incompatible VM directly to the target node's driver by
	// filling the other node first — simpler: boot it and migrate it
	// onto the target to create the mixed situation.
	if _, err := c.nova.BootVM(vmCfg("legacy", false)); err != nil {
		t.Fatal(err)
	}
	if r, _ := c.nova.Record("legacy"); r.Node != target {
		if _, err := c.nova.LiveMigrate("legacy", target); err != nil {
			t.Fatal(err)
		}
	}

	up, err := c.nova.HostLiveUpgrade(target, hv.KindKVM, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(up.EvacuatedVMs) != 1 || up.EvacuatedVMs[0] != "legacy" {
		t.Fatalf("evacuated = %v, want [legacy]", up.EvacuatedVMs)
	}
	if up.Report == nil || len(up.Report.VMs) != 3 {
		t.Fatalf("transplant report wrong: %+v", up.Report)
	}
	node, _ := c.nova.Node(target)
	if node.Driver.HypervisorKind() != hv.KindKVM {
		t.Fatal("node not on KVM after upgrade")
	}
	// Database rows reflect the new world.
	for _, name := range []string{"c0", "c1", "c2"} {
		r, _ := c.nova.Record(name)
		if r.Kind != hv.KindKVM || r.Node != target {
			t.Fatalf("record %s = %+v", name, r)
		}
	}
	legacyRec, _ := c.nova.Record("legacy")
	if legacyRec.Node != other || legacyRec.Kind != hv.KindXen {
		t.Fatalf("legacy record = %+v", legacyRec)
	}
	// Guests still verify.
	for _, vm := range node.Driver.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestHostLiveUpgradeEmptyHost(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	up, err := c.nova.HostLiveUpgrade(nodeName(1), hv.KindKVM, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if up.Report != nil {
		t.Fatal("empty host produced a transplant report")
	}
	node, _ := c.nova.Node(nodeName(1))
	if node.Driver.HypervisorKind() != hv.KindKVM {
		t.Fatal("empty host not on KVM")
	}
}

func TestHostLiveUpgradeErrors(t *testing.T) {
	c := newCloud(t, 1, hv.KindXen)
	if _, err := c.nova.HostLiveUpgrade("ghost", hv.KindKVM, core.DefaultOptions()); err == nil {
		t.Fatal("unknown node accepted")
	}
	if _, err := c.nova.HostLiveUpgrade(nodeName(0), hv.KindXen, core.DefaultOptions()); err == nil {
		t.Fatal("same-kind upgrade accepted")
	}
	// Incompatible VM with nowhere to evacuate to.
	if _, err := c.nova.BootVM(vmCfg("stuck", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nova.HostLiveUpgrade(nodeName(0), hv.KindKVM, core.DefaultOptions()); err == nil {
		t.Fatal("upgrade without evacuation capacity accepted")
	}
}

func TestDriverBasics(t *testing.T) {
	clock := simtime.NewClock()
	m := hw.NewMachine(clock, hw.M1())
	d, err := NewLibvirtDriver(clock, m, hv.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	if d.HypervisorKind() != hv.KindKVM {
		t.Fatal("kind wrong")
	}
	id, err := d.Spawn(vmCfg("x", true))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Hypervisor().Pause(id); err != nil {
		t.Fatal(err)
	}
	if err := d.Hypervisor().Resume(id); err != nil {
		t.Fatal(err)
	}
	if len(d.VMs()) != 1 {
		t.Fatal("VMs() wrong")
	}
	vcpus, _ := d.Capacity()
	if vcpus != hw.M1().Threads-hw.M1().ReservedCPUs-1 {
		t.Fatalf("capacity = %d", vcpus)
	}
	if err := d.Hypervisor().DestroyVM(id); err != nil {
		t.Fatal(err)
	}
}

// The end-to-end automated response: a critical Xen CVE secures the whole
// fleet in one call; unaffected nodes are skipped; medium flaws and
// common flaws are refused.
func TestRespondToCVE(t *testing.T) {
	c := newCloud(t, 3, hv.KindXen)
	// One node already runs KVM (mixed fleet).
	if _, err := c.nova.HostLiveUpgrade(nodeName(2), hv.KindKVM, core.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := c.nova.BootVM(vmCfg("t"+string(rune('0'+i)), true)); err != nil {
			t.Fatal(err)
		}
	}
	db := vulndb.Load()
	resp, err := c.nova.RespondToCVE(db, "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Target != hv.KindKVM {
		t.Fatalf("target = %v", resp.Target)
	}
	if len(resp.UpgradedNodes) != 2 || len(resp.SkippedNodes) != 1 {
		t.Fatalf("upgraded %v skipped %v", resp.UpgradedNodes, resp.SkippedNodes)
	}
	if resp.Elapsed <= 0 {
		t.Fatal("no elapsed time")
	}
	// Whole fleet now unaffected.
	for _, name := range []string{nodeName(0), nodeName(1), nodeName(2)} {
		node, _ := c.nova.Node(name)
		if node.Driver.HypervisorKind() != hv.KindKVM {
			t.Fatalf("node %s still on %v", name, node.Driver.HypervisorKind())
		}
	}
	for _, vm := range allVMs(c.nova) {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRespondToCVERefusals(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	db := vulndb.Load()
	if _, err := c.nova.RespondToCVE(db, "CVE-9999-0000", nil, core.DefaultOptions()); err == nil {
		t.Fatal("unknown CVE accepted")
	}
	// Medium severity: reserved for critical.
	if _, err := c.nova.RespondToCVE(db, "CVE-2015-8104", []string{"xen", "kvm"}, core.DefaultOptions()); err == nil {
		t.Fatal("medium flaw accepted")
	}
	// VENOM: no safe target in a two-member pool.
	if _, err := c.nova.RespondToCVE(db, "CVE-2015-3456", []string{"xen", "kvm"}, core.DefaultOptions()); err == nil {
		t.Fatal("VENOM response proceeded without a safe target")
	}
	// KVM-only flaw on a Xen fleet: nothing to do.
	if _, err := c.nova.RespondToCVE(db, "CVE-2017-12188", []string{"xen", "kvm"}, core.DefaultOptions()); err == nil {
		t.Fatal("irrelevant flaw produced a response")
	}
}

// An injected link sever mid-migration: with a fault plan attached the
// manager retries under the default policy and the migration recovers.
func TestLiveMigrateRetriesUnderFaultPlan(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	c.nova.SetFaults(fault.NewPlan(7, 0).ForceAt(fault.SiteLinkAbort, 1))
	if _, err := c.nova.BootVM(vmCfg("mover", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("mover")
	dest := nodeName(0)
	if rec.Node == dest {
		dest = nodeName(1)
	}
	rep, err := c.nova.LiveMigrate("mover", dest)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || rep.Faults != 1 {
		t.Fatalf("attempts = %d faults = %d, want 2 and 1", rep.Attempts, rep.Faults)
	}
	if rep.Outcome != hterr.OutcomeRecovered {
		t.Fatalf("outcome = %s, want recovered", rep.Outcome)
	}
	rec, _ = c.nova.Record("mover")
	if rec.Node != dest {
		t.Fatalf("record node = %s, want %s", rec.Node, dest)
	}
	node, _ := c.nova.Node(dest)
	for _, vm := range node.Driver.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// An injected host failure during a fleet response: the node is
// quarantined, its VMs are re-planned onto healthy hosts, and the
// response completes degraded instead of failing.
func TestRespondToCVEDegradesOnHostFault(t *testing.T) {
	c := newCloud(t, 3, hv.KindXen)
	for i := 0; i < 3; i++ {
		if _, err := c.nova.BootVM(vmCfg("d"+string(rune('0'+i)), true)); err != nil {
			t.Fatal(err)
		}
	}
	// Affinity packs all three VMs onto the first node; quarantine it.
	rec0, _ := c.nova.Record("d0")
	c.nova.SetFaults(fault.NewPlan(11, 0).ForceAt(fault.SiteClusterHost, 1))

	db := vulndb.Load()
	resp, err := c.nova.RespondToCVE(db, "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Outcome != hterr.OutcomeDegraded || resp.Faults != 1 {
		t.Fatalf("outcome = %s faults = %d", resp.Outcome, resp.Faults)
	}
	if s := resp.Summary(); s.Kind != "fleet" || s.Outcome != hterr.OutcomeDegraded || s.Faults != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(resp.QuarantinedNodes) != 1 || resp.QuarantinedNodes[0] != rec0.Node {
		t.Fatalf("quarantined = %v, want [%s]", resp.QuarantinedNodes, rec0.Node)
	}
	if !c.nova.Quarantined(rec0.Node) {
		t.Fatal("node not marked quarantined")
	}
	if len(resp.ReplannedVMs) != 3 || len(resp.StrandedVMs) != 0 {
		t.Fatalf("replanned = %v stranded = %v", resp.ReplannedVMs, resp.StrandedVMs)
	}
	// The quarantined node still runs the old hypervisor and is empty;
	// the rest of the fleet is secured.
	for _, name := range []string{nodeName(0), nodeName(1), nodeName(2)} {
		node, _ := c.nova.Node(name)
		want := hv.KindKVM
		if name == rec0.Node {
			want = hv.KindXen
			if len(node.Driver.VMs()) != 0 {
				t.Fatalf("quarantined node still hosts %d VMs", len(node.Driver.VMs()))
			}
		}
		if node.Driver.HypervisorKind() != want {
			t.Fatalf("node %s on %v, want %v", name, node.Driver.HypervisorKind(), want)
		}
	}
	// Every VM is reachable where its database row says, with state intact.
	for i := 0; i < 3; i++ {
		r, ok := c.nova.Record("d" + string(rune('0'+i)))
		if !ok || r.Node == rec0.Node {
			t.Fatalf("record %d = %+v", i, r)
		}
		node, _ := c.nova.Node(r.Node)
		vm, ok := node.Driver.Hypervisor().LookupVM(r.ID)
		if !ok {
			t.Fatalf("VM %s unreachable on %s", r.Name, r.Node)
		}
		if r.Kind != node.Driver.HypervisorKind() {
			t.Fatalf("record %s kind %v, node runs %v", r.Name, r.Kind, node.Driver.HypervisorKind())
		}
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// A database row whose VM has vanished from its node is a lost-VM error,
// not a generic failure.
func TestColdMigrateLostVMClassified(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	if _, err := c.nova.BootVM(vmCfg("gone", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("gone")
	node, _ := c.nova.Node(rec.Node)
	if err := node.Driver.Hypervisor().DestroyVM(rec.ID); err != nil {
		t.Fatal(err)
	}
	dest := nodeName(0)
	if rec.Node == dest {
		dest = nodeName(1)
	}
	err := c.nova.ColdMigrate("gone", dest)
	if !errors.Is(err, hterr.ErrVMLost) {
		t.Fatalf("err = %v, want ErrVMLost classification", err)
	}
}

func allVMs(n *Nova) []*hv.VM {
	var out []*hv.VM
	for _, rec := range n.Records() {
		node, _ := n.Node(rec.Node)
		out = append(out, node.Driver.VMs()...)
	}
	return out
}

// A mixed fleet with a microhypervisor node: the VENOM response succeeds
// when the pool includes it, moving the Xen and KVM nodes to NOVA.
func TestRespondToVENOMWithMicrohypervisorPool(t *testing.T) {
	c := newCloud(t, 2, hv.KindXen)
	m := hw.NewMachine(c.clock, hw.M2())
	d, err := NewLibvirtDriver(c.clock, m, hv.KindNOVA)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.nova.AddNode("n-node", d); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := c.nova.BootVM(vmCfg("v"+string(rune('0'+i)), true)); err != nil {
			t.Fatal(err)
		}
	}
	db := vulndb.Load()
	resp, err := c.nova.RespondToCVE(db, "CVE-2015-3456",
		[]string{"xen", "kvm", "nova"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if resp.Target != hv.KindNOVA {
		t.Fatalf("target = %v, want NOVA", resp.Target)
	}
	if len(resp.UpgradedNodes) != 2 || len(resp.SkippedNodes) != 1 {
		t.Fatalf("upgraded %v skipped %v", resp.UpgradedNodes, resp.SkippedNodes)
	}
	for _, name := range []string{nodeName(0), nodeName(1), "n-node"} {
		node, _ := c.nova.Node(name)
		if node.Driver.HypervisorKind() != hv.KindNOVA {
			t.Fatalf("node %s on %v", name, node.Driver.HypervisorKind())
		}
	}
	for _, vm := range allVMs(c.nova) {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
}

// ColdMigrate: the checkpoint-based path moves a VM across heterogeneous
// nodes without a migration stream.
func TestColdMigrate(t *testing.T) {
	c := newCloud(t, 1, hv.KindXen)
	m := hw.NewMachine(c.clock, hw.M2())
	d, err := NewLibvirtDriver(c.clock, m, hv.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.nova.AddNode("k-node", d); err != nil {
		t.Fatal(err)
	}
	if _, err := c.nova.BootVM(vmCfg("cold", true)); err != nil {
		t.Fatal(err)
	}
	rec, _ := c.nova.Record("cold")
	src := rec.Node
	dest := "k-node"
	if src == dest {
		dest = nodeName(0)
	}
	// Write data through the guest, then cold-migrate.
	srcNode, _ := c.nova.Node(src)
	var g interface{ Verify() error }
	for _, vm := range srcNode.Driver.VMs() {
		vm.Guest.WriteWorkingSet(0, 64)
		g = vm.Guest
	}
	if err := c.nova.ColdMigrate("cold", dest); err != nil {
		t.Fatal(err)
	}
	rec, _ = c.nova.Record("cold")
	if rec.Node != dest {
		t.Fatalf("record node = %s, want %s", rec.Node, dest)
	}
	destNode, _ := c.nova.Node(dest)
	if rec.Kind != destNode.Driver.HypervisorKind() {
		t.Fatal("record kind not updated")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost in cold migration: %v", err)
	}
	// Source is empty.
	if len(srcNode.Driver.VMs()) != 0 {
		t.Fatal("source VM still present")
	}
	// Error paths.
	if err := c.nova.ColdMigrate("ghost", dest); err == nil {
		t.Fatal("unknown VM accepted")
	}
	if err := c.nova.ColdMigrate("cold", "ghost-node"); err == nil {
		t.Fatal("unknown node accepted")
	}
	if err := c.nova.ColdMigrate("cold", dest); err == nil {
		t.Fatal("migration to current node accepted")
	}
}
