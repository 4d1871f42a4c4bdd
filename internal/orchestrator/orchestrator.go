// Package orchestrator models the paper's OpenStack integration (§4.5):
// a Nova-like cloud manager driving hypervisors exclusively through a
// generic libvirt-style driver (the "G2" interaction mode every
// surveyed operator uses), extended with the HyperTP operations —
// guest-state saving, host live upgrade, guest-state restoring — plus a
// HyperTP-aware scheduler filter that keeps transplantable VMs together.
package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"hypertp/internal/checkpoint"
	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/reactive"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/slo"
)

// LibvirtDriver is the generic per-host driver (libvirt in the paper),
// extended with the HyperTP host live upgrade of §4.5.2 and its crash-path
// sibling, emergency recovery.
type LibvirtDriver struct {
	engine *core.Engine
	hyp    hv.Hypervisor
}

// NewLibvirtDriver boots a hypervisor of the given kind on machine and
// wraps it.
func NewLibvirtDriver(clock *simtime.Clock, machine *hw.Machine, kind hv.Kind) (*LibvirtDriver, error) {
	engine := core.NewEngine(clock, machine)
	hyp, err := engine.BootHypervisor(kind)
	if err != nil {
		return nil, err
	}
	return &LibvirtDriver{engine: engine, hyp: hyp}, nil
}

// HypervisorKind reports what currently runs on the host.
func (d *LibvirtDriver) HypervisorKind() hv.Kind { return d.hyp.Kind() }

// Hypervisor exposes the underlying handle for migration plumbing (used
// by the manager, never by operators).
func (d *LibvirtDriver) Hypervisor() hv.Hypervisor { return d.hyp }

// Spawn creates and starts a VM.
func (d *LibvirtDriver) Spawn(cfg hv.Config) (hv.VMID, error) {
	vm, err := d.hyp.CreateVM(cfg)
	if err != nil {
		return 0, err
	}
	return vm.ID, nil
}

// VMs lists the host's VMs.
func (d *LibvirtDriver) VMs() []*hv.VM { return d.hyp.VMs() }

// Capacity returns remaining vCPU and memory headroom.
func (d *LibvirtDriver) Capacity() (int, uint64) {
	used := 0
	d.hyp.EachVM(func(vm *hv.VM) bool {
		used += vm.Config.VCPUs
		return true
	})
	return headroom(d.engine.Machine, used)
}

// headroom is the vCPU and memory capacity left on machine with used
// vCPUs held by its VMs.
func headroom(machine *hw.Machine, used int) (int, uint64) {
	vcpus := max(0, machine.Profile.Threads-machine.Profile.ReservedCPUs-used)
	return vcpus, machine.Mem.FreeFrames() * hw.PageSize4K
}

// SetRecorder points the wrapped engine's observability at rec, so the
// node's in-place transplants record their span trees there.
func (d *LibvirtDriver) SetRecorder(rec *obs.Recorder) { d.engine.Obs = rec }

// SetFaults points the wrapped engine at a fault plan and retry policy,
// so in-place transplants on this host arm the kexec/PRAM/UISR sites
// and ride out post-handover crashes under the given policy. A nil plan
// detaches injection but keeps the policy.
func (d *LibvirtDriver) SetFaults(p *fault.Plan, retry fault.RetryPolicy) {
	d.engine.Fault = p
	d.engine.Retry = retry
}

// HostLiveUpgrade transplants the whole host to the target hypervisor
// kind in place: the one-click in-place transplant. A hypervisor
// fail-stop mid-transplant (the double fault) leaves every VM frozen in
// place with the device protocol already run; that is exactly the state
// the emergency path salvages, so the driver self-heals by running it to
// the same target instead of surfacing the crash. The returned report is
// the emergency's, with the aborted attempt's fault and attempt counts
// folded in.
func (d *LibvirtDriver) HostLiveUpgrade(target hv.Kind, opts core.Options) (*core.InPlaceReport, error) {
	newHyp, report, err := d.engine.InPlace(d.hyp, target, opts)
	if err != nil {
		if hterr.Class(err) == hterr.ErrHypervisorCrashed {
			rep, rerr := d.EmergencyRecover(target, opts)
			if rerr != nil {
				return nil, rerr
			}
			if report != nil {
				rep.Faults += report.Faults
				rep.Attempts += report.Attempts
			}
			return rep, nil
		}
		return nil, err
	}
	d.hyp = newHyp
	return report, nil
}

// VMRecord is one row of the Nova database.
type VMRecord struct {
	Name              string
	Node              string
	ID                hv.VMID
	Kind              hv.Kind
	InPlaceCompatible bool
}

// Nova is the cloud manager.
type Nova struct {
	clock       *simtime.Clock
	fabric      *simnet.Link
	nodes       map[string]*ComputeNode
	order       []string
	db          map[string]*VMRecord
	seed        uint64
	obs         *obs.Recorder
	faults      *fault.Plan
	retry       fault.RetryPolicy
	quarantined map[string]bool
	// fleetLimits are the capacity limits fleet operations are scheduled
	// under (see SetFleetLimits); one operation at a time by default.
	fleetLimits sched.Limits
	// detector and downed are the reactive-recovery state: the attached
	// failure detector and the ledger of crashed-but-unrecovered hosts
	// (see SetDetector, CrashHost, RecoverHost, RecoverFleet).
	detector *reactive.Detector
	downed   map[string]reactive.Event
}

// ComputeNode is one managed host.
type ComputeNode struct {
	Name   string
	Driver *LibvirtDriver
}

// NewNova creates a manager over the given fabric link.
func NewNova(clock *simtime.Clock, fabric *simnet.Link) *Nova {
	n := &Nova{
		clock:       clock,
		fabric:      fabric,
		nodes:       make(map[string]*ComputeNode),
		db:          make(map[string]*VMRecord),
		seed:        1,
		quarantined: make(map[string]bool),
		downed:      make(map[string]reactive.Event),
		fleetLimits: sched.Serial(),
	}
	return n
}

// Clock returns the virtual clock the manager runs on.
func (n *Nova) Clock() *simtime.Clock { return n.clock }

// AddNode registers a compute node.
func (n *Nova) AddNode(name string, driver *LibvirtDriver) error {
	if _, dup := n.nodes[name]; dup {
		return fmt.Errorf("nova: duplicate node %q", name)
	}
	n.nodes[name] = &ComputeNode{Name: name, Driver: driver}
	n.order = append(n.order, name)
	sort.Strings(n.order)
	if n.obs != nil {
		driver.SetRecorder(n.obs)
	}
	if n.faults != nil {
		driver.SetFaults(n.faults, n.retry)
	}
	return nil
}

// SetFaults attaches a deterministic fault plan to the whole cloud: the
// fabric link arms its loss/sever sites on every migration stream, node
// drivers arm the in-place transplant sites, and fleet operations arm
// fault.SiteClusterHost per host so quarantine-and-replan degradation is
// exercised. Attaching a plan also enables the default retry policy for
// live migrations (override with SetRetry). A nil plan detaches.
func (n *Nova) SetFaults(p *fault.Plan) {
	n.faults = p
	n.fabric.SetFaults(p)
	if p != nil && n.retry == (fault.RetryPolicy{}) {
		n.retry = fault.DefaultRetryPolicy()
	}
	for _, name := range n.order {
		n.nodes[name].Driver.SetFaults(p, n.retry)
	}
}

// SetRetry overrides the retry policy live migrations and host
// transplants run under. The zero policy means a single attempt.
func (n *Nova) SetRetry(retry fault.RetryPolicy) {
	n.retry = retry
	if n.faults != nil {
		n.SetFaults(n.faults) // re-propagate to drivers
	}
}

// Quarantined reports whether a node has been quarantined by a degraded
// fleet operation. Quarantined nodes are skipped by the scheduler, by
// evacuation-target selection, and by subsequent fleet sweeps.
func (n *Nova) Quarantined(name string) bool { return n.quarantined[name] }

// Nodes returns the registered node names in sorted order.
func (n *Nova) Nodes() []string { return append([]string(nil), n.order...) }

// Quarantine marks a node failed and drains it: every VM still on the
// node is re-planned onto a healthy host via live migration, and VMs
// with no viable destination are stranded — they keep running on the
// quarantined host rather than being lost. The node is then skipped by
// the scheduler and by fleet sweeps until Return.
func (n *Nova) Quarantine(name string) (replanned, stranded []string, err error) {
	if _, ok := n.nodes[name]; !ok {
		return nil, nil, fmt.Errorf("nova: unknown node %q", name)
	}
	if !n.fence(name) {
		return nil, nil, fmt.Errorf("nova: node %q already quarantined", name)
	}
	sp := n.obs.Start("nova.quarantine", obs.A("node", name))
	defer sp.End()
	// Best effort: a VM with no viable destination, or whose migration
	// fails, is stranded in place.
	for _, vm := range n.nodes[name].Driver.VMs() {
		dest := n.pickEvacuationTarget(name, vm)
		if dest == "" {
			stranded = append(stranded, vm.Config.Name)
		} else if _, err := n.LiveMigrate(vm.Config.Name, dest); err != nil {
			stranded = append(stranded, vm.Config.Name)
		} else {
			replanned = append(replanned, vm.Config.Name)
		}
	}
	sp.SetAttr("replanned", len(replanned))
	return replanned, stranded, nil
}

// Return brings a quarantined node back into scheduling — the operator
// repaired or replaced it. VMs stranded on the node simply stay; the
// scheduler may place new work there again.
func (n *Nova) Return(name string) error {
	if _, ok := n.nodes[name]; !ok {
		return fmt.Errorf("nova: unknown node %q", name)
	}
	if !n.quarantined[name] {
		return fmt.Errorf("nova: node %q is not quarantined", name)
	}
	delete(n.quarantined, name)
	return nil
}

// fence marks a node quarantined; false when it already was.
func (n *Nova) fence(name string) bool {
	if n.quarantined[name] {
		return false
	}
	n.quarantined[name] = true
	n.obs.Event("nova.quarantined", name)
	return true
}

// reconcileLostHost reconciles the database after a host-level VM loss:
// every row placed on the node is purged — the host died mid-transplant,
// so its VMs no longer run anywhere — and the node is quarantined so the
// scheduler stops placing work on it. Without this, dead rows keep
// pointing operators (and the chaos auditor's bookkeeping invariant) at
// VMs that do not exist.
func (n *Nova) reconcileLostHost(name string) {
	for vmName, rec := range n.db {
		if rec.Node == name {
			delete(n.db, vmName)
		}
	}
	n.fence(name)
}

// SetSLO adds t to the recorder's sinks, and panics without a recorder
// rather than track nothing. It stays only for bench/fleet.go; ROADMAP
// item 14 moves that call to rec.AddSink(t).
func (n *Nova) SetSLO(t *slo.Tracker) {
	if n.obs == nil {
		panic("orchestrator: SetSLO without a recorder")
	}
	n.obs.AddSink(t)
}

// SetRecorder attaches an observability recorder to the manager, to
// every registered (and future) driver, and to the fabric link. Nova
// operations then record nova.* spans with the driver and network
// activity nested beneath them.
func (n *Nova) SetRecorder(rec *obs.Recorder) {
	n.obs = rec
	n.fabric.SetRecorder(rec)
	for _, name := range n.order {
		n.nodes[name].Driver.SetRecorder(rec)
	}
}

// Node returns a registered node.
func (n *Nova) Node(name string) (*ComputeNode, bool) {
	node, ok := n.nodes[name]
	return node, ok
}

// Records returns the database rows sorted by VM name.
func (n *Nova) Records() []VMRecord {
	names := make([]string, 0, len(n.db))
	for name := range n.db {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]VMRecord, 0, len(names))
	for _, name := range names {
		out = append(out, *n.db[name])
	}
	return out
}

// Record returns one VM's database row.
func (n *Nova) Record(name string) (VMRecord, bool) {
	r, ok := n.db[name]
	if !ok {
		return VMRecord{}, false
	}
	return *r, true
}

// BootVM schedules and spawns a VM. The scheduler applies a capacity
// filter and the HyperTP-aware affinity filter of §4.5.2: hosts whose
// population matches the VM's transplantability are weighted up, so
// transplantable VMs consolidate and whole hosts stay upgradable with a
// single InPlaceTP.
func (n *Nova) BootVM(cfg hv.Config) (string, error) {
	if _, dup := n.db[cfg.Name]; dup {
		return "", fmt.Errorf("nova: VM %q already exists", cfg.Name)
	}
	best := n.place(&cfg)
	if best == nil {
		return "", fmt.Errorf("nova: no node fits VM %q", cfg.Name)
	}
	id, err := best.Driver.Spawn(cfg)
	if err != nil {
		return "", err
	}
	n.db[cfg.Name] = &VMRecord{
		Name: cfg.Name, Node: best.Name, ID: id,
		Kind:              best.Driver.HypervisorKind(),
		InPlaceCompatible: cfg.InPlaceCompatible,
	}
	return best.Name, nil
}

// place is BootVM's placement scan: the fitting node with the best score.
func (n *Nova) place(cfg *hv.Config) *ComputeNode {
	var best *ComputeNode
	bestScore := -1 << 30
	for _, name := range n.order {
		if n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		node := n.nodes[name]
		hyp := node.Driver.Hypervisor()
		used, affinity := 0, 0
		hyp.EachVM(func(vm *hv.VM) bool {
			used += vm.Config.VCPUs
			// HyperTP affinity: count co-located VMs with matching
			// transplantability, penalize mismatches.
			if vm.Config.InPlaceCompatible == cfg.InPlaceCompatible {
				affinity += 2
			} else {
				affinity -= 3
			}
			return true
		})
		vcpus, mem := headroom(hyp.Machine(), used)
		if vcpus < cfg.VCPUs || mem < cfg.MemBytes {
			continue
		}
		// Light packing preference: fuller nodes first, so empty
		// nodes stay free for evacuation headroom.
		if score := affinity + hyp.VMCount(); score > bestScore {
			best, bestScore = node, score
		}
	}
	return best
}

// LiveMigrate moves one VM to another node (the existing Nova
// live_migration operation, heterogeneous-capable through the UISR
// proxies).
func (n *Nova) LiveMigrate(vmName, destNode string) (*migration.Report, error) {
	rec, ok := n.db[vmName]
	if !ok {
		return nil, fmt.Errorf("nova: unknown VM %q", vmName)
	}
	if _, ok := n.nodes[destNode]; !ok {
		return nil, fmt.Errorf("nova: unknown node %q", destNode)
	}
	if rec.Node == destNode {
		return nil, fmt.Errorf("nova: VM %q already on %q", vmName, destNode)
	}
	t := &hostTask{op: &opEvacuate, host: rec.Node, vm: vmName, dest: destNode}
	if err := t.op.admit(n, t); err != nil {
		return nil, err
	}
	sp := n.obs.Start(t.op.span, t.op.attrs(t)...)
	defer sp.End()
	if err := n.run(t, sp); err != nil {
		return nil, err
	}
	return t.migration, nil
}

// ColdMigrate moves a VM between nodes without a live link: the §4.5.2
// guest-state-saving path — suspend, checkpoint, destroy, restore on the
// destination, resume. Unlike LiveMigrate, the VM is down for the whole
// operation; the payoff is that it works across any pool pair and needs
// no migration stream.
func (n *Nova) ColdMigrate(vmName, destNode string) error {
	rec, ok := n.db[vmName]
	if !ok {
		return fmt.Errorf("nova: unknown VM %q", vmName)
	}
	dest, ok := n.nodes[destNode]
	if !ok {
		return fmt.Errorf("nova: unknown node %q", destNode)
	}
	if rec.Node == destNode {
		return fmt.Errorf("nova: VM %q already on %q", vmName, destNode)
	}
	src := n.nodes[rec.Node]
	srcHyp := src.Driver.Hypervisor()
	vm, ok := srcHyp.LookupVM(rec.ID)
	if !ok {
		return hterr.VMLost(fmt.Errorf("nova: VM %q missing from node %q", vmName, rec.Node))
	}
	sp := n.obs.Start("nova.cold-migrate",
		obs.A("vm", vmName), obs.A("from", rec.Node), obs.A("to", destNode))
	defer sp.End()
	// Durable round trip, as the real operation would store to shared
	// storage.
	data, err := checkpoint.Suspend(srcHyp, rec.ID)
	if err != nil {
		return err
	}
	// Past this point the source copy is gone: a failure is a real loss,
	// and the database row must not keep pointing at a dead VM.
	restored, err := checkpoint.Resume(dest.Driver.Hypervisor(), data, vm.Guest)
	if err != nil {
		delete(n.db, vmName)
		return hterr.VMLost(err)
	}
	rec.Node = destNode
	rec.ID = restored.ID
	rec.Kind = dest.Driver.HypervisorKind()
	return nil
}

// UpgradeRecord summarizes a HostLiveUpgrade call.
type UpgradeRecord struct {
	Node         string
	Target       hv.Kind
	EvacuatedVMs []string
	Report       *core.InPlaceReport
	Elapsed      time.Duration
}

// HostLiveUpgrade is the §4.5.2 one-click API: VMs that do not support
// InPlaceTP are live-migrated away (the Evacuate-like path), the host is
// transplanted in place, and the database is updated to the new
// hypervisor.
func (n *Nova) HostLiveUpgrade(nodeName string, target hv.Kind, opts core.Options) (*UpgradeRecord, error) {
	node, ok := n.nodes[nodeName]
	if !ok {
		return nil, fmt.Errorf("nova: unknown node %q", nodeName)
	}
	if node.Driver.HypervisorKind() == target {
		return nil, hterr.Incompatible(fmt.Errorf("nova: node %q already runs %v", nodeName, target))
	}
	hp := &hostPlan{name: nodeName, since: n.clock.Now()}
	t := &hostTask{op: &opTransplant, host: nodeName, target: target, opts: opts, plan: hp}
	sp := n.obs.Start(t.op.span, obs.A("node", nodeName), obs.A("target", target))
	defer sp.End()

	for _, vm := range node.Driver.VMs() {
		if vm.Config.InPlaceCompatible {
			continue
		}
		dest := n.pickEvacuationTarget(nodeName, vm)
		if dest == "" {
			// Nothing has been touched on this host yet: the upgrade is
			// abandoned cleanly, every VM keeps running where it was.
			return nil, hterr.Abort(fmt.Errorf("nova: no evacuation target for VM %q", vm.Config.Name))
		}
		if _, err := n.LiveMigrate(vm.Config.Name, dest); err != nil {
			return nil, err
		}
		hp.evacuated = append(hp.evacuated, vm.Config.Name)
	}
	sp.SetAttr("evacuated", len(hp.evacuated))
	if err := n.run(t, sp); err != nil {
		return nil, err
	}
	return t.record, nil
}

// pickEvacuationTarget chooses the node with the most capacity.
func (n *Nova) pickEvacuationTarget(exclude string, vm *hv.VM) string {
	return n.pickTarget(exclude, vm, func(name string) (int, uint64) {
		return n.nodes[name].Driver.Capacity()
	})
}

// pickTarget chooses, among the healthy nodes other than exclude whose
// headroom fits vm, the one with the most free vCPUs.
func (n *Nova) pickTarget(exclude string, vm *hv.VM, headroom func(name string) (vcpus int, mem uint64)) string {
	best := ""
	bestCPU := -1
	for _, name := range n.order {
		if name == exclude || n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		vcpus, mem := headroom(name)
		if vcpus < vm.Config.VCPUs || mem < vm.Config.MemBytes {
			continue
		}
		if vcpus > bestCPU {
			best, bestCPU = name, vcpus
		}
	}
	return best
}

// rebootEmptyHost swaps the hypervisor on a host with no VMs: a plain
// reboot, wipe and boot the target. No state to preserve.
func rebootEmptyHost(d *LibvirtDriver, target hv.Kind) error {
	d.engine.Machine.MicroReboot("fresh-boot", nil)
	hyp, err := d.engine.BootHypervisor(target)
	if err != nil {
		return err
	}
	d.hyp = hyp
	return nil
}
