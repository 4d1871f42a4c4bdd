// Package cluster models the §5.4 datacenter experiment: a BtrPlace-like
// VM scheduler that plans a rolling hypervisor upgrade of a cluster by
// taking host groups offline in sequence, migrating away the VMs that
// cannot tolerate InPlaceTP, and upgrading each host in place.
//
// The Fig. 13 result — migration count dropping from ~154 to ~25 and
// total upgrade time falling ~80% as the InPlaceTP-compatible fraction
// grows — emerges from the replanning mechanics: evacuated VMs that land
// on not-yet-upgraded hosts must migrate again when their new host's
// group goes offline.
package cluster

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
	"hypertp/internal/simtime"
)

// WorkloadClass labels the §5.4 VM mix: 30% video streaming, 30% CPU- and
// memory-intensive, 40% idle.
type WorkloadClass string

// The §5.4 workload classes.
const (
	WorkStream WorkloadClass = "video-stream"
	WorkCPU    WorkloadClass = "cpu-mem"
	WorkIdle   WorkloadClass = "idle"
)

// VM is one cluster virtual machine (1 vCPU / 4 GB in the paper's setup).
type VM struct {
	ID                int
	Name              string
	VCPUs             int
	MemBytes          uint64
	Class             WorkloadClass
	InPlaceCompatible bool
	Host              int // current host id
	// Migrations counts how many times the VM moved during the upgrade.
	Migrations int
}

// Host is one physical server.
type Host struct {
	ID       int
	Name     string
	CapVCPUs int
	CapMem   uint64
	Upgraded bool
	// Quarantined marks a host whose in-place upgrade failed during a
	// fault-injected rolling upgrade: it keeps running its old
	// hypervisor, accepts no new placements, and its VMs are re-planned
	// elsewhere when capacity allows.
	Quarantined bool
	// vms is sorted by ID: a map's growth under deletes would follow its
	// per-process hash seed, and so would every plan's allocations.
	vms []*VM
}

// VMs returns the host's VM ids, sorted.
func (h *Host) VMs() []int {
	out := make([]int, len(h.vms))
	for i, vm := range h.vms {
		out[i] = vm.ID
	}
	return out
}

// find returns where VM id is, or would be, in h.vms.
func (h *Host) find(id int) (int, bool) {
	return slices.BinarySearchFunc(h.vms, id, func(vm *VM, id int) int { return cmp.Compare(vm.ID, id) })
}

// Load returns the host's committed vCPUs and memory.
func (h *Host) Load() (vcpus int, mem uint64) {
	for _, vm := range h.vms {
		vcpus += vm.VCPUs
		mem += vm.MemBytes
	}
	return
}

// fits reports whether the host can accept the VM.
func (h *Host) fits(vm *VM) bool {
	v, m := h.Load()
	return v+vm.VCPUs <= h.CapVCPUs && m+vm.MemBytes <= h.CapMem
}

// Cluster is the modeled datacenter.
type Cluster struct {
	hosts []*Host
	vms   map[int]*VM
}

// Config describes the cluster to build. The zero VMRam/VMVCPUs default
// to the paper's 4 GB / 1 vCPU.
type Config struct {
	Hosts      int
	VMsPerHost int
	VMRam      uint64
	VMVCPUs    int
	// StreamFrac / CPUFrac: the rest is idle (paper: 0.3 / 0.3).
	StreamFrac, CPUFrac float64
}

// New builds a cluster with the §5.4 shape: each host gets VMsPerHost VMs
// with the configured workload mix.
func New(cfg Config) (*Cluster, error) {
	if cfg.Hosts <= 1 || cfg.VMsPerHost <= 0 {
		return nil, fmt.Errorf("cluster: need >1 hosts and >0 VMs per host")
	}
	if cfg.VMRam == 0 {
		cfg.VMRam = 4 << 30
	}
	if cfg.VMVCPUs == 0 {
		cfg.VMVCPUs = 1
	}
	node := hw.ClusterNode()
	c := &Cluster{vms: make(map[int]*VM)}
	vmID := 0
	for hID := 0; hID < cfg.Hosts; hID++ {
		h := &Host{
			ID:       hID,
			Name:     fmt.Sprintf("host-%02d", hID),
			CapVCPUs: node.Threads - node.ReservedCPUs,
			CapMem:   node.RAMBytes - 8<<30, // host OS reservation
			vms:      make([]*VM, 0, cfg.VMsPerHost),
		}
		c.hosts = append(c.hosts, h)
		for v := 0; v < cfg.VMsPerHost; v++ {
			class := WorkIdle
			frac := float64(v) / float64(cfg.VMsPerHost)
			switch {
			case frac < cfg.StreamFrac:
				class = WorkStream
			case frac < cfg.StreamFrac+cfg.CPUFrac:
				class = WorkCPU
			}
			vm := &VM{
				ID: vmID, Name: fmt.Sprintf("vm-%03d", vmID),
				VCPUs: cfg.VMVCPUs, MemBytes: cfg.VMRam,
				Class: class, Host: hID,
			}
			if !h.fits(vm) {
				return nil, fmt.Errorf("cluster: host %d over capacity at build time", hID)
			}
			h.vms = append(h.vms, vm)
			c.vms[vm.ID] = vm
			vmID++
		}
	}
	return c, nil
}

// Hosts returns the hosts in id order.
func (c *Cluster) Hosts() []*Host { return c.hosts }

// VMCount returns the total VM population.
func (c *Cluster) VMCount() int { return len(c.vms) }

// VM returns a VM by id.
func (c *Cluster) VM(id int) (*VM, bool) {
	vm, ok := c.vms[id]
	return vm, ok
}

// SetInPlaceCompatibleFraction marks the given fraction of VMs as
// InPlaceTP compatible, deterministically under seed.
func (c *Cluster) SetInPlaceCompatibleFraction(frac float64, seed uint64) {
	rng := simtime.NewRand(seed)
	ids := make([]int, 0, len(c.vms))
	for id := range c.vms {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	// Fisher-Yates then take the prefix.
	for i := len(ids) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	n := int(frac*float64(len(ids)) + 0.5)
	for i, id := range ids {
		c.vms[id].InPlaceCompatible = i < n
	}
}

// Migration is one planned VM move.
type Migration struct {
	VMID     int
	From, To int
	Bytes    uint64
	// Replanned marks a move off a host quarantined in its group's
	// in-place window: it runs after the window, not before it.
	Replanned bool
}

// GroupPlan is the per-group slice of the upgrade. Migrations lists the
// group's evacuations first, then its re-planned moves.
type GroupPlan struct {
	Hosts      []int
	Migrations []Migration
	// InPlaceVMs counts VMs transplanted in place on the group's hosts.
	InPlaceVMs int
	// Quarantined lists the group's hosts whose in-place upgrade failed;
	// Stranded counts their VMs no healthy host could take (they stay on
	// the old hypervisor — degraded, never lost).
	Quarantined []int
	Stranded    int
}

// Plan is a full rolling-upgrade plan.
type Plan struct {
	Groups []GroupPlan
}

// PlanUpgrade computes and applies a rolling upgrade: hosts are processed
// in groups of groupSize; each group goes offline, its
// migration-requiring VMs are re-placed on online hosts (balanced
// least-loaded, BtrPlace's spread behaviour), its InPlaceTP-compatible
// VMs stay put for the in-place transplant, and the group comes back
// upgraded. The cluster state reflects the plan afterwards; Plan.Execute
// times it. Each host's in-place upgrade arms faults at the cluster.host
// site (nil never fires): a failed host is quarantined — it keeps its
// old hypervisor and takes no placements — and its VMs are re-planned
// onto healthy hosts, or counted stranded when none has room.
func (c *Cluster) PlanUpgrade(groupSize int, faults *fault.Plan) (*Plan, error) {
	if groupSize < 1 || groupSize >= len(c.hosts) {
		return nil, fmt.Errorf("cluster: group size %d out of range", groupSize)
	}
	plan := &Plan{}
	for lo := 0; lo < len(c.hosts); lo += groupSize {
		group := c.hosts[lo:min(lo+groupSize, len(c.hosts))]
		gp := GroupPlan{}
		offline := map[int]bool{}
		for _, h := range group {
			gp.Hosts = append(gp.Hosts, h.ID)
			offline[h.ID] = true
		}
		cursor := 0
		// move re-places vm from h onto the next online host that fits;
		// false means no host had room.
		move := func(h *Host, vm *VM, replanned bool) bool {
			dest := c.nextOnline(offline, vm, &cursor)
			if dest == nil {
				return false
			}
			i, _ := h.find(vm.ID)
			h.vms = slices.Delete(h.vms, i, i+1)
			i, _ = dest.find(vm.ID)
			dest.vms = slices.Insert(dest.vms, i, vm)
			vm.Host = dest.ID
			vm.Migrations++
			gp.Migrations = append(gp.Migrations, Migration{
				VMID: vm.ID, From: h.ID, To: dest.ID, Bytes: vm.MemBytes, Replanned: replanned,
			})
			return true
		}
		// Evacuate migration-requiring VMs from the group, spreading
		// them across all online hosts in rotation — BtrPlace's
		// load-balancing placement. Some land on hosts whose group is
		// still pending and will migrate again: that cascade is what
		// pushes the §5.4 plan to ~154 migrations for 100 VMs.
		for _, h := range group {
			for _, vm := range slices.Clone(h.vms) {
				if vm.InPlaceCompatible {
					continue
				}
				if !move(h, vm, false) {
					return nil, fmt.Errorf("cluster: no capacity to evacuate VM %d", vm.ID)
				}
			}
		}
		for _, h := range group {
			if fired, _ := faults.Arm(fault.SiteClusterHost); fired {
				h.Quarantined = true
				gp.Quarantined = append(gp.Quarantined, h.ID)
				continue
			}
			h.Upgraded = true
			gp.InPlaceVMs += len(h.vms)
		}
		for _, h := range group {
			if !h.Quarantined {
				continue
			}
			for _, vm := range slices.Clone(h.vms) {
				if !move(h, vm, true) {
					gp.Stranded++
				}
			}
		}
		plan.Groups = append(plan.Groups, gp)
	}
	return plan, nil
}

// nextOnline picks the next online host in rotation that fits the VM,
// starting from *cursor. It falls back to the least-loaded fitting host
// when the rotation target is full. Quarantined hosts never receive
// placements.
func (c *Cluster) nextOnline(offline map[int]bool, vm *VM, cursor *int) *Host {
	n := len(c.hosts)
	for tries := 0; tries < n; tries++ {
		h := c.hosts[(*cursor+tries)%n]
		if offline[h.ID] || h.Quarantined || !h.fits(vm) {
			continue
		}
		*cursor = (*cursor + tries + 1) % n
		return h
	}
	return nil
}

// ExecutionModel times a plan: migrations execute sequentially per group
// over the shared fabric (BtrPlace serializes its reconfiguration
// actions), in-place transplants run in parallel across a group's hosts.
type ExecutionModel struct {
	// LinkByteRate is the fabric rate available to one migration
	// stream.
	LinkByteRate int64
	// PerMigrationOverhead covers setup, pre-copy iterations and
	// stop-and-copy beyond the raw memory transfer.
	PerMigrationOverhead time.Duration
	// InPlaceHostTime is one host's InPlaceTP duration (seconds-scale;
	// from the core engine's cluster-node calibration).
	InPlaceHostTime time.Duration
}

// DefaultExecutionModel matches the §5.4 testbed: 10 Gbps fabric, ~4 s of
// per-migration overhead (which yields the paper's ~7.4 s per 4 GB
// migration), ~8 s per in-place host upgrade.
func DefaultExecutionModel() ExecutionModel {
	return ExecutionModel{
		LinkByteRate:         10_000_000_000 / 8,
		PerMigrationOverhead: 4 * time.Second,
		InPlaceHostTime:      8 * time.Second,
	}
}

// Result summarizes an executed upgrade.
type Result struct {
	Migrations    int
	MigrationTime time.Duration
	InPlaceTime   time.Duration
	TotalTime     time.Duration

	// Degradation record, carried over from the plan (see PlanUpgrade): a
	// failed host is quarantined, not fatal.
	Outcome hterr.Outcome
	// FailedHosts lists quarantined host ids in failure order.
	FailedHosts []int
	// ReplannedVMs counts VMs moved off quarantined hosts.
	ReplannedVMs int
	// StrandedVMs counts VMs that could not be re-planned for lack of
	// capacity; they keep running on their quarantined host's old
	// hypervisor (degraded, never lost).
	StrandedVMs int
	// Faults is the number of injected host failures absorbed.
	Faults int
}

// Summary implements hterr.Report.
func (r Result) Summary() hterr.Summary {
	return hterr.Summary{
		Kind:           "cluster",
		Outcome:        r.Outcome,
		Attempts:       1,
		VirtualElapsed: r.TotalTime,
		Faults:         r.Faults,
	}
}

// hostName renders a host id the way New names hosts, so scheduler
// host-exclusivity lines up with the modeled fleet.
func hostName(id int) string { return fmt.Sprintf("host-%02d", id) }

// groupNodes is one group's slice of the lowered DAG: one node per
// Migration in plan order (evacs evacuations, then the re-plans) and the
// in-place window (nil when the group has nothing to upgrade).
type groupNodes struct {
	migs    []*sched.Node
	evacs   int
	inplace *sched.Node
}

// nodeEnd is a scheduled cost-mode node's virtual end.
func nodeEnd(n *sched.Node) time.Duration { return n.Start() + n.Cost }

// Execute times the plan on the dependency-aware fleet scheduler
// (internal/sched) in cost mode and, when rec is non-nil, records its
// span tree. Every migration and every group's in-place window becomes a
// DAG node with a precomputed virtual cost: the window waits for the
// group's evacuations, the re-plans wait for the window (where their
// host failed), and the next group waits for both — so the upgrade stays
// rolling and no VM moves again before its re-plan lands. Within those
// edges migrations parallelize up to the limits (per-host exclusivity,
// LinkStreams fabric cap); sched.Serial() runs one node at a time in plan
// order, BtrPlace's serialized reconfiguration actions.
//
// A group's in-place node claims one kexec slot per group host (the
// hosts really do kexec simultaneously), so limits.MaxKexecs must be 0
// or at least the group size — otherwise the schedule is starved and an
// ErrStarved-wrapped error is returned.
func (p *Plan) Execute(m ExecutionModel, rec *obs.Recorder, limits sched.Limits) (Result, error) {
	g, groups := p.lower(m)
	schedule, err := sched.Execute(g, limits, sched.Options{Metrics: rec.Metrics()})
	if err != nil {
		return Result{}, err
	}
	return p.account(schedule.Makespan, groups, rec), nil
}

// lower builds the plan's DAG (see Execute).
func (p *Plan) lower(m ExecutionModel) (*sched.Graph, []groupNodes) {
	g := sched.NewGraph()
	groups := make([]groupNodes, len(p.Groups))
	addMig := func(mig Migration, name string) *sched.Node {
		transfer := time.Duration(float64(mig.Bytes) / float64(m.LinkByteRate) * float64(time.Second))
		return g.Add(&sched.Node{
			Name:    fmt.Sprintf(name, mig.VMID),
			Hosts:   []string{hostName(mig.From), hostName(mig.To)},
			Streams: 1,
			Cost:    transfer + m.PerMigrationOverhead,
		})
	}
	// hold gates n on prev, the last group with an in-place window: on the
	// window and its re-plans — the rolling order.
	var prev *groupNodes
	hold := func(n *sched.Node) {
		if prev != nil {
			g.Dep(n, prev.inplace)
			for _, r := range prev.migs[prev.evacs:] {
				g.Dep(n, r)
			}
		}
	}
	for gi := range p.Groups {
		gp, gn := &p.Groups[gi], &groups[gi]
		for gn.evacs < len(gp.Migrations) && !gp.Migrations[gn.evacs].Replanned {
			gn.evacs++
		}
		gn.migs = make([]*sched.Node, len(gp.Migrations))
		for i, mig := range gp.Migrations[:gn.evacs] {
			gn.migs[i] = addMig(mig, "migrate:vm-%03d")
			hold(gn.migs[i])
		}
		if gp.InPlaceVMs == 0 && len(gp.Migrations) == 0 && len(gp.Quarantined) == 0 {
			continue
		}
		hosts := make([]string, len(gp.Hosts))
		for i, id := range gp.Hosts {
			hosts[i] = hostName(id)
		}
		gn.inplace = g.Add(&sched.Node{
			Name:   fmt.Sprintf("inplace:group-%d", gi),
			Hosts:  hosts,
			Kexecs: len(gp.Hosts),
			Cost:   m.InPlaceHostTime,
		})
		for _, n := range gn.migs[:gn.evacs] {
			g.Dep(gn.inplace, n)
		}
		if gn.evacs == 0 {
			hold(gn.inplace)
		}
		for i := gn.evacs; i < len(gp.Migrations); i++ {
			gn.migs[i] = addMig(gp.Migrations[i], "replan:vm-%03d")
			g.Dep(gn.migs[i], gn.inplace)
		}
		prev = gn
	}
	return g, groups
}

// account walks the schedule back into the Result and the span tree: one
// root, one child per group, grandchildren per migration, per in-place
// window and per quarantined host, all carrying the scheduler's virtual
// times.
func (p *Plan) account(makespan time.Duration, groups []groupNodes, rec *obs.Recorder) Result {
	res := Result{Outcome: hterr.OutcomeCompleted, TotalTime: makespan}
	mets := rec.Metrics()
	root := rec.StartAt(nil, "rolling-upgrade", 0, obs.A("groups", len(p.Groups)))
	root.SetTrack("cluster")
	var cursor time.Duration
	for gi := range p.Groups {
		gp, gn := &p.Groups[gi], &groups[gi]
		gSpan := root.ChildAt(fmt.Sprintf("group-%d", gi), cursor,
			obs.A("hosts", len(gp.Hosts)),
			obs.A("migrations", len(gp.Migrations)),
			obs.A("inplace_vms", gp.InPlaceVMs))
		// Attach spans in start order: sibling starts must be monotone for
		// the span auditor. Serial schedules are already ordered;
		// concurrent ones interleave. Re-plans start after the window,
		// which waits for every evacuation, so they sort last.
		order := make([]int, len(gp.Migrations))
		for i := range order {
			order[i] = i
		}
		slices.SortStableFunc(order, func(a, b int) int {
			return cmp.Compare(gn.migs[a].Start(), gn.migs[b].Start())
		})
		spanMigrations := func(order []int, last time.Duration) time.Duration {
			for _, i := range order {
				mig, n := gp.Migrations[i], gn.migs[i]
				gSpan.ChildAt(n.Name, n.Start(),
					obs.A("from", mig.From), obs.A("to", mig.To), obs.A("bytes", mig.Bytes)).EndAt(nodeEnd(n))
				last = max(last, nodeEnd(n))
				mets.Counter("cluster.bytes_migrated", "bytes").Add(int64(mig.Bytes))
			}
			return last
		}
		migEnd := spanMigrations(order[:gn.evacs], cursor)
		mets.Counter("cluster.migrations", "migrations").Add(int64(len(gp.Migrations)))
		mets.Counter("cluster.inplace_vms", "vms").Add(int64(gp.InPlaceVMs))
		window := migEnd
		if gn.inplace != nil {
			window = nodeEnd(gn.inplace)
			gSpan.ChildAt("inplace-upgrade", gn.inplace.Start(),
				obs.A("hosts", len(gp.Hosts)), obs.A("vms", gp.InPlaceVMs)).EndAt(window)
			res.InPlaceTime += gn.inplace.Cost
		}
		for _, id := range gp.Quarantined {
			gSpan.ChildAt(fmt.Sprintf("quarantine:host-%02d", id), window).EndAt(window)
		}
		if len(gp.Quarantined) > 0 {
			mets.Counter("cluster.hosts_quarantined", "hosts").Add(int64(len(gp.Quarantined)))
		}
		replanEnd := spanMigrations(order[gn.evacs:], window)
		res.Migrations += len(gp.Migrations)
		res.MigrationTime += migEnd - cursor + replanEnd - window
		res.FailedHosts = append(res.FailedHosts, gp.Quarantined...)
		res.ReplannedVMs += len(gp.Migrations) - gn.evacs
		res.StrandedVMs += gp.Stranded
		cursor = replanEnd
		gSpan.EndAt(cursor)
	}
	res.Faults = len(res.FailedHosts)
	if res.Faults > 0 {
		res.Outcome = hterr.OutcomeDegraded
	}
	root.EndAt(makespan)
	return res
}

// Validate checks cluster invariants: every VM placed exactly once, no
// host over capacity. Failures are classified hterr.ErrInvariantViolated
// so callers (clustersim, the chaos auditor) can route on the class.
func (c *Cluster) Validate() error {
	seen := map[int]int{}
	for _, h := range c.hosts {
		v, mem := h.Load()
		if v > h.CapVCPUs || mem > h.CapMem {
			return hterr.InvariantViolated(fmt.Errorf("cluster: host %d over capacity (%d vCPUs, %d bytes)", h.ID, v, mem))
		}
		for _, vm := range h.vms {
			if vm.Host != h.ID {
				return hterr.InvariantViolated(fmt.Errorf("cluster: VM %d host field %d != %d", vm.ID, vm.Host, h.ID))
			}
			seen[vm.ID]++
		}
	}
	for id := range c.vms {
		if seen[id] != 1 {
			return hterr.InvariantViolated(fmt.Errorf("cluster: VM %d placed %d times", id, seen[id]))
		}
	}
	return nil
}
