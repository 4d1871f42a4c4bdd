package orchestrator

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/report"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

// errFleetHostFault marks an injected SiteClusterHost failure caught at
// transplant admission: the host is quarantined instead of upgraded.
var errFleetHostFault = hterr.Injected(errors.New("nova: injected host failure during upgrade window"))

// SetFleetLimits switches RespondToCVE onto the dependency-aware
// concurrent fleet scheduler (internal/sched): the response is planned
// as a DAG of host-level operations — evacuation migrations feeding
// in-place transplants, spare reboots unlocking evacuation capacity —
// and executed under the given limits on a shared virtual-time
// makespan. A nil limits restores the legacy one-host-at-a-time path.
// Limits with Serial set run the same planner one operation at a time,
// which is the baseline the speedup acceptance compares against.
func (n *Nova) SetFleetLimits(l *sched.Limits) { n.fleetLimits = l }

// FleetLimits returns the configured scheduler limits (nil = legacy
// serial path).
func (n *Nova) FleetLimits() *sched.Limits { return n.fleetLimits }

// fleetHostPlan is the planning and bookkeeping state for one affected
// host in a scheduled response.
type fleetHostPlan struct {
	name     string
	node     *ComputeNode
	target   hv.Kind
	incompat []*hv.VM

	// pendingEvacs tracks VMs with a not-yet-committed migration node,
	// so a quarantine drain does not double-plan them.
	pendingEvacs map[string]bool
	evacuated    []string

	tp        *sched.Node
	tpStart   time.Duration
	first     time.Duration
	firstSet  bool
	hostFault bool
	report    *core.InPlaceReport
}

func (hp *fleetHostPlan) markFirst(t time.Duration) {
	if !hp.firstSet {
		hp.first, hp.firstSet = t, true
	}
}

// fleetSpan is a span recorded during sequential Commit hooks and
// emitted after the schedule: children must be attached in monotone
// start order (obs.AuditSpans), which completion order does not give.
type fleetSpan struct {
	name       string
	start, end time.Duration
	attrs      []obs.Attr
}

// respondScheduled is the concurrent fleet response: RespondToCVE's
// body when fleet limits are configured. Planning (target selection,
// evacuation placement against a capacity overlay, DAG construction)
// is sequential in name order; execution runs on the scheduler with
// host-exclusive resources, per-task private clocks/links, and derived
// fault plans, so results are byte-identical for any -workers value.
func (n *Nova) respondScheduled(db *vulndb.Database, vrec *vulndb.Record, cveID string, pool []string, opts core.Options) (*FleetResponse, error) {
	for _, name := range n.order {
		if _, ok := n.nodes[name].Driver.(*LibvirtDriver); !ok {
			return nil, fmt.Errorf("nova: fleet scheduler requires libvirt drivers; node %q has %T", name, n.nodes[name].Driver)
		}
	}

	base := n.clock.Now()
	resp := &FleetResponse{CVE: cveID, Outcome: report.OutcomeCompleted}
	n.slo.SetTarget(cveID, base, slo.Target{Quantile: slo.DefaultQuantile, Window: vrec.RemediationWindow()})

	// Pass A: affected set and per-host targets, in name order.
	plans := make(map[string]*fleetHostPlan)
	var order []string
	for _, name := range n.order {
		if n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		node := n.nodes[name]
		current := node.Driver.HypervisorKind().String()
		if !vrec.Affected(current) {
			resp.SkippedNodes = append(resp.SkippedNodes, name)
			continue
		}
		targetName, err := db.SelectTarget(current, []string{cveID}, pool)
		if err != nil {
			return nil, fmt.Errorf("nova: node %s: %w", name, err)
		}
		target, err := hv.ParseKind(targetName)
		if err != nil {
			return nil, fmt.Errorf("nova: policy choice: %w", err)
		}
		n.slo.Expose(cveID, name, base)
		hp := &fleetHostPlan{name: name, node: node, target: target, pendingEvacs: make(map[string]bool)}
		node.Driver.Hypervisor().EachVM(func(vm *hv.VM) bool {
			if !vm.Config.InPlaceCompatible {
				hp.incompat = append(hp.incompat, vm)
			}
			return true
		})
		plans[name] = hp
		order = append(order, name)
		resp.Target = target
	}
	if len(order) == 0 {
		return nil, fmt.Errorf("nova: no node runs a hypervisor affected by %s", cveID)
	}

	// Capacity overlay: planned placements claim headroom up front so
	// concurrent migrations cannot oversubscribe a destination.
	type capacity struct {
		vcpus int
		mem   uint64
	}
	avail := make(map[string]*capacity)
	for _, name := range n.order {
		if n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		v, m := n.nodes[name].Driver.Capacity()
		avail[name] = &capacity{vcpus: v, mem: m}
	}
	// pickDest mirrors pickEvacuationTarget (most free vCPUs wins)
	// against the overlay. Affected hosts that must themselves
	// evacuate are not eligible destinations: routing a VM there would
	// create a cyclic dependency between the two hosts' pipelines.
	pickDest := func(src string, vm *hv.VM) string {
		best := ""
		bestCPU := -1
		for _, name := range n.order {
			if name == src || n.quarantined[name] || n.HostDowned(name) {
				continue
			}
			if hp := plans[name]; hp != nil && len(hp.incompat) > 0 {
				continue
			}
			c := avail[name]
			if c == nil || c.vcpus < vm.Config.VCPUs || c.mem < vm.Config.MemBytes {
				continue
			}
			if c.vcpus > bestCPU {
				best, bestCPU = name, c.vcpus
			}
		}
		return best
	}
	claimDest := func(src, dest string, vm *hv.VM) {
		if c := avail[dest]; c != nil {
			c.vcpus -= vm.Config.VCPUs
			c.mem -= min64(c.mem, vm.Config.MemBytes)
		}
		if c := avail[src]; c != nil {
			c.vcpus += vm.Config.VCPUs
			c.mem += vm.Config.MemBytes
		}
	}

	g := sched.NewGraph()
	var spans []fleetSpan
	var abortErr error

	// newMigrationNode moves one VM src→dest on a private clock and a
	// private full-rate clone of the fabric link; stream admission is
	// the scheduler's LinkStreams capacity. Bookkeeping (database row,
	// evacuated-vs-replanned classification) happens in Commit.
	newMigrationNode := func(hp *fleetHostPlan, vmName, dest string) *sched.Node {
		nd := &sched.Node{
			Name:    "evacuate:" + vmName,
			Hosts:   []string{hp.name, dest},
			Streams: 1,
		}
		var (
			vmID    hv.VMID
			seed    uint64
			srcHyp  hv.Hypervisor
			destHyp hv.Hypervisor
			rep     *migration.Report
			known   bool
		)
		nd.Prepare = func(start time.Duration) {
			hp.markFirst(start)
			rec, ok := n.db[vmName]
			known = ok
			if !ok {
				return
			}
			vmID = rec.ID
			n.seed++
			seed = n.seed
			srcHyp = n.nodes[hp.name].Driver.Hypervisor()
			destHyp = n.nodes[dest].Driver.Hypervisor()
		}
		nd.Run = func(start time.Duration) (time.Duration, error) {
			if !known {
				return 0, hterr.VMLost(fmt.Errorf("nova: unknown VM %q", vmName))
			}
			c := simtime.NewClock()
			c.Advance(start)
			link := simnet.NewLink(c, n.fabric.Name(), n.fabric.ByteRate(), n.fabric.Latency())
			if n.fabric.Down() {
				link.SetDown(true)
			}
			link.SetFaults(n.faults.Derive(nd.ID))
			recv := migration.NewReceiver(c, destHyp, seed)
			var err error
			migration.Run(c, migration.Params{
				Link:   link,
				Source: srcHyp,
				Dest:   recv,
				VMID:   vmID,
				Retry:  n.retry,
			}, func(r *migration.Report, e error) { rep, err = r, e })
			c.Run()
			return c.Now() - start, err
		}
		nd.Commit = func(end time.Duration, err error) {
			delete(hp.pendingEvacs, vmName)
			switch {
			case err == nil:
				if rec, ok := n.db[vmName]; ok {
					rec.Node = dest
					rec.ID = rep.DestVM.ID
					rec.Kind = n.nodes[dest].Driver.HypervisorKind()
				}
				if n.quarantined[hp.name] {
					resp.ReplannedVMs = append(resp.ReplannedVMs, vmName)
				} else {
					hp.evacuated = append(hp.evacuated, vmName)
				}
				n.slo.AddVMDowntime(vmName, rep.Downtime)
				spans = append(spans, fleetSpan{
					name: "nova.live-migrate", start: base + nd.Start(), end: base + end,
					attrs: []obs.Attr{obs.A("vm", vmName), obs.A("from", hp.name), obs.A("to", dest)},
				})
			case errors.Is(err, sched.ErrDepFailed):
				// The destination never became ready (its transplant
				// failed) or the response aborted. A quarantined
				// source strands the VM; otherwise the host's
				// transplant is skipped next and replans the drain.
				if n.quarantined[hp.name] {
					resp.StrandedVMs = append(resp.StrandedVMs, vmName)
				}
			default:
				if hterr.Class(err) == hterr.ErrVMLost {
					// Lost mid-stream: the row must not place a VM no
					// host runs.
					delete(n.db, vmName)
				} else if n.quarantined[hp.name] {
					// A failed quarantine drain strands in place.
					resp.StrandedVMs = append(resp.StrandedVMs, vmName)
				}
			}
		}
		return g.Add(nd)
	}

	// quarantineScheduled marks a host failed mid-schedule and replans
	// its remaining VMs as drain migrations through the same scheduler
	// (VMs with still-pending evacuation nodes keep those).
	quarantineScheduled := func(hp *fleetHostPlan) {
		if n.quarantined[hp.name] {
			return
		}
		n.quarantined[hp.name] = true
		resp.QuarantinedNodes = append(resp.QuarantinedNodes, hp.name)
		n.obs.Metrics().Counter("nova.hosts_quarantined", "hosts").Add(1)
		for _, vm := range hp.node.Driver.VMs() {
			vmName := vm.Config.Name
			if hp.pendingEvacs[vmName] {
				continue
			}
			dest := pickDest(hp.name, vm)
			if dest == "" {
				resp.StrandedVMs = append(resp.StrandedVMs, vmName)
				continue
			}
			claimDest(hp.name, dest, vm)
			dn := newMigrationNode(hp, vmName, dest)
			hp.pendingEvacs[vmName] = true
			if dhp := plans[dest]; dhp != nil && dhp.tp != nil {
				g.Dep(dn, dhp.tp)
			}
		}
	}

	// newTransplantNode upgrades one host in place (or fresh-boots an
	// empty spare) on a private clock swapped into the host's engine.
	newTransplantNode := func(hp *fleetHostPlan) *sched.Node {
		nd := &sched.Node{
			Name:   "transplant:" + hp.name,
			Hosts:  []string{hp.name},
			Kexecs: 1,
		}
		drv := hp.node.Driver
		ld := drv.(*LibvirtDriver)
		nd.Prepare = func(start time.Duration) {
			hp.tpStart = start
			hp.markFirst(start)
			if fired, _ := n.faults.Arm(fault.SiteClusterHost); fired {
				hp.hostFault = true
			}
			// The engine runs concurrently: give it a derived fault
			// stream (arming order on the shared plan would depend on
			// scheduling) and detach the shared recorder.
			ld.engine.Fault = n.faults.Derive(nd.ID)
			ld.engine.Obs = nil
		}
		nd.Run = func(start time.Duration) (time.Duration, error) {
			if hp.hostFault {
				return 0, errFleetHostFault
			}
			c := simtime.NewClock()
			c.Advance(start)
			restore := ld.engine.SwapClock(c)
			defer restore()
			if drv.Hypervisor().VMCount() > 0 {
				rep, err := drv.HostLiveUpgrade(hp.target, opts)
				if err != nil {
					return c.Now() - start, err
				}
				hp.report = rep
			} else if err := rebootEmptyHost(drv, hp.target); err != nil {
				return c.Now() - start, err
			}
			return c.Now() - start, nil
		}
		nd.Commit = func(end time.Duration, err error) {
			ld.engine.Fault = n.faults
			ld.engine.Obs = n.obs
			switch {
			case err == nil:
				if hp.report != nil {
					for _, res := range hp.report.VMs {
						if r, ok := n.db[res.Name]; ok {
							r.ID = res.NewID
							r.Kind = hp.target
						}
						n.slo.AddVMDowntime(res.Name, hp.report.Downtime)
					}
				}
				// The kexec commit closes this host's vulnerability
				// window.
				n.slo.Remediate(cveID, hp.name, base+end)
				resp.UpgradedNodes = append(resp.UpgradedNodes, hp.name)
				resp.Records = append(resp.Records, &UpgradeRecord{
					Node: hp.name, Target: hp.target,
					EvacuatedVMs: hp.evacuated, Report: hp.report,
					Elapsed: end - hp.first,
				})
				spans = append(spans, fleetSpan{
					name: "nova.host-live-upgrade", start: base + hp.tpStart, end: base + end,
					attrs: []obs.Attr{obs.A("node", hp.name), obs.A("target", hp.target), obs.A("evacuated", len(hp.evacuated))},
				})
			case errors.Is(err, sched.ErrDepFailed):
				// An evacuation failed upstream; quarantine and drain
				// unless the whole response is aborting.
				if abortErr == nil {
					quarantineScheduled(hp)
				}
			}
			// Real errors are handled by OnFail (quarantine or abort).
		}
		return g.Add(nd)
	}

	owners := make(map[*sched.Node]*fleetHostPlan)

	// Pass B1: transplant nodes for hosts with nothing to evacuate —
	// empty spares and all-compatible hosts. These are the schedule
	// roots that unlock evacuation capacity.
	for _, name := range order {
		hp := plans[name]
		if len(hp.incompat) == 0 {
			hp.tp = newTransplantNode(hp)
			owners[hp.tp] = hp
		}
	}

	// Pass B2: evacuation pipelines. A host whose incompatible VM has
	// no placement is quarantined at plan time (the legacy abort path)
	// and its VMs drain instead.
	for _, name := range order {
		hp := plans[name]
		if len(hp.incompat) == 0 {
			continue
		}
		var evacs []*sched.Node
		placed := true
		for _, vm := range hp.incompat {
			dest := pickDest(name, vm)
			if dest == "" {
				placed = false
				break
			}
			claimDest(name, dest, vm)
			ev := newMigrationNode(hp, vm.Config.Name, dest)
			owners[ev] = hp
			hp.pendingEvacs[vm.Config.Name] = true
			if dhp := plans[dest]; dhp != nil && dhp.tp != nil {
				g.Dep(ev, dhp.tp)
			}
			evacs = append(evacs, ev)
		}
		if !placed {
			// No capacity for this host's evacuations: quarantine it
			// up front; already-planned evacuations become drains.
			n.quarantined[name] = true
			resp.QuarantinedNodes = append(resp.QuarantinedNodes, name)
			n.obs.Metrics().Counter("nova.hosts_quarantined", "hosts").Add(1)
			for _, vm := range hp.node.Driver.VMs() {
				vmName := vm.Config.Name
				if hp.pendingEvacs[vmName] {
					continue
				}
				dest := pickDest(name, vm)
				if dest == "" {
					resp.StrandedVMs = append(resp.StrandedVMs, vmName)
					continue
				}
				claimDest(name, dest, vm)
				dn := newMigrationNode(hp, vmName, dest)
				owners[dn] = hp
				hp.pendingEvacs[vmName] = true
				if dhp := plans[dest]; dhp != nil && dhp.tp != nil {
					g.Dep(dn, dhp.tp)
				}
			}
			continue
		}
		hp.tp = newTransplantNode(hp)
		owners[hp.tp] = hp
		for _, ev := range evacs {
			g.Dep(hp.tp, ev)
		}
	}

	onFail := func(nd *sched.Node, err error) bool {
		hp := owners[nd]
		if hterr.Class(err) == hterr.ErrVMLost {
			if hp != nil && nd == hp.tp {
				n.reconcileLostHost(hp.name)
			}
			abortErr = err
			return true
		}
		if errors.Is(err, errFleetHostFault) {
			resp.Faults++
		}
		if hp != nil {
			quarantineScheduled(hp)
		}
		return false
	}

	schedule, err := sched.Execute(g, *n.fleetLimits, sched.Options{OnFail: onFail, Metrics: n.obs.Metrics()})
	if err != nil {
		return nil, err
	}
	n.clock.Advance(schedule.Makespan)

	// Emit the buffered spans under one root, sorted by start time so
	// siblings open in monotone order regardless of completion order.
	if n.obs != nil && len(spans) > 0 {
		root := n.obs.StartAt(nil, "nova.respond-cve", base,
			obs.A("cve", cveID), obs.A("target", resp.Target), obs.A("hosts", len(order)))
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for _, fs := range spans {
			sp := root.ChildAt(fs.name, fs.start, fs.attrs...)
			sp.EndAt(fs.end)
		}
		root.EndAt(base + schedule.Makespan)
	}

	resp.Elapsed = n.clock.Now() - base
	if abortErr != nil {
		resp.Outcome = report.OutcomeDegraded
		return resp, abortErr
	}
	if len(resp.UpgradedNodes) == 0 && len(resp.QuarantinedNodes) == 0 {
		return nil, fmt.Errorf("nova: no node runs a hypervisor affected by %s", cveID)
	}
	if len(resp.QuarantinedNodes) > 0 {
		resp.Outcome = report.OutcomeDegraded
	}
	return resp, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}
