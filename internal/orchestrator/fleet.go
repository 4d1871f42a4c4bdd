package orchestrator

import (
	"cmp"
	"errors"
	"slices"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
	"hypertp/internal/simtime"
)

// SetFleetLimits sets the capacity limits RespondToCVE and RecoverFleet
// schedule under (internal/sched): simultaneous kexecs and fabric
// migration streams. Nil means sched.Serial(): the same schedule, one
// operation at a time — the baseline the speedup acceptance compares
// against.
func (n *Nova) SetFleetLimits(l *sched.Limits) {
	n.fleetLimits = sched.Serial()
	if l != nil {
		n.fleetLimits = *l
	}
}

// capacity is one evacuation destination in the planning overlay: its
// headroom and, when the response also upgrades it, its plan.
type capacity struct {
	vcpus int
	mem   uint64
	plan  *hostPlan
}

// fleetRun executes one fleet operation: a planner (RespondToCVE,
// RecoverFleet) adds host tasks, and the run is the only code that turns
// them into sched nodes, runs their bodies — each on a private clock with
// a derived fault plan, so results are byte-identical for any -workers
// value — commits their bookkeeping in completion order, applies their
// failure rules and emits their spans. The outcome lists are in commit
// order; the planner maps them onto its response.
type fleetRun struct {
	n    *Nova
	base time.Duration
	g    *sched.Graph
	// avail is the capacity overlay: planned placements claim headroom up
	// front so concurrent migrations cannot oversubscribe a destination.
	avail map[string]capacity
	// stopOnLoss aborts the schedule at the first lost VM or host; abort
	// is that loss.
	stopOnLoss bool
	abort      error
	// finished are the tasks that succeeded, in commit order. Their spans
	// are emitted after the schedule: children must be attached in
	// monotone start order (obs.AuditRecords), which commit order is not.
	finished []*hostTask

	records                                        []*UpgradeRecord
	quarantined, replanned, stranded, lost, frozen []string
	hostFaults                                     int
}

func (n *Nova) newFleetRun() *fleetRun {
	return &fleetRun{n: n, base: n.clock.Now(), g: sched.NewGraph()}
}

// add plans t as a sched node.
func (fr *fleetRun) add(t *hostTask) *sched.Node {
	n := fr.n
	// An evacuation is named for its VM and claims both endpoints.
	hosts := []string{t.host, t.dest}
	if t.dest == "" {
		hosts = hosts[:1]
	}
	nd := &sched.Node{Name: t.op.node + cmp.Or(t.vm, t.host), Hosts: hosts, Kexecs: t.op.kexecs, Streams: t.op.streams}
	nd.Prepare = func(start time.Duration) {
		t.start = start
		if t.plan.since < 0 {
			t.plan.since = fr.base + start
		}
		if t.op.admit != nil {
			t.admitErr = t.op.admit(n, t)
		}
	}
	nd.Run = func(start time.Duration) (time.Duration, error) {
		if t.admitErr != nil {
			return 0, t.admitErr
		}
		// Arming order on the shared plan would depend on scheduling, so
		// the body draws from a stream derived for the node.
		c := simtime.NewClock()
		c.Advance(max(start, t.notBefore-fr.base))
		err := t.op.body(n, t, opEnv{clock: c, plan: n.faults.Derive(nd.ID), private: true})
		return c.Now() - start, err
	}
	nd.Commit = func(end time.Duration, err error) { fr.commit(t, end, err) }
	return fr.g.Add(nd)
}

// commit runs sequentially when t completes at end with err: nil, its
// body's error, or sched.ErrDepFailed when it was skipped.
func (fr *fleetRun) commit(t *hostTask, end time.Duration, err error) {
	n, at := fr.n, fr.base+end
	delete(t.plan.pending, t.vm)
	if err == nil {
		t.op.done(n, t, at)
		t.end = end
		fr.finished = append(fr.finished, t)
		switch {
		case t.record != nil:
			fr.records = append(fr.records, t.record)
		case n.quarantined[t.host]:
			fr.replanned = append(fr.replanned, t.vm)
		default:
			t.plan.evacuated = append(t.plan.evacuated, t.vm)
		}
		return
	}
	if errors.Is(err, errFleetHostFault) {
		fr.hostFaults++
	}
	switch t.op.fail(n, t, err) {
	case ruleDrain:
		// A skipped node is not drained while the run is aborting.
		if fr.abort == nil || !errors.Is(err, sched.ErrDepFailed) {
			fr.quarantine(t.plan)
		}
	case ruleStrand:
		fr.stranded = append(fr.stranded, t.vm)
	case ruleFrozen:
		fr.frozen = append(fr.frozen, t.host)
	case ruleLostHost:
		fr.lost = append(fr.lost, t.host)
		fallthrough
	case ruleLostVM:
		if fr.stopOnLoss {
			fr.abort = err
		}
	}
}

// offer lists a healthy host that need not itself evacuate as an
// evacuation destination — routing a VM to one that must would tie the
// two hosts' pipelines into a cycle.
func (fr *fleetRun) offer(name string, hp *hostPlan) {
	v, m := fr.n.nodes[name].Driver.Capacity()
	fr.avail[name] = capacity{v, m, hp}
}

// pickDest is pickEvacuationTarget against the overlay.
func (fr *fleetRun) pickDest(src string, vm *hv.VM) string {
	return fr.n.pickTarget(src, vm, func(name string) (int, uint64) {
		c := fr.avail[name] // unlisted: no headroom
		return c.vcpus, c.mem
	})
}

// evacuate plans vm's migration off hp's host to dest, which receives it
// only after its own transplant.
func (fr *fleetRun) evacuate(hp *hostPlan, vm *hv.VM, dest string) *sched.Node {
	c := fr.avail[dest]
	c.vcpus -= vm.Config.VCPUs
	c.mem -= min(c.mem, vm.Config.MemBytes)
	fr.avail[dest] = c
	nd := fr.add(&hostTask{op: &opEvacuate, host: hp.name, vm: vm.Config.Name, dest: dest, plan: hp})
	if hp.pending == nil {
		hp.pending = make(map[string]bool)
	}
	hp.pending[vm.Config.Name] = true
	if c.plan != nil {
		fr.g.Dep(nd, c.plan.tp)
	}
	return nd
}

// quarantine marks hp's host failed and replans its remaining VMs as
// drain migrations through the same schedule; VMs with a pending
// evacuation keep it, VMs with no viable destination are stranded.
func (fr *fleetRun) quarantine(hp *hostPlan) {
	if !fr.n.fence(hp.name) {
		return
	}
	fr.quarantined = append(fr.quarantined, hp.name)
	for _, vm := range fr.n.nodes[hp.name].Driver.VMs() {
		if hp.pending[vm.Config.Name] {
			continue
		}
		if dest := fr.pickDest(hp.name, vm); dest != "" {
			fr.evacuate(hp, vm, dest)
		} else {
			fr.stranded = append(fr.stranded, vm.Config.Name)
		}
	}
}

// execute runs the planned graph under the fleet limits and advances the
// manager's clock by the makespan.
func (fr *fleetRun) execute() error {
	n := fr.n
	schedule, err := sched.Execute(fr.g, n.fleetLimits, sched.Options{
		OnFail:  func(*sched.Node, error) bool { return fr.abort != nil },
		Metrics: n.obs.Metrics(),
	})
	if err != nil {
		return err
	}
	n.clock.Advance(schedule.Makespan)
	return nil
}

// emit records the run's root and its finished tasks' spans, sorted by
// start so siblings open in monotone order whatever the commit order.
func (fr *fleetRun) emit(root string, attrs ...obs.Attr) {
	if fr.n.obs == nil {
		return
	}
	sp := fr.n.obs.StartAt(nil, root, fr.base, attrs...)
	slices.SortStableFunc(fr.finished, func(a, b *hostTask) int { return cmp.Compare(a.start, b.start) })
	for _, t := range fr.finished {
		sp.ChildAt(t.op.span, fr.base+t.start, append(t.op.attrs(t), t.result()...)...).EndAt(fr.base + t.end)
	}
	sp.EndAt(fr.n.clock.Now())
}
