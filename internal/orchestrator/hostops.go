package orchestrator

import (
	"errors"
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// errFleetHostFault marks an injected SiteClusterHost failure caught at
// transplant admission: the host is quarantined instead of upgraded.
var errFleetHostFault = hterr.Injected(errors.New("nova: injected host failure during upgrade window"))

// hostOp is one row of the host-operation table: what the manager does to
// a host, declared once. The direct calls (LiveMigrate, HostLiveUpgrade,
// RecoverHost) run a row on the shared clock, fabric and recorder inside
// a live span (Nova.run); fleetRun runs the same row as a sched.Node on a
// private clock with a derived fault plan and emits the span afterwards.
type hostOp struct {
	node, span      string // sched.Node name prefix and span name
	kexecs, streams int    // counted claim, beside the task's hosts
	emergency       bool   // the swap salvages a crashed hypervisor
	attrs           func(t *hostTask) []obs.Attr
	// admit is what must happen in admission order: it runs sequentially
	// when a schedule admits the task, or ahead of a direct LiveMigrate.
	admit func(n *Nova, t *hostTask) error
	// body performs the operation against env and leaves its report in t.
	body func(n *Nova, t *hostTask, env opEnv) error
	// done is the success bookkeeping at virtual time at: database rows,
	// VM downtime, SLO events and, for a swap, the UpgradeRecord.
	done func(n *Nova, t *hostTask, at time.Duration)
	// fail applies the manager's side of the failure rule for err (the
	// body's, or sched.ErrDepFailed) and names the rule.
	fail func(n *Nova, t *hostTask, err error) failRule
}

var (
	opEvacuate = hostOp{
		node: "evacuate:", span: "nova.live-migrate", streams: 1,
		attrs: func(t *hostTask) []obs.Attr {
			return []obs.Attr{obs.A("vm", t.vm), obs.A("from", t.host), obs.A("to", t.dest)}
		},
		admit: admitEvacuation, body: migrateVM, done: evacuated, fail: evacuationFailed,
	}
	opTransplant = hostOp{
		node: "transplant:", span: "nova.host-live-upgrade", kexecs: 1,
		attrs: func(t *hostTask) []obs.Attr {
			return []obs.Attr{obs.A("node", t.host), obs.A("target", t.target), obs.A("evacuated", len(t.plan.evacuated))}
		},
		admit: admitTransplant, body: swapHypervisor, done: transplanted, fail: transplantFailed,
	}
	opRecover = hostOp{
		node: "emergency:", span: "nova.emergency-recover", kexecs: 1, emergency: true,
		attrs: func(t *hostTask) []obs.Attr {
			return []obs.Attr{obs.A("node", t.host), obs.A("target", t.target)}
		},
		body: swapHypervisor, done: recovered, fail: recoveryFailed,
	}
)

// failRule is what becomes of a host or VM whose operation failed; a
// direct call just surfaces the error, fleetRun acts on the rule.
type failRule uint8

const (
	ruleNone     failRule = iota // a later node replans it, or nothing can
	ruleDrain                    // quarantine the host and drain its VMs
	ruleStrand                   // the VM keeps running on its quarantined host
	ruleFrozen                   // the host stays downed, state intact: retryable
	ruleLostVM                   // the VM died mid-stream: its row is purged
	ruleLostHost                 // the host died past the point of no return: rows purged, fenced, named
)

// opEnv is what a row body runs against: the manager's clock, recorder
// and fault plan for a direct call; under fleetRun a private clock, no
// recorder and the fault stream derived for the sched node.
type opEnv struct {
	clock   *simtime.Clock
	rec     *obs.Recorder
	plan    *fault.Plan
	private bool
}

// hostPlan is one host's upgrade or recovery in progress: what its tasks
// share and its UpgradeRecord reports.
type hostPlan struct {
	name      string
	incompat  []*hv.VM
	evacuated []string
	// pending are the VMs with an uncommitted migration node: a quarantine
	// drain must not plan them twice. tp is the planned transplant node.
	pending map[string]bool
	tp      *sched.Node
	// since starts UpgradeRecord.Elapsed: when work on the host began
	// (negative until it has) or, for a recovery, when it crashed.
	since time.Duration
}

// hostTask is one instance of a row.
type hostTask struct {
	op       *hostOp
	host     string // the host operated on; an evacuation's source
	vm, dest string // evacuation only
	target   hv.Kind
	opts     core.Options
	cve      string    // remediated by a successful transplant
	plan     *hostPlan // nil for a direct LiveMigrate
	// notBefore delays the body: a recovery waits out detection latency.
	notBefore time.Duration

	vmID     hv.VMID // admission snapshot
	seed     uint64
	admitErr error
	start    time.Duration // schedule-relative, under fleetRun
	end      time.Duration

	migration *migration.Report
	report    *core.InPlaceReport
	record    *UpgradeRecord
}

// run performs t directly: the row's body on the shared clock, fabric and
// recorder, then its bookkeeping.
func (n *Nova) run(t *hostTask) error {
	if err := t.op.body(n, t, opEnv{clock: n.clock, rec: n.obs, plan: n.faults}); err != nil {
		t.op.fail(n, t, err)
		return err
	}
	t.op.done(n, t, n.clock.Now())
	return nil
}

// admitEvacuation snapshots the VM's row and draws the receiver's seed.
func admitEvacuation(n *Nova, t *hostTask) error {
	rec, ok := n.db[t.vm]
	if !ok {
		return hterr.VMLost(fmt.Errorf("nova: unknown VM %q", t.vm))
	}
	t.vmID = rec.ID
	n.seed++
	t.seed = n.seed
	return nil
}

// migrateVM live-migrates one VM host→dest. A private run streams over
// its own full-rate clone of the fabric: stream admission is the
// scheduler's LinkStreams capacity.
func migrateVM(n *Nova, t *hostTask, env opEnv) error {
	link := n.fabric
	if env.private {
		link = simnet.NewLink(env.clock, link.Name(), link.ByteRate(), link.Latency())
		link.SetDown(n.fabric.Down())
		link.SetFaults(env.plan)
	}
	var err error
	migration.Run(env.clock, migration.Params{
		Link:   link,
		Source: n.nodes[t.host].Driver.Hypervisor(),
		Dest:   migration.NewReceiver(env.clock, n.nodes[t.dest].Driver.Hypervisor(), t.seed),
		VMID:   t.vmID,
		Obs:    env.rec,
		Retry:  n.retry,
	}, func(r *migration.Report, e error) { t.migration, err = r, e })
	env.clock.Run()
	return err
}

func evacuated(n *Nova, t *hostTask, _ time.Duration) {
	if rec, ok := n.db[t.vm]; ok {
		rec.Node = t.dest
		rec.ID = t.migration.DestVM.ID
		rec.Kind = n.nodes[t.dest].Driver.HypervisorKind()
	}
	n.slo.AddVMDowntime(t.vm, t.migration.Downtime)
}

func evacuationFailed(n *Nova, t *hostTask, err error) failRule {
	switch {
	case hterr.Class(err) == hterr.ErrVMLost:
		// Keeping the row would place a VM that no host runs.
		delete(n.db, t.vm)
		return ruleLostVM
	case n.quarantined[t.host]:
		return ruleStrand
	case errors.Is(err, sched.ErrDepFailed):
		// The destination never became ready: the host's transplant is
		// skipped next and replans the drain.
		return ruleNone
	}
	return ruleDrain
}

// admitTransplant arms the per-host fleet fault site.
func admitTransplant(n *Nova, _ *hostTask) error {
	if fired, _ := n.faults.Arm(fault.SiteClusterHost); fired {
		return errFleetHostFault
	}
	return nil
}

// swapHypervisor replaces the host's hypervisor with t.target, keeping
// its VMs: an in-place transplant, or the emergency salvage of a crashed
// one. A host with no VMs just reboots into the target. A private run
// points the host's engine at env for the duration: nodes claim their
// hosts exclusively, so nothing else reads the engine meanwhile.
func swapHypervisor(n *Nova, t *hostTask, env opEnv) (err error) {
	ld := n.nodes[t.host].Driver
	if env.private {
		e := ld.engine
		unclock, plan, rec := e.SwapClock(env.clock), e.Fault, e.Obs
		e.Fault, e.Obs = env.plan, env.rec
		defer func() {
			unclock()
			e.Fault, e.Obs = plan, rec
		}()
	}
	switch {
	case ld.hyp.VMCount() == 0:
		err = rebootEmptyHost(ld, t.target)
	case t.op.emergency:
		t.report, err = ld.EmergencyRecover(t.target, t.opts)
	default:
		t.report, err = ld.HostLiveUpgrade(t.target, t.opts)
	}
	return err
}

// swapped is the bookkeeping both swaps share: every VM on the host has a
// new id under the target hypervisor and sat out the same blackout.
func (n *Nova) swapped(t *hostTask, at time.Duration) {
	if t.report != nil {
		for _, res := range t.report.VMs {
			if r, ok := n.db[res.Name]; ok {
				r.ID = res.NewID
				r.Kind = t.target
			}
			n.slo.AddVMDowntime(res.Name, t.report.Downtime)
		}
	}
	t.record = &UpgradeRecord{
		Node: t.host, Target: t.target, EvacuatedVMs: t.plan.evacuated,
		Report: t.report, Elapsed: at - t.plan.since,
	}
}

func transplanted(n *Nova, t *hostTask, at time.Duration) {
	n.swapped(t, at)
	if t.cve != "" {
		// The kexec commit closes this host's vulnerability window.
		n.slo.Remediate(t.cve, t.host, at)
	}
}

func transplantFailed(n *Nova, t *hostTask, err error) failRule {
	if hterr.Class(err) == hterr.ErrVMLost {
		n.reconcileLostHost(t.host)
		return ruleLostHost
	}
	return ruleDrain
}

// recovered closes the outage at the last VM's resume time: the record's
// Elapsed is the host's MTTR, detection window included.
func recovered(n *Nova, t *hostTask, at time.Duration) {
	n.swapped(t, at)
	delete(n.downed, t.host)
	n.slo.HostUp(t.host, at)
	n.obs.Metrics().Counter("nova.emergency_recoveries", "hosts").Add(1)
}

func recoveryFailed(n *Nova, t *hostTask, err error) failRule {
	switch hterr.Class(err) {
	case hterr.ErrVMLost:
		// The VMs are gone and the outage stays open: there is nothing
		// left to bring up.
		delete(n.downed, t.host)
		n.reconcileLostHost(t.host)
		return ruleLostHost
	case hterr.ErrHypervisorCrashed:
		// Salvage exhausted its retries with the frozen state intact.
		return ruleFrozen
	}
	return ruleNone
}
