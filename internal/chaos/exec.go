package chaos

import (
	"errors"
	"fmt"

	"hypertp/internal/cluster"
	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/sched"
)

// deadVMID is the never-allocated VM id the "leak-frame" breaker tags
// its planted frame with.
const deadVMID = 1 << 20

// opts is the transplant configuration every op runs with: the paper's
// defaults, plus the shared cache on cached soaks.
func (h *harness) opts() core.Options {
	o := core.DefaultOptions()
	o.Cache = h.cache
	return o
}

// step runs one op to quiescence: arm the op's fault plan, apply, drain
// the event queue, detach the plan, reconcile losses, and apply the
// deliberate breaker (if armed). Returns the deterministic trace line.
func (h *harness) step(op *Op) string {
	start := h.clock.Now()
	mets := h.rec.Metrics()
	mets.Counter("chaos.ops", "ops").Add(1)
	if op.Fault != 0 && h.cfg.FaultRate > 0 {
		h.nova.SetFaults(fault.NewPlan(op.Fault, h.cfg.FaultRate))
	}
	line, err := h.apply(op)
	h.clock.Run()
	h.nova.SetFaults(nil)
	h.lastErr = err
	h.lastElapsed = h.clock.Now() - start
	if err != nil {
		mets.Counter("chaos.op_errors", "ops").Add(1)
		line = fmt.Sprintf("error[%s]: %v", hterr.Label(hterr.Class(err)), err)
		if errors.Is(err, hterr.ErrVMLost) {
			switch op.Kind {
			case OpUpgrade, OpCrashHV, OpCrashDuringTransplant:
				// The single-host calls name no host: the loss is the op's own.
				h.lose(op.Host)
			}
		}
	}
	h.applyBreak(op, err)
	h.syncVMs()
	return line
}

// lose declares dead the hosts an operation reports lost past the point
// of no return — exactly those, no guessing: Nova fenced them and purged
// their rows, and later audits skip the wreck. The loss itself is a
// recorded outcome; a host Nova lost but forgot to reconcile is in no
// response's list, so the bookkeeping audit still catches it.
func (h *harness) lose(hosts ...string) {
	for _, name := range hosts {
		if !h.dead[name] {
			h.dead[name] = true
			h.rec.Metrics().Counter("chaos.hosts_lost", "hosts").Add(1)
		}
	}
}

// apply executes one op. A nil error with a "skip:" line means the op
// no longer applies to the current fleet state (its VM or host is
// gone) — a recorded outcome, deliberately not a failure, so shrinking
// can drop earlier ops without invalidating later ones.
func (h *harness) apply(op *Op) (string, error) {
	switch op.Kind {
	case OpWorkload:
		vm := h.lookupVM(op.VM)
		if vm == nil || vm.Guest == nil {
			return "skip: vm gone", nil
		}
		pages := op.Pages
		if pages <= 0 {
			pages = 8
		}
		if err := vm.Guest.WriteWorkingSet(hw.GFN(pages%64), pages); err != nil {
			return "", err
		}
		if err := h.refreshBaseline(op.VM); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s wrote %d pages", op.VM, pages), nil

	case OpMigrate:
		rec, ok := h.nova.Record(op.VM)
		if !ok {
			return "skip: vm gone", nil
		}
		if h.dead[op.Target] {
			return "skip: target dead", nil
		}
		if rec.Node == op.Target {
			return "skip: already placed", nil
		}
		if _, err := h.nova.LiveMigrate(op.VM, op.Target); err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s→%s", op.VM, rec.Node, op.Target), nil

	case OpUpgrade:
		if h.dead[op.Host] {
			return "skip: host dead", nil
		}
		node, ok := h.nova.Node(op.Host)
		if !ok {
			return "", fmt.Errorf("chaos: unknown host %q", op.Host)
		}
		target := hv.KindKVM
		if node.Driver.HypervisorKind() == hv.KindKVM {
			target = hv.KindXen
		}
		up, err := h.nova.HostLiveUpgrade(op.Host, target, h.opts())
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s → %v (evacuated %d)", op.Host, target, len(up.EvacuatedVMs)), nil

	case OpQuarantine:
		if h.dead[op.Host] {
			return "skip: host dead", nil
		}
		replanned, stranded, err := h.nova.Quarantine(op.Host)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s fenced (replanned %d, stranded %d)", op.Host, len(replanned), len(stranded)), nil

	case OpReturn:
		if h.dead[op.Host] {
			return "skip: host dead", nil
		}
		if err := h.nova.Return(op.Host); err != nil {
			return "", err
		}
		return op.Host + " returned", nil

	case OpLinkDown:
		h.fabric.SetDown(true)
		return "fabric severed", nil

	case OpLinkUp:
		h.fabric.SetDown(false)
		return "fabric restored", nil

	case OpRespond, OpRespondFleet:
		// OpRespondFleet is the same response scheduled concurrently under
		// capacity limits; nil restores the one-at-a-time schedule the
		// OpRespond ops run.
		label := op.Target
		if op.Kind == OpRespondFleet {
			label = "fleet " + label
			h.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 2, LinkStreams: 2})
			defer h.nova.SetFleetLimits(nil)
		}
		resp, err := h.nova.RespondToCVE(h.db, op.Target, []string{"xen", "kvm"}, h.opts())
		if err != nil {
			if resp != nil {
				h.lose(resp.LostNodes...)
			}
			return "", err
		}
		h.lastRespond = op.Target
		return fmt.Sprintf("%s: upgraded %d, skipped %d, quarantined %d",
			label, len(resp.UpgradedNodes), len(resp.SkippedNodes), len(resp.QuarantinedNodes)), nil

	case OpSweep:
		return h.sweep(op)

	case OpCrashHV:
		if h.dead[op.Host] {
			return "skip: host dead", nil
		}
		if h.nova.Quarantined(op.Host) {
			return "skip: host quarantined", nil
		}
		if h.nova.HostDowned(op.Host) {
			// A previous recovery froze mid-salvage and left the host
			// downed; this op is the retry, not a second crash.
			rec, err := h.nova.RecoverHost(op.Host, h.opts())
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("%s re-recovered → %v", op.Host, rec.Target), nil
		}
		node, ok := h.nova.Node(op.Host)
		if !ok {
			return "", fmt.Errorf("chaos: unknown host %q", op.Host)
		}
		if hyp := node.Driver.Hypervisor(); hyp.Crashed() || hyp.Hung() {
			// Crashed outside the ledger (a double-fault whose self-heal
			// froze); the next upgrade or response self-heals it.
			return "skip: already failed", nil
		}
		mode, failHost := "crashed", h.nova.CrashHost
		if op.Target == "hang" {
			mode, failHost = "hung", h.nova.HangHost
		}
		ev, err := failHost(op.Host, "chaos")
		if err != nil {
			return "", err
		}
		rec, err := h.nova.RecoverHost(op.Host, h.opts())
		if err != nil {
			// Frozen recovery: the host stays downed (retryable by a later
			// OpCrashHV); a lost host is declared dead by step.
			return "", err
		}
		return fmt.Sprintf("%s %s, detected +%v, recovered → %v", op.Host, mode, ev.Latency(), rec.Target), nil

	case OpCrashStorm:
		count := op.Count
		if count <= 0 {
			count = 2
		}
		crashed := 0
		for _, name := range h.hosts {
			if crashed >= count {
				break
			}
			if h.dead[name] || h.nova.Quarantined(name) || h.nova.HostDowned(name) {
				continue
			}
			node, ok := h.nova.Node(name)
			if !ok {
				continue
			}
			if hyp := node.Driver.Hypervisor(); hyp.Crashed() || hyp.Hung() {
				continue
			}
			if _, err := h.nova.CrashHost(name, "storm"); err != nil {
				return "", err
			}
			crashed++
		}
		// The scheduled fleet recovery sweeps everything downed — the
		// fresh crashes plus any leftover from earlier frozen recoveries.
		limits := sched.Limits{MaxKexecs: 2}
		h.nova.SetFleetLimits(&limits)
		resp, err := h.nova.RecoverFleet(h.opts())
		h.nova.SetFleetLimits(nil)
		if err != nil {
			return "", err
		}
		if len(resp.DownHosts) == 0 {
			return "skip: no healthy hosts to storm", nil
		}
		h.lose(resp.LostNodes...)
		return fmt.Sprintf("storm downed %d: recovered %d, frozen %d, lost %d (%s)",
			len(resp.DownHosts), len(resp.RecoveredNodes), len(resp.FrozenNodes), len(resp.LostNodes), resp.Outcome), nil

	case OpCrashDuringTransplant:
		if h.dead[op.Host] {
			return "skip: host dead", nil
		}
		if h.nova.Quarantined(op.Host) {
			return "skip: host quarantined", nil
		}
		if h.nova.HostDowned(op.Host) {
			return "skip: host downed", nil
		}
		node, ok := h.nova.Node(op.Host)
		if !ok {
			return "", fmt.Errorf("chaos: unknown host %q", op.Host)
		}
		if hyp := node.Driver.Hypervisor(); hyp.Crashed() || hyp.Hung() {
			return "skip: already failed", nil
		}
		target := hv.KindKVM
		if node.Driver.HypervisorKind() == hv.KindKVM {
			target = hv.KindXen
		}
		// Force the fail-stop at the worst point — guests paused, state
		// not yet translated — so the upgrade must ride the driver's
		// double-fault self-heal instead of completing normally.
		rate := 0.0
		if op.Fault != 0 && h.cfg.FaultRate > 0 {
			rate = h.cfg.FaultRate
		}
		h.nova.SetFaults(fault.NewPlan(op.Fault|1, rate).ForceAt(fault.SiteHVCrashDuringTP, 1))
		up, err := h.nova.HostLiveUpgrade(op.Host, target, h.opts())
		if err != nil {
			return "", err
		}
		emergency := up.Report != nil && up.Report.Emergency
		return fmt.Sprintf("%s crash mid-transplant → %v (emergency=%v)", op.Host, target, emergency), nil
	}
	return "", fmt.Errorf("chaos: unknown op kind %q", op.Kind)
}

// sweep runs the clock-less BtrPlace-style rolling-upgrade planner on a
// self-contained cluster and self-validates the result — the cluster
// package's consistency exercised under the same fault seeds.
func (h *harness) sweep(op *Op) (string, error) {
	c, err := cluster.New(cluster.Config{Hosts: 6, VMsPerHost: 4, StreamFrac: 0.3, CPUFrac: 0.3})
	if err != nil {
		return "", err
	}
	c.SetInPlaceCompatibleFraction(0.7, op.Fault)
	var faults *fault.Plan
	if op.Fault != 0 && h.cfg.FaultRate > 0 {
		faults = fault.NewPlan(op.Fault, h.cfg.FaultRate).Restrict(fault.SiteClusterHost)
	}
	plan, err := c.PlanUpgrade(2, faults)
	if err != nil {
		return "", err
	}
	res, err := plan.Execute(cluster.DefaultExecutionModel(), nil, sched.Serial())
	if err != nil {
		return "", err
	}
	if err := c.Validate(); err != nil {
		return "", hterr.InvariantViolated(fmt.Errorf("chaos: planner sweep left the cluster invalid: %w", err))
	}
	return fmt.Sprintf("planned %d migrations (%s)", res.Migrations, res.Outcome), nil
}

// applyBreak is the deliberate invariant breaker behind Config.Break —
// the harness's own negative test, proving the auditor catches what it
// claims to.
func (h *harness) applyBreak(op *Op, opErr error) {
	if h.cfg.Break == "" || opErr != nil {
		return
	}
	switch h.cfg.Break {
	case "leak-frame":
		if op.Kind != OpUpgrade || h.dead[op.Host] {
			return
		}
		node, ok := h.nova.Node(op.Host)
		if !ok {
			return
		}
		// One VM_i State frame tagged to a VM id that never existed:
		// the residue of a forgotten teardown path.
		_, _ = node.Driver.Hypervisor().Machine().Mem.AllocRanges(1, hw.OwnerVMState, deadVMID)
	case "corrupt-memory":
		if op.Kind != OpWorkload {
			return
		}
		vm := h.lookupVM(op.VM)
		if vm == nil {
			return
		}
		exts := vm.Space.Extents().Extents()
		if len(exts) == 0 {
			return
		}
		rec, ok := h.nova.Record(op.VM)
		if !ok {
			return
		}
		node, ok := h.nova.Node(rec.Node)
		if !ok {
			return
		}
		// Flip a guest byte directly in physical memory, behind the
		// guest's write journal.
		_ = node.Driver.Hypervisor().Machine().Mem.Write(hw.MFN(exts[0].MFN), 13, []byte{0xAA})
	}
}
