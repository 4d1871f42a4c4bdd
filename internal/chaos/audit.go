package chaos

import (
	"errors"
	"fmt"

	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/obs"
)

// audit re-checks every global invariant after op i has quiesced. It
// returns the first violation found (checks run in a fixed order, so
// the same broken state always reports the same failure), or nil.
func (h *harness) audit(i int, op Op) *Failure {
	sp := h.rec.Start("chaos.audit", obs.A("op", i))
	defer sp.End()
	mets := h.rec.Metrics()
	mets.Counter("chaos.audits", "audits").Add(1)
	fail := func(inv, detail string) *Failure {
		mets.Counter("chaos.violations", "violations").Add(1)
		return &Failure{OpIndex: i, Op: op, Invariant: inv, Detail: detail}
	}

	// Liveness: an op that charged more virtual time than the budget
	// livelocked — retry loops that never converge, transfers that
	// never complete. (An op that *failed* with a watchdog error is the
	// opposite: the stack's own watchdog working as designed.)
	if h.lastElapsed > h.cfg.OpBudget {
		return fail("watchdog", fmt.Sprintf("op charged %v of virtual time, budget %v",
			h.lastElapsed, h.cfg.OpBudget))
	}

	// Frame ownership on every live machine: no leaks, no frames owned
	// by dead VMs, no free frames with residue, no accounting drift.
	for _, name := range h.hosts {
		if h.dead[name] {
			continue
		}
		node, _ := h.nova.Node(name)
		hyp := node.Driver.Hypervisor()
		live := make(map[int]bool)
		for _, vm := range hyp.VMs() {
			live[int(vm.ID)] = true
		}
		if vs := hyp.Machine().Mem.AuditOwners(live); len(vs) > 0 {
			return fail("frame-ownership", fmt.Sprintf("%s: %v (%d violations)", name, vs[0], len(vs)))
		}
	}

	// Guest memory integrity: every tracked VM's checksum matches its
	// post-workload baseline — transplants and migrations must preserve
	// memory bit-for-bit — and every journaled guest write reads back.
	for _, name := range h.vms {
		vm := h.lookupVM(name)
		if vm == nil {
			return fail("bookkeeping", fmt.Sprintf("database row for %s points at a missing VM", name))
		}
		if vm.Guest != nil {
			if err := vm.Guest.Verify(); err != nil {
				return fail("memory-integrity", fmt.Sprintf("%s: journaled write lost: %v", name, err))
			}
		}
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			return fail("memory-integrity", fmt.Sprintf("%s: checksum failed: %v", name, err))
		}
		if base, ok := h.baseline[name]; ok && sum != base {
			return fail("memory-integrity", fmt.Sprintf("%s: checksum %#x, baseline %#x", name, sum, base))
		}
	}

	// Fleet bookkeeping: database placement, ids and kinds against
	// per-host hypervisor truth.
	for _, name := range h.hosts {
		if h.dead[name] {
			continue
		}
		if d := h.checkBookkeeping(name); d != "" {
			return fail("bookkeeping", d)
		}
	}
	// The planner sweep validates its own cluster; surfaced here so a
	// planner inconsistency is a violation, not just an op error.
	if h.lastErr != nil && errors.Is(h.lastErr, hterr.ErrInvariantViolated) {
		return fail("bookkeeping", h.lastErr.Error())
	}

	// Vulnerability state, checked exactly once after a successful
	// fleet response: no healthy host may still run an affected
	// hypervisor.
	if cve := h.lastRespond; cve != "" {
		h.lastRespond = ""
		if rec, ok := h.db.Lookup(cve); ok {
			for _, name := range h.hosts {
				// Downed hosts are frozen mid-recovery: their hypervisor
				// is fenced off the fleet, so like quarantined ones they
				// are degraded, not vulnerable exposure.
				if h.dead[name] || h.nova.Quarantined(name) || h.nova.HostDowned(name) {
					continue
				}
				node, _ := h.nova.Node(name)
				if kind := node.Driver.HypervisorKind(); rec.Affected(kind.String()) {
					return fail("vulndb", fmt.Sprintf("%s still runs %v after the response to %s", name, kind, cve))
				}
			}
		}
	}

	// Span-tree structure: every span tree must stay well-nested on the
	// monotone virtual clock. The auditor checked each one, whole, as
	// its root ended.
	if vs := h.spans.Violations(); len(vs) > 0 {
		return fail("span-structure", fmt.Sprintf("%v (%d violations)", vs[0], len(vs)))
	}
	return nil
}

// checkBookkeeping compares one host's database rows against its
// hypervisor's actual VM set. Empty string means consistent.
func (h *harness) checkBookkeeping(host string) string {
	node, ok := h.nova.Node(host)
	if !ok {
		return fmt.Sprintf("node %s vanished from the manager", host)
	}
	kind := node.Driver.HypervisorKind()
	onHost := make(map[string]hv.VMID)
	for _, vm := range node.Driver.VMs() {
		onHost[vm.Config.Name] = vm.ID
	}
	rows := 0
	for _, rec := range h.nova.Records() {
		if rec.Node != host {
			continue
		}
		rows++
		id, there := onHost[rec.Name]
		if !there {
			return fmt.Sprintf("%s: database places %s here but the hypervisor does not have it", host, rec.Name)
		}
		if id != rec.ID {
			return fmt.Sprintf("%s: %s runs as id %d, database says %d", host, rec.Name, id, rec.ID)
		}
		if rec.Kind != kind {
			return fmt.Sprintf("%s: runs %v, database says %s is on %v", host, kind, rec.Name, rec.Kind)
		}
	}
	if rows != len(onHost) {
		return fmt.Sprintf("%s: hypervisor hosts %d VMs, database places %d here", host, len(onHost), rows)
	}
	return ""
}
