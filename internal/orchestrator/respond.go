package orchestrator

import (
	"fmt"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

// FleetResponse is the outcome of an automated vulnerability response
// across the whole fleet.
type FleetResponse struct {
	CVE    string
	Target hv.Kind
	// UpgradedNodes lists nodes transplanted, in order.
	UpgradedNodes []string
	// SkippedNodes lists nodes that already ran an unaffected
	// hypervisor.
	SkippedNodes []string
	// QuarantinedNodes lists nodes that failed their upgrade and were
	// quarantined instead of failing the whole response.
	QuarantinedNodes []string
	// ReplannedVMs lists VMs evacuated off quarantined nodes.
	ReplannedVMs []string
	// LostNodes lists nodes that died past the point of no return: their
	// VMs are gone, their rows purged, and the response aborted.
	LostNodes []string
	// StrandedVMs lists VMs that could not be evacuated off a
	// quarantined node (no capacity). They keep running on the old,
	// still-vulnerable hypervisor — degraded, never lost.
	StrandedVMs []string
	// Records are the per-node upgrade reports.
	Records []*UpgradeRecord
	// Faults counts the injected faults the response absorbed.
	Faults int
	// Outcome is completed, or degraded when any node was quarantined.
	Outcome hterr.Outcome
	// Elapsed is the virtual time from alert to fleet-secured.
	Elapsed time.Duration
}

// Summary implements hterr.Report. The cache counters aggregate over
// the per-node upgrade reports.
func (r *FleetResponse) Summary() hterr.Summary {
	s := hterr.Summary{
		Kind:           "fleet",
		Outcome:        r.Outcome,
		Attempts:       1,
		VirtualElapsed: r.Elapsed,
		Faults:         r.Faults,
	}
	for _, rec := range r.Records {
		if rec.Report == nil {
			continue
		}
		s.CacheHits += rec.Report.CacheHits
		s.CacheMisses += rec.Report.CacheMisses
		s.CacheWarmStarts += rec.Report.CacheWarmStarts
	}
	return s
}

// RespondToCVE is the paper's end-to-end scenario as a single operation:
// given a newly disclosed vulnerability, consult the database, pick a
// safe target hypervisor from the pool, and upgrade every affected node
// (evacuating InPlaceTP-incompatible VMs first). It refuses to act on
// non-critical flaws — HyperTP is reserved for critical vulnerabilities
// (§1) — and fails when no pool member is safe (the VENOM case).
//
// The response is a planner: it decides targets and placements in name
// order and emits host tasks — evacuation migrations feeding in-place
// transplants, spare reboots unlocking evacuation capacity — that one
// fleetRun executes under the fleet limits. A host that fails its upgrade
// is quarantined and drained without failing the response; a VM or host
// lost past the point of no return aborts it, and the partial response
// (LostNodes names the host) is returned alongside the error.
func (n *Nova) RespondToCVE(db *vulndb.Database, cveID string, pool []string, opts core.Options) (*FleetResponse, error) {
	vrec, ok := db.Lookup(cveID)
	if !ok {
		return nil, fmt.Errorf("nova: unknown vulnerability %q", cveID)
	}
	if vrec.Severity() != vulndb.SeverityCritical {
		return nil, fmt.Errorf("nova: %s is %s; transplant is reserved for critical flaws",
			cveID, vrec.Severity())
	}
	fr := n.newFleetRun()
	fr.stopOnLoss = true
	resp := &FleetResponse{CVE: cveID, Outcome: hterr.OutcomeCompleted}
	n.slo.SetTarget(cveID, fr.base, slo.Target{Quantile: slo.DefaultQuantile, Window: vrec.RemediationWindow()})
	upgrades, err := fr.affected(db, vrec, pool, opts, resp)
	if err != nil {
		return nil, err
	}
	fr.planUpgrades(upgrades)
	if err := fr.execute(); err != nil {
		return nil, err
	}
	fr.emit("nova.respond-cve", obs.A("cve", cveID), obs.A("target", resp.Target), obs.A("hosts", len(upgrades)))
	for _, rec := range fr.records {
		resp.UpgradedNodes = append(resp.UpgradedNodes, rec.Node)
	}
	resp.Records, resp.Faults = fr.records, fr.hostFaults
	resp.QuarantinedNodes, resp.LostNodes = fr.quarantined, fr.lost
	resp.ReplannedVMs, resp.StrandedVMs = fr.replanned, fr.stranded
	resp.Elapsed = n.clock.Now() - fr.base
	if len(resp.QuarantinedNodes) > 0 || fr.abort != nil {
		resp.Outcome = hterr.OutcomeDegraded
	}
	return resp, fr.abort
}

// affected is the response's first planning pass: the transplant task of
// every healthy host running a hypervisor vrec affects, in name order,
// with its target chosen and its exposure interval opened. Downed hosts
// are the reactive path's to recover; like quarantined ones they are not
// raced.
func (fr *fleetRun) affected(db *vulndb.Database, vrec *vulndb.Record, pool []string, opts core.Options, resp *FleetResponse) ([]*hostTask, error) {
	n := fr.n
	fr.avail = make(map[string]capacity)
	var upgrades []*hostTask
	for _, name := range n.order {
		if n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		hyp := n.nodes[name].Driver.Hypervisor()
		if !vrec.Affected(hyp.Kind().String()) {
			resp.SkippedNodes = append(resp.SkippedNodes, name)
			fr.offer(name, nil)
			continue
		}
		targetName, err := db.SelectTarget(hyp.Kind().String(), []string{resp.CVE}, pool)
		if err != nil {
			return nil, fmt.Errorf("nova: node %s: %w", name, err)
		}
		if resp.Target, err = hv.ParseKind(targetName); err != nil {
			return nil, fmt.Errorf("nova: policy choice: %w", err)
		}
		// The host has been vulnerable since disclosure, not since we
		// noticed: the exposure interval opens at the start.
		n.slo.Expose(resp.CVE, name, fr.base)
		hp := &hostPlan{name: name, since: -1}
		hyp.EachVM(func(vm *hv.VM) bool {
			if !vm.Config.InPlaceCompatible {
				hp.incompat = append(hp.incompat, vm)
			}
			return true
		})
		if len(hp.incompat) == 0 {
			fr.offer(name, hp)
		}
		upgrades = append(upgrades, &hostTask{op: &opTransplant, host: name, target: resp.Target, opts: opts, cve: resp.CVE, plan: hp})
	}
	if len(upgrades) == 0 {
		return nil, fmt.Errorf("nova: no node runs a hypervisor affected by %s", resp.CVE)
	}
	return upgrades, nil
}

// planUpgrades emits the response's tasks against the capacity overlay.
func (fr *fleetRun) planUpgrades(upgrades []*hostTask) {
	// Hosts with nothing to evacuate — empty spares and all-compatible
	// hosts — are the schedule roots that unlock evacuation capacity.
	for _, t := range upgrades {
		if len(t.plan.incompat) == 0 {
			t.plan.tp = fr.add(t)
		}
	}
	// Evacuation pipelines. A host whose incompatible VM has no placement
	// is quarantined at plan time; its planned evacuations become drains.
	for _, t := range upgrades {
		hp := t.plan
		if len(hp.incompat) == 0 {
			continue
		}
		var evacs []*sched.Node
		for _, vm := range hp.incompat {
			dest := fr.pickDest(hp.name, vm)
			if dest == "" {
				fr.quarantine(hp)
				break
			}
			evacs = append(evacs, fr.evacuate(hp, vm, dest))
		}
		if len(evacs) < len(hp.incompat) {
			continue
		}
		hp.tp = fr.add(t)
		for _, ev := range evacs {
			fr.g.Dep(hp.tp, ev)
		}
	}
}
