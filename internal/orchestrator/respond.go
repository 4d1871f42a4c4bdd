package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/report"
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
	// StrandedVMs lists VMs that could not be evacuated off a
	// quarantined node (no capacity). They keep running on the old,
	// still-vulnerable hypervisor — degraded, never lost.
	StrandedVMs []string
	// Records are the per-node upgrade reports.
	Records []*UpgradeRecord
	// Faults counts the injected faults the response absorbed.
	Faults int
	// Outcome is completed, or degraded when any node was quarantined.
	Outcome report.Outcome
	// Elapsed is the virtual time from alert to fleet-secured.
	Elapsed time.Duration
}

// Summary implements report.Report. The cache counters aggregate over
// the per-node upgrade reports.
func (r *FleetResponse) Summary() report.Summary {
	s := report.Summary{
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
func (n *Nova) RespondToCVE(db *vulndb.Database, cveID string, pool []string, opts core.Options) (*FleetResponse, error) {
	rec, ok := db.Lookup(cveID)
	if !ok {
		return nil, fmt.Errorf("nova: unknown vulnerability %q", cveID)
	}
	if rec.Severity() != vulndb.SeverityCritical {
		return nil, fmt.Errorf("nova: %s is %s; transplant is reserved for critical flaws",
			cveID, rec.Severity())
	}
	if n.fleetLimits != nil {
		// Concurrent fleet response: plan the whole response as a DAG
		// of host-level operations and execute it under the configured
		// capacity limits (see SetFleetLimits).
		return n.respondScheduled(db, rec, cveID, pool, opts)
	}
	start := n.clock.Now()
	resp := &FleetResponse{CVE: cveID, Outcome: report.OutcomeCompleted}
	n.slo.SetTarget(cveID, start, slo.Target{Quantile: slo.DefaultQuantile, Window: rec.RemediationWindow()})

	// Determine affected nodes and a common safe target. Processing in
	// name order keeps the response deterministic.
	names := make([]string, 0, len(n.nodes))
	for name := range n.nodes {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		// Downed hosts are the reactive path's to recover (RecoverHost /
		// RecoverFleet); the CVE response treats them like quarantined
		// ones rather than racing an upgrade against a frozen hypervisor.
		if n.quarantined[name] || n.HostDowned(name) {
			continue
		}
		node := n.nodes[name]
		current := node.Driver.HypervisorKind().String()
		if !rec.Affected(current) {
			resp.SkippedNodes = append(resp.SkippedNodes, name)
			continue
		}
		// The host has been vulnerable since disclosure, not since we
		// noticed: the exposure interval opens at start.
		n.slo.Expose(cveID, name, start)
		targetName, err := db.SelectTarget(current, []string{cveID}, pool)
		if err != nil {
			return nil, fmt.Errorf("nova: node %s: %w", name, err)
		}
		target, err := hv.ParseKind(targetName)
		if err != nil {
			return nil, fmt.Errorf("nova: policy choice: %w", err)
		}
		if fired, _ := n.faults.Arm(fault.SiteClusterHost); fired {
			// Injected host failure during the upgrade window: degrade
			// instead of failing the fleet response.
			resp.Faults++
			n.quarantineNode(name, resp)
			continue
		}
		up, err := n.HostLiveUpgrade(name, target, opts)
		if err != nil {
			if hterr.Class(err) == hterr.ErrVMLost {
				// Unrecoverable: surface the partial response alongside
				// the error so the operator sees what did complete.
				resp.Elapsed = n.clock.Now() - start
				resp.Outcome = report.OutcomeDegraded
				return resp, err
			}
			n.quarantineNode(name, resp)
			continue
		}
		resp.Target = target
		resp.UpgradedNodes = append(resp.UpgradedNodes, name)
		resp.Records = append(resp.Records, up)
		n.slo.Remediate(cveID, name, n.clock.Now())
	}
	if len(resp.UpgradedNodes) == 0 && len(resp.QuarantinedNodes) == 0 {
		return nil, fmt.Errorf("nova: no node runs a hypervisor affected by %s", cveID)
	}
	if len(resp.QuarantinedNodes) > 0 {
		resp.Outcome = report.OutcomeDegraded
	}
	resp.Elapsed = n.clock.Now() - start
	return resp, nil
}

// quarantineNode marks a node failed and drains it (see Quarantine),
// folding the outcome into the fleet response.
func (n *Nova) quarantineNode(name string, resp *FleetResponse) {
	replanned, stranded, err := n.Quarantine(name)
	if err != nil {
		return // already quarantined: nothing left to drain
	}
	resp.ReplannedVMs = append(resp.ReplannedVMs, replanned...)
	resp.StrandedVMs = append(resp.StrandedVMs, stranded...)
	resp.QuarantinedNodes = append(resp.QuarantinedNodes, name)
}
