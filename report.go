package hypertp

import (
	"hypertp/internal/cluster"
	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/migration"
	"hypertp/internal/orchestrator"
)

// The unified result vocabulary: every transplant-class operation —
// InPlaceTP, MigrationTP, a cluster rolling upgrade, a fleet CVE
// response — returns a concrete report that also implements Report, so
// callers can treat any outcome uniformly via Summary().
type (
	// Report is implemented by every operation report in the stack.
	Report = hterr.Report
	// Summary is the operation-independent view of a report.
	Summary = hterr.Summary
	// Outcome is the terminal state of an operation.
	Outcome = hterr.Outcome
	// ClusterResult summarizes an executed cluster upgrade.
	ClusterResult = cluster.Result
)

// Outcome values.
const (
	// OutcomeCompleted: finished on the first attempt, no faults.
	OutcomeCompleted = hterr.OutcomeCompleted
	// OutcomeRecovered: finished, but only after absorbing at least one
	// fault (retry, crash recovery).
	OutcomeRecovered = hterr.OutcomeRecovered
	// OutcomeRolledBack: abandoned and fully undone; every VM still
	// runs on the source with its state intact.
	OutcomeRolledBack = hterr.OutcomeRolledBack
	// OutcomeDegraded: a fleet operation completed partially — failed
	// hosts were quarantined and their VMs re-planned.
	OutcomeDegraded = hterr.OutcomeDegraded
)

// Compile-time proof that every operation report satisfies Report.
var (
	_ Report = (*core.InPlaceReport)(nil)
	_ Report = (*migration.Report)(nil)
	_ Report = cluster.Result{}
	_ Report = (*orchestrator.FleetResponse)(nil)
)
