package hterr

import "time"

// Outcome is the terminal state of a transplant-class operation: the
// result-side counterpart of the error classes above. A failed operation
// reports the outcome its returned class names — Abort ↔ rolled-back,
// HypervisorCrashed ↔ crashed — and a successful one reports completed,
// recovered or degraded. The three operation reports (core.InPlaceReport,
// migration.Report, cluster.Result) and the fleet responses share this
// one scale, so callers (and the public hypertp API) can treat any
// transplant result uniformly without losing the operation-specific
// detail each concrete type still carries.
type Outcome string

const (
	// OutcomeCompleted: the operation finished on the first attempt with
	// no recovery involved.
	OutcomeCompleted Outcome = "completed"
	// OutcomeRecovered: the operation finished, but only after riding
	// through at least one fault (retry, crash-recovery restore, ...).
	OutcomeRecovered Outcome = "recovered"
	// OutcomeRolledBack: the operation was abandoned and fully undone —
	// every VM still runs on the source with its state intact.
	OutcomeRolledBack Outcome = "rolled-back"
	// OutcomeDegraded: a fleet-level operation completed partially —
	// failed hosts were quarantined and their work re-planned, and the
	// report says which.
	OutcomeDegraded Outcome = "degraded"
	// OutcomeCrashed: the source hypervisor fail-stopped mid-operation.
	// The operation was abandoned with every VM frozen in place — not
	// rolled back (there is no hypervisor left to resume them), not
	// lost (guest memory and VM_i State survive) — and the emergency
	// recovery path owns the host from here.
	OutcomeCrashed Outcome = "crashed"
)

// Summary is the operation-independent view of a report.
type Summary struct {
	// Kind names the operation: "inplace", "emergency", "migration",
	// "cluster", "fleet" or "crash-storm".
	Kind string
	// Outcome is the terminal state.
	Outcome Outcome
	// Attempts is how many times the operation (or its failing stage)
	// ran, ≥ 1.
	Attempts int
	// Downtime is the virtual time during which affected VMs ran
	// nowhere.
	Downtime time.Duration
	// VirtualElapsed is the operation's total virtual duration.
	VirtualElapsed time.Duration
	// Faults is the number of injected faults the operation absorbed.
	Faults int
	// CacheHits, CacheMisses, and CacheWarmStarts count the transplant
	// cache lookups the operation made (all zero when caching was
	// disabled). They describe the cache, not the transplant: every
	// other field is identical with caching on or off.
	CacheHits, CacheMisses, CacheWarmStarts uint64
}

// Report is implemented by every operation report in the stack.
type Report interface {
	Summary() Summary
}
