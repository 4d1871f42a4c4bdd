// Package hterr is the error taxonomy of the transplant stack. Every
// failure a transplant operation can surface is classified against a
// small set of sentinel errors so that callers — up to and including the
// public hypertp API — can route on errors.Is instead of string
// matching:
//
//	ErrAborted            the operation was cancelled and fully rolled
//	                      back; the VM(s) still run where they started
//	ErrRetryable          transient; the same call may succeed if retried
//	ErrVMLost             recovery failed and a VM is unreachable — the
//	                      one outcome the paper's design rules out and the
//	                      recovery matrix test forbids
//	ErrIncompatibleTarget the requested target cannot host the workload
//	                      (same-kind transplant, unknown kind, pinned
//	                      pass-through device, ...)
//	ErrInjected           the proximate cause was a deterministic fault
//	                      injection (internal/fault), composable with any
//	                      of the classes above
//	ErrInvariantViolated  a global invariant the correctness argument
//	                      rests on (frame ownership, guest integrity,
//	                      fleet bookkeeping, span structure) was broken
//	ErrWatchdogExpired    an operation failed to complete or roll back
//	                      within its virtual-time budget — a livelock
//	                      turned into a failure instead of a silent hang
//	ErrHypervisorCrashed  the hypervisor fail-stopped underneath its
//	                      guests; their state survives in place and the
//	                      reactive recovery path can salvage it
//
// Classification wraps rather than replaces: Abort(Retry(err)) satisfies
// errors.Is for ErrAborted, ErrRetryable, and everything err itself
// wraps, because the classified error unwraps to both branches
// (Go 1.20 multi-error unwrapping).
//
// Beside the classes sits the result vocabulary (outcome.go): the
// Outcome scale an operation ends on, and the Summary view every
// operation report implements.
package hterr

import (
	"errors"
	"fmt"
	"io"
)

// The sentinel classes. They carry no state; identity is the contract.
var (
	// ErrAborted marks an operation that was cancelled and rolled back
	// with all VM state intact on the source.
	ErrAborted = errors.New("transplant aborted")
	// ErrRetryable marks a transient failure; retrying the operation is
	// expected to succeed.
	ErrRetryable = errors.New("retryable failure")
	// ErrVMLost marks an unrecoverable failure that left a VM
	// unreachable.
	ErrVMLost = errors.New("vm lost")
	// ErrIncompatibleTarget marks a transplant target that cannot host
	// the workload.
	ErrIncompatibleTarget = errors.New("incompatible transplant target")
	// ErrInjected marks a deliberately injected fault.
	ErrInjected = errors.New("injected fault")
	// ErrInvariantViolated marks a broken global invariant detected by
	// an auditor (internal/chaos, hw.AuditOwners).
	ErrInvariantViolated = errors.New("invariant violated")
	// ErrWatchdogExpired marks an operation that blew its virtual-time
	// or attempt budget: a retry loop or transplant that would otherwise
	// spin forever.
	ErrWatchdogExpired = errors.New("watchdog expired")
	// ErrHypervisorCrashed marks a fail-stopped hypervisor: the VMM is
	// gone but its guests' memory and VM_i State survive in place, so the
	// reactive path can still salvage them via an emergency transplant.
	// An operation returning this class either observed the crash (and
	// the detector will trigger recovery) or exhausted recovery attempts
	// with the host still frozen — frozen, not lost: the guests are in
	// stasis, distinct from ErrVMLost.
	ErrHypervisorCrashed = errors.New("hypervisor crashed")
)

// classified attaches one sentinel class to an underlying cause. Both
// arms are visible to errors.Is/As via multi-error Unwrap.
type classified struct {
	class error
	err   error
}

func (c *classified) Error() string { return fmt.Sprintf("%v: %v", c.class, c.err) }

func (c *classified) Unwrap() []error { return []error{c.class, c.err} }

// Classify wraps err with class. A nil err returns nil; wrapping with a
// class err already carries is a no-op.
func Classify(class, err error) error {
	if err == nil {
		return nil
	}
	if errors.Is(err, class) {
		return err
	}
	return &classified{class: class, err: err}
}

// Abort marks err as a clean, fully-rolled-back cancellation.
func Abort(err error) error { return Classify(ErrAborted, err) }

// Retryable marks err as transient.
func Retryable(err error) error { return Classify(ErrRetryable, err) }

// VMLost marks err as an unrecoverable VM loss.
func VMLost(err error) error { return Classify(ErrVMLost, err) }

// Incompatible marks err as a target-compatibility failure.
func Incompatible(err error) error { return Classify(ErrIncompatibleTarget, err) }

// Injected marks err as caused by deterministic fault injection.
func Injected(err error) error { return Classify(ErrInjected, err) }

// InvariantViolated marks err as a broken global invariant.
func InvariantViolated(err error) error { return Classify(ErrInvariantViolated, err) }

// WatchdogExpired marks err as a blown virtual-time or attempt budget.
func WatchdogExpired(err error) error { return Classify(ErrWatchdogExpired, err) }

// HypervisorCrashed marks err as caused by a fail-stopped hypervisor.
func HypervisorCrashed(err error) error { return Classify(ErrHypervisorCrashed, err) }

// Class reports the highest-priority sentinel err carries, or nil. The
// priority order puts the terminal outcome first: a lost VM dominates
// everything, a broken invariant or blown watchdog dominates the
// recoverable classes, a crashed hypervisor dominates the planned-path
// outcomes (its guests are frozen, not merely inconvenienced), and a
// clean abort dominates retryability.
func Class(err error) error {
	for _, class := range []error{ErrVMLost, ErrInvariantViolated, ErrWatchdogExpired,
		ErrHypervisorCrashed, ErrAborted, ErrRetryable, ErrIncompatibleTarget, ErrInjected} {
		if errors.Is(err, class) {
			return class
		}
	}
	return nil
}

// Label renders a class sentinel (as returned by Class) as a short
// stable token for command-line exit messages; unclassified errors
// label as "unclassified".
func Label(class error) string {
	switch class {
	case ErrVMLost:
		return "vm-lost"
	case ErrInvariantViolated:
		return "invariant-violated"
	case ErrWatchdogExpired:
		return "watchdog-expired"
	case ErrHypervisorCrashed:
		return "crash"
	case ErrAborted:
		return "aborted"
	case ErrRetryable:
		return "retryable"
	case ErrIncompatibleTarget:
		return "incompatible-target"
	case ErrInjected:
		return "injected"
	default:
		return "unclassified"
	}
}

// Exit is every command's exit-status policy. A nil err exits 0.
// Otherwise err is reported on w as "tool: label: err" (the hterr label
// only when err is classified), and the status is 2 for a broken
// invariant, a blown watchdog or an unrecovered crash — the outcomes a
// CI soak must not swallow — and 1 for everything else.
func Exit(w io.Writer, tool string, err error) int {
	if err == nil {
		return 0
	}
	class := Class(err)
	if class == nil {
		fmt.Fprintf(w, "%s: %v\n", tool, err)
		return 1
	}
	fmt.Fprintf(w, "%s: %s: %v\n", tool, Label(class), err)
	switch class {
	case ErrInvariantViolated, ErrWatchdogExpired, ErrHypervisorCrashed:
		return 2
	}
	return 1
}

// IsRetryable reports whether err is safe to retry: explicitly marked
// retryable and not a terminal loss.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrRetryable) && !errors.Is(err, ErrVMLost)
}
