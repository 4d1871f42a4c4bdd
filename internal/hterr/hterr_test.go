package hterr

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

func TestClassifyNilAndIdempotent(t *testing.T) {
	if Abort(nil) != nil {
		t.Fatal("classifying nil should stay nil")
	}
	base := errors.New("boom")
	once := Abort(base)
	twice := Abort(once)
	if twice != once {
		t.Fatal("re-classifying with the same class should be a no-op")
	}
}

func TestMultiClassUnwrap(t *testing.T) {
	base := fmt.Errorf("round 3: %w", errors.New("link severed"))
	err := Abort(Retryable(Injected(base)))
	for _, class := range []error{ErrAborted, ErrRetryable, ErrInjected} {
		if !errors.Is(err, class) {
			t.Fatalf("err does not carry %v", class)
		}
	}
	if errors.Is(err, ErrVMLost) || errors.Is(err, ErrIncompatibleTarget) {
		t.Fatal("err carries classes it was never given")
	}
}

func TestClassPriority(t *testing.T) {
	if got := Class(VMLost(Retryable(errors.New("x")))); got != ErrVMLost {
		t.Fatalf("Class = %v, want ErrVMLost", got)
	}
	if got := Class(Abort(Injected(errors.New("x")))); got != ErrAborted {
		t.Fatalf("Class = %v, want ErrAborted", got)
	}
	if got := Class(errors.New("plain")); got != nil {
		t.Fatalf("Class = %v, want nil", got)
	}
}

func TestHypervisorCrashedTaxonomy(t *testing.T) {
	err := HypervisorCrashed(Retryable(errors.New("heartbeat lost")))
	if !errors.Is(err, ErrHypervisorCrashed) || !errors.Is(err, ErrRetryable) {
		t.Fatal("crash classification dropped a class")
	}
	if got := Class(err); got != ErrHypervisorCrashed {
		t.Fatalf("Class = %v, want ErrHypervisorCrashed (crash outranks retryable)", got)
	}
	if got := Class(VMLost(HypervisorCrashed(errors.New("x")))); got != ErrVMLost {
		t.Fatalf("Class = %v, want ErrVMLost (loss outranks crash)", got)
	}
	if got := Class(InvariantViolated(HypervisorCrashed(errors.New("x")))); got != ErrInvariantViolated {
		t.Fatalf("Class = %v, want ErrInvariantViolated (invariant outranks crash)", got)
	}
	if got := Class(HypervisorCrashed(Abort(errors.New("x")))); got != ErrHypervisorCrashed {
		t.Fatalf("Class = %v, want ErrHypervisorCrashed (crash outranks abort)", got)
	}
	if Label(ErrHypervisorCrashed) != "crash" {
		t.Fatalf("Label = %q, want crash", Label(ErrHypervisorCrashed))
	}
}

func TestIsRetryable(t *testing.T) {
	if !IsRetryable(Retryable(errors.New("x"))) {
		t.Fatal("retryable error not retryable")
	}
	if IsRetryable(VMLost(Retryable(errors.New("x")))) {
		t.Fatal("lost VM must never be retryable")
	}
	if IsRetryable(errors.New("plain")) {
		t.Fatal("unclassified error treated as retryable")
	}
}

// Exit's status and report for every class, the unclassified and nil
// errors, and a multi-class error (the priority order picks its label).
func TestExit(t *testing.T) {
	base := errors.New("boom")
	for _, tc := range []struct {
		err    error
		code   int
		report string
	}{
		{nil, 0, ""},
		{base, 1, "tool: boom\n"},
		{VMLost(base), 1, "tool: vm-lost: vm lost: boom\n"},
		{InvariantViolated(base), 2, "tool: invariant-violated: invariant violated: boom\n"},
		{WatchdogExpired(base), 2, "tool: watchdog-expired: watchdog expired: boom\n"},
		{HypervisorCrashed(base), 2, "tool: crash: hypervisor crashed: boom\n"},
		{Abort(base), 1, "tool: aborted: transplant aborted: boom\n"},
		{Retryable(base), 1, "tool: retryable: retryable failure: boom\n"},
		{Incompatible(base), 1, "tool: incompatible-target: incompatible transplant target: boom\n"},
		{Injected(base), 1, "tool: injected: injected fault: boom\n"},
		{Abort(HypervisorCrashed(base)), 2, "tool: crash: transplant aborted: hypervisor crashed: boom\n"},
		{VMLost(InvariantViolated(base)), 1, "tool: vm-lost: vm lost: invariant violated: boom\n"},
	} {
		var w strings.Builder
		if code := Exit(&w, "tool", tc.err); code != tc.code || w.String() != tc.report {
			t.Errorf("Exit(%v) = %d, %q; want %d, %q", tc.err, code, w.String(), tc.code, tc.report)
		}
	}
}
