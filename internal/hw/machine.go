package hw

import (
	"fmt"
	"slices"
	"time"

	"hypertp/internal/simtime"
)

// Machine is one simulated physical server: a profile, its physical
// memory, and a boot generation counter. The hypervisor running on the
// machine lives one layer up (internal/hv); the machine only knows about
// frames and reboots.
type Machine struct {
	Profile *Profile
	Mem     *PhysMem
	Clock   *simtime.Clock

	// Cmdline is the kernel command line of the most recent boot; the
	// kexec path uses it to hand the PRAM pointer to the target
	// hypervisor (§4.2.4).
	Cmdline string

	generation int
	bootedAt   time.Duration
}

// NewMachine creates a machine of the given profile attached to the clock.
func NewMachine(clock *simtime.Clock, p *Profile) *Machine {
	return &Machine{
		Profile: p,
		Mem:     NewPhysMem(p.RAMBytes),
		Clock:   clock,
	}
}

// Generation returns the machine's boot generation, incremented by every
// micro-reboot. Hypervisor models use it to detect that structures they
// hold were created before the last reboot.
func (m *Machine) Generation() int { return m.generation }

// BootedAt returns the virtual time of the last (re)boot.
func (m *Machine) BootedAt() time.Duration { return m.bootedAt }

// MicroReboot wipes all memory except the frames in the keep ranges
// (which must be sorted and disjoint), installs the new kernel command
// line, and bumps the boot generation. The caller (internal/kexec) is
// responsible for charging boot time to the clock and for having
// preloaded the target image into preserved frames.
func (m *Machine) MicroReboot(cmdline string, keep []FrameRange) (wiped int) {
	wiped = m.Mem.WipeRanges(keep)
	m.Cmdline = cmdline
	m.generation++
	m.bootedAt = m.Clock.Now()
	return wiped
}

// ParallelElapsed models running nitems independent work items of the
// given per-item cost on the machine's worker pool: items are assigned to
// workers round-robin, so elapsed time is ceil(nitems/workers) * cost.
// This is the model behind the paper's observation that PRAM construction
// scales much better on many-core M2 than on 4-core M1 (Fig. 7c vs 7f).
func (m *Machine) ParallelElapsed(nitems int, perItem time.Duration) time.Duration {
	if nitems <= 0 {
		return 0
	}
	workers := m.Profile.Workers()
	rounds := (nitems + workers - 1) / workers
	return time.Duration(rounds) * perItem
}

// ParallelElapsedVaried is ParallelElapsed for heterogeneous item costs:
// items are assigned to the least-loaded worker (LPT-style), and the
// elapsed time is the maximum worker load.
//
// The least-loaded worker is tracked in a binary min-heap, so one call is
// O(n log w) instead of the former O(n·w) linear scan — it runs per
// transplant with up to 54 workers (M2) and per-VM cost lists. Which of
// several equally-loaded workers receives an item cannot change the
// resulting load multiset, so the returned duration is identical to the
// linear scan's.
func (m *Machine) ParallelElapsedVaried(costs []time.Duration) time.Duration {
	if len(costs) == 0 {
		return 0
	}
	workers := m.Profile.Workers()
	if workers == 1 {
		var sum time.Duration
		for _, c := range costs {
			sum += c
		}
		return sum
	}
	if len(costs) <= workers {
		// One item per worker: elapsed is simply the largest item.
		return max(0, slices.Max(costs))
	}
	// loads is a min-heap: loads[0] is always the least-loaded worker.
	// All-zero initial loads are trivially heap-ordered.
	loads := make([]time.Duration, workers)
	for _, c := range costs {
		loads[0] += c
		// Sift the updated root down to restore the heap property.
		i := 0
		for {
			l, r := 2*i+1, 2*i+2
			min := i
			if l < workers && loads[l] < loads[min] {
				min = l
			}
			if r < workers && loads[r] < loads[min] {
				min = r
			}
			if min == i {
				break
			}
			loads[i], loads[min] = loads[min], loads[i]
			i = min
		}
	}
	return max(0, slices.Max(loads))
}

// String implements fmt.Stringer.
func (m *Machine) String() string {
	return fmt.Sprintf("%s(gen %d, %d/%d frames)", m.Profile.Name, m.generation,
		m.Mem.AllocatedFrames(), m.Mem.TotalFrames())
}
