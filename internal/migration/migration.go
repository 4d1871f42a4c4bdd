// Package migration implements pre-copy live VM migration (§3.3, §4.3):
// the Clark-style loop of iterative memory copies while the VM runs,
// followed by a stop-and-copy phase, over a bandwidth-shared network link.
//
// The same engine serves two roles in the reproduction:
//
//   - the homogeneous Xen→Xen baseline the paper compares against
//     (Table 4, Figs. 8-9), where the destination is another Xen whose
//     heavyweight, *sequential* restore path produces both the higher
//     downtime and the multi-VM downtime variance the paper observes; and
//   - MigrationTP (heterogeneous), where the source proxy translates
//     VM_i State to UISR, the destination proxy restores it into the
//     target hypervisor's format, and kvmtool's lightweight finalize
//     yields the 27x lower downtime of Table 4.
//
// Guest page *contents* are replayed onto the destination at stop time —
// equivalent to correct retransmission of every dirtied page — while the
// traffic volume on the simulated link reflects the actual rounds, so
// migration time and downtime come from the mechanism, not a table.
package migration

import (
	"fmt"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/guest"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

// Defaults for the pre-copy loop, matching Xen's migration defaults in
// spirit: iterate until the dirty set is small or we give up.
const (
	DefaultMaxRounds          = 5
	DefaultStopThresholdPages = 64
)

// Receiver wraps the destination hypervisor with its finalize behaviour.
// Xen's restore path processes incoming VMs one at a time (§5.2.2); the
// kvmtool path is parallel and light.
type Receiver struct {
	HV    hv.Hypervisor
	clock *simtime.Clock
	// sequential serializes finalize operations (Xen restore); it also
	// selects the heavyweight branch of CostModel.MigFinalize.
	sequential bool
	cost       hw.CostModel
	busyUntil  time.Duration
	rng        *simtime.Rand
	seqVar     float64
}

// NewReceiver builds a receiver for the destination hypervisor, deriving
// finalize behaviour from the destination kind and machine profile.
func NewReceiver(clock *simtime.Clock, dest hv.Hypervisor, seed uint64) *Receiver {
	r := &Receiver{
		HV:    dest,
		clock: clock,
		cost:  dest.Machine().Profile.Cost,
		rng:   simtime.NewRand(seed),
	}
	if dest.Kind() == hv.KindXen {
		r.sequential = true
		r.seqVar = r.cost.MigXenReceiveSeqVar
	}
	return r
}

// finalizeWindow reserves the receiver for one VM's restore and returns
// (start, duration). For a sequential receiver, restores queue: a VM whose
// stop-and-copy lands while another restore runs waits its turn, which is
// what spreads the downtime of concurrently migrated VMs (Fig. 8's box
// plots).
func (r *Receiver) finalizeWindow(vcpus int) (start time.Duration, dur time.Duration) {
	dur = r.cost.MigFinalize(r.sequential, vcpus)
	now := r.clock.Now()
	if !r.sequential {
		return now, dur
	}
	// Sequential path: jitter models the variance of Xen's restore.
	dur = time.Duration(r.rng.Jitter(float64(dur), r.seqVar*0.3))
	start = now
	if r.busyUntil > start {
		start = r.busyUntil
	}
	r.busyUntil = start + dur
	return start, dur
}

// Params configures one VM migration.
type Params struct {
	Link   *simnet.Link
	Source hv.Hypervisor
	Dest   *Receiver
	VMID   hv.VMID

	// DirtyRatePagesPerSec is the guest's write rate while running —
	// the workload-dependent input to the pre-copy loop. Idle VMs use 0.
	DirtyRatePagesPerSec float64

	// MaxRounds and StopThresholdPages bound the loop; zero values take
	// the defaults.
	MaxRounds          int
	StopThresholdPages int

	// AutoConverge enables progressive guest throttling when the dirty
	// set stops shrinking (the standard live-migration countermeasure
	// for write rates near the link rate): each escalation cuts the
	// guest's effective dirty rate by 30%, guaranteeing the stop-and-
	// copy set eventually fits the threshold.
	AutoConverge bool

	// Obs, when non-nil, records a span per migration with children for
	// each pre-copy round, the stop-and-copy phase and the destination
	// finalize window, plus round/byte/downtime metrics. Migration spans
	// are detached (callback-driven work cannot use the current-span
	// stack), so concurrent migrations each get their own subtree.
	Obs *obs.Recorder

	// Retry bounds recovery from retryable stream failures (an injected
	// link sever): a failed attempt is rolled back — destination VM
	// destroyed, source resumed — and the whole pre-copy restarts after
	// an exponential virtual-time backoff. The zero value keeps the old
	// single-attempt semantics. Non-retryable failures, and exhausted
	// budgets, abort to source: the final error wraps hterr.ErrAborted
	// and the VM keeps running where it started.
	Retry fault.RetryPolicy
}

// Report describes one completed migration.
type Report struct {
	VMName string
	// TotalTime is first-byte to VM-running-on-destination.
	TotalTime time.Duration
	// Downtime is the stop-and-copy window during which the VM runs
	// nowhere.
	Downtime time.Duration
	// Rounds is the number of pre-copy iterations (≥1).
	Rounds int
	// BytesSent is the total traffic, including retransmissions.
	BytesSent int64
	// ThrottleLevel is the number of auto-converge escalations applied
	// (0 when the loop converged unaided).
	ThrottleLevel int
	// DestVM is the VM handle on the destination hypervisor.
	DestVM *hv.VM
	// Heterogeneous records whether a UISR translation was involved
	// (MigrationTP) or the stream stayed in native format (Xen→Xen).
	Heterogeneous bool
	// Attempts is how many pre-copy attempts the retry layer ran (≥ 1).
	Attempts int
	// Faults is the number of injected stream faults the migration
	// absorbed on its way to completing.
	Faults int
	// Outcome is the terminal state: OutcomeCompleted on a clean first
	// attempt, OutcomeRecovered when retries rode through faults.
	Outcome hterr.Outcome
}

// Summary implements hterr.Report.
func (r *Report) Summary() hterr.Summary {
	out := r.Outcome
	if out == "" {
		out = hterr.OutcomeCompleted
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	return hterr.Summary{
		Kind:           "migration",
		Outcome:        out,
		Attempts:       attempts,
		Downtime:       r.Downtime,
		VirtualElapsed: r.TotalTime,
		Faults:         r.Faults,
	}
}

// Run migrates one VM and calls done with the report at the virtual time
// the migration completes. It returns immediately; the work happens on
// the clock's event queue so several migrations interleave realistically.
func Run(clock *simtime.Clock, p Params, done func(*Report, error)) {
	root := p.Obs.StartDetached("migration", obs.A("vm_id", int(p.VMID)))
	root.SetTrack("migration")
	inner := done
	done = func(r *Report, err error) {
		if err != nil {
			root.SetAttr("error", err.Error())
		} else if r != nil {
			root.SetAttr("rounds", r.Rounds)
			root.SetAttr("bytes_sent", r.BytesSent)
			root.SetAttr("downtime", r.Downtime)
		}
		root.End()
		inner(r, err)
	}
	fail := func(err error) { done(nil, err) }
	if p.MaxRounds <= 0 {
		p.MaxRounds = DefaultMaxRounds
	}
	if p.StopThresholdPages <= 0 {
		p.StopThresholdPages = DefaultStopThresholdPages
	}
	vm, ok := p.Source.LookupVM(p.VMID)
	if !ok {
		fail(hterr.Incompatible(fmt.Errorf("migration: no VM %d on source", p.VMID)))
		return
	}
	if vm.Paused() {
		fail(hterr.Incompatible(fmt.Errorf("migration: VM %q is paused", vm.Config.Name)))
		return
	}
	// Pass-through devices pin the VM to its hardware: live migration is
	// impossible (§4.2.3); only InPlaceTP can transplant such VMs.
	if g := vm.Guest; g != nil {
		for _, d := range g.Drivers() {
			if d.Class == guest.DevicePassthrough {
				fail(hterr.Incompatible(fmt.Errorf("migration: VM %q has pass-through device %q and cannot be live-migrated",
					vm.Config.Name, d.Name)))
				return
			}
		}
	}
	root.SetAttr("vm", vm.Config.Name)

	// The retry layer: each attempt is a complete pre-copy; a failed
	// attempt is rolled back by the migrator (source resumed, partial
	// destination VM destroyed) before the callback fires, so between
	// attempts — and after a final abort — the VM runs on the source.
	overallStart := clock.Now()
	attempt := 1
	var cumRounds int
	var cumBytes int64
	var runAttempt func()
	runAttempt = func() {
		aspan := root.Child("attempt", obs.A("attempt", attempt))
		if err := p.Source.EnableDirtyLog(p.VMID); err != nil {
			aspan.End()
			fail(err)
			return
		}
		m := &migrator{
			clock:  clock,
			p:      p,
			vm:     vm,
			span:   aspan,
			start:  overallStart,
			report: &Report{VMName: vm.Config.Name, Heterogeneous: p.Source.Kind() != p.Dest.HV.Kind()},
		}
		m.done = func(r *Report, err error) {
			if err != nil {
				aspan.SetAttr("error", err.Error())
			}
			aspan.End()
			if err == nil {
				r.Attempts = attempt
				r.Faults = attempt - 1
				r.Rounds += cumRounds
				r.BytesSent += cumBytes
				r.Outcome = hterr.OutcomeCompleted
				if attempt > 1 {
					r.Outcome = hterr.OutcomeRecovered
				}
				done(r, nil)
				return
			}
			cumRounds += m.report.Rounds
			cumBytes += m.report.BytesSent
			if hterr.IsRetryable(err) && attempt < p.Retry.Attempts() {
				if werr := p.Retry.Exceeded(attempt, clock.Now()-overallStart); werr != nil {
					// The watchdog turns a would-be endless retry loop
					// into a failure: the attempt was already rolled
					// back, so the VM still runs on the source.
					fail(hterr.Abort(fmt.Errorf("migration: %s: %w (last error: %v)",
						vm.Config.Name, werr, err)))
					return
				}
				backoff := p.Retry.Backoff(attempt)
				attempt++
				p.Obs.Event("migration.retry",
					fmt.Sprintf("%s: attempt %d in %v after: %v", vm.Config.Name, attempt, backoff, err))
				clock.After(backoff, "mig-retry:"+vm.Config.Name, func(*simtime.Clock) { runAttempt() })
				return
			}
			if hterr.Class(err) == hterr.ErrVMLost {
				// Past migration's point of no return (source VM
				// already destroyed): calling this a clean abort
				// would be a lie.
				fail(err)
				return
			}
			fail(hterr.Abort(err))
		}
		m.round(int64(vm.Space.NumPages()))
	}
	runAttempt()
}

type migrator struct {
	clock      *simtime.Clock
	p          Params
	vm         *hv.VM
	span       *obs.Span
	roundSpan  *obs.Span
	scSpan     *obs.Span
	start      time.Duration
	roundStart time.Duration
	report     *Report
	done       func(*Report, error)
	prevDirty  int64

	// Rollback bookkeeping: what this attempt has to undo on failure.
	paused     bool   // source VM paused by stop-and-copy
	destVM     *hv.VM // partially-restored destination VM
	sourceGone bool   // source VM destroyed — the point of no return
}

// fail abandons the attempt. Before the point of no return it rolls the
// attempt back so the VM keeps running on the source — destroy any
// partially-restored destination VM, resume the source, stop dirty
// tracking — and reports the cause for the retry layer to route. Past
// it, nothing can be undone: the error is classified ErrVMLost.
func (m *migrator) fail(err error) {
	m.roundSpan.End()
	m.scSpan.End()
	if m.sourceGone {
		m.done(nil, hterr.VMLost(err))
		return
	}
	rb := m.span.Child("rollback")
	if m.destVM != nil {
		_ = m.p.Dest.HV.DestroyVM(m.destVM.ID)
		m.destVM = nil
	}
	if m.paused {
		_ = m.p.Source.Resume(m.p.VMID)
		m.paused = false
	}
	_ = m.p.Source.DisableDirtyLog(m.p.VMID)
	rb.End()
	m.done(nil, err)
}

// maxThrottleLevels caps auto-converge escalation (matching QEMU's
// default 99%-throttle ceiling in spirit).
const maxThrottleLevels = 5

// round transfers npages of guest memory, then inspects the dirty set.
func (m *migrator) round(npages int64) {
	m.report.Rounds++
	m.roundStart = m.clock.Now()
	bytes := npages * hw.PageSize4K
	m.report.BytesSent += bytes
	m.roundSpan = m.span.Child("precopy-round",
		obs.A("round", m.report.Rounds), obs.A("pages", npages))
	m.p.Link.Start(fmt.Sprintf("precopy:%s:r%d", m.vm.Config.Name, m.report.Rounds), bytes,
		func(err error) {
			if err != nil {
				m.fail(fmt.Errorf("migration: %s: %w", m.vm.Config.Name, err))
				return
			}
			m.afterRound()
		})
}

func (m *migrator) afterRound() {
	m.roundSpan.End()
	// Pages dirtied while this round ran: the modeled workload rate
	// plus anything the (simulated) guest actually wrote through the
	// dirty log.
	elapsed := (m.clock.Now() - m.roundStart).Seconds()
	logged, err := m.p.Source.FetchAndClearDirty(m.p.VMID)
	if err != nil {
		m.fail(err)
		return
	}
	// Auto-converge throttling scales the guest's effective write rate.
	rate := m.p.DirtyRatePagesPerSec
	for i := 0; i < m.report.ThrottleLevel; i++ {
		rate *= 0.7
	}
	dirty := int64(rate*elapsed) + int64(len(logged))
	if dirty > int64(m.vm.Space.NumPages()) {
		dirty = int64(m.vm.Space.NumPages())
	}
	if m.p.AutoConverge && m.prevDirty > 0 &&
		dirty >= m.prevDirty*9/10 && m.report.ThrottleLevel < maxThrottleLevels {
		// The dirty set is not shrinking: escalate the throttle. The
		// escalation buys extra rounds — a throttled guest is the
		// price of convergence, not a reason to give up.
		m.report.ThrottleLevel++
		m.p.MaxRounds++
	}
	m.prevDirty = dirty
	if dirty > int64(m.p.StopThresholdPages) && m.report.Rounds < m.p.MaxRounds {
		m.round(dirty)
		return
	}
	m.stopAndCopy(dirty)
}

// stopAndCopy pauses the VM, ships the final dirty set plus the (UISR or
// native) platform state, restores on the destination, and resumes.
func (m *migrator) stopAndCopy(dirtyPages int64) {
	pausedAt := m.clock.Now()
	sc := m.span.Child("stop-and-copy", obs.A("dirty_pages", dirtyPages))
	m.scSpan = sc
	if err := m.p.Source.Pause(m.p.VMID); err != nil {
		m.fail(err)
		return
	}
	m.paused = true
	// Final transfer: remaining dirty pages + the serialized platform
	// state (a few KB; see Fig. 14's UISR sizes).
	st, err := m.p.Source.SaveUISR(m.p.VMID)
	if err != nil {
		m.fail(err)
		return
	}
	// The control frame carries the actually-encoded platform state, so
	// its wire size tracks the real UISR blob (Fig. 14's sizes) rather
	// than an estimate; the dirty pages are the data plane behind it.
	blob, err := uisr.Encode(st)
	if err != nil {
		m.fail(err)
		return
	}
	frame, err := streamFrameSize(m.vm.Config.Name, blob)
	if err != nil {
		m.fail(err)
		return
	}
	bytes := dirtyPages*hw.PageSize4K + int64(frame)
	m.report.BytesSent += bytes
	m.p.Link.Start("stopcopy:"+m.vm.Config.Name, bytes, func(err error) {
		if err != nil {
			m.fail(err)
			return
		}
		// Destination restore, possibly queued behind other VMs.
		start, dur := m.p.Dest.finalizeWindow(len(st.VCPUs))
		fin := m.span.ChildAt("finalize", start, obs.A("queued_for", start-m.clock.Now()))
		m.clock.Schedule(start+dur, "mig-finalize:"+m.vm.Config.Name, func(*simtime.Clock) {
			fin.EndAt(start + dur)
			sc.End()
			m.finish(pausedAt, st)
		})
	})
}

func (m *migrator) finish(pausedAt time.Duration, st *uisr.VMState) {
	// MemMap is deliberately absent (§4.3): guest pages were copied by
	// the stream and the destination re-places them.
	st.MemMap = uisr.MemMap{}
	destVM, err := m.p.Dest.HV.RestoreUISR(st, hv.RestoreOptions{
		Mode:              hv.RestoreAllocate,
		InPlaceCompatible: m.vm.Config.InPlaceCompatible,
	})
	if err != nil {
		m.fail(err)
		return
	}
	m.destVM = destVM
	// Replay the final guest image (the net effect of all pre-copy
	// rounds plus the stop-and-copy).
	if err := m.vm.Space.CopyContentsTo(destVM.Space); err != nil {
		m.fail(err)
		return
	}
	// Hand the guest software stack over and resume.
	g := m.vm.Guest
	if err := m.p.Source.DisableDirtyLog(m.p.VMID); err != nil {
		m.fail(err)
		return
	}
	if err := m.p.Source.DestroyVM(m.p.VMID); err != nil {
		m.fail(err)
		return
	}
	m.sourceGone = true
	m.paused = false
	if g != nil {
		if err := m.p.Dest.HV.AttachGuest(destVM.ID, g); err != nil {
			m.fail(err)
			return
		}
	}
	if err := m.p.Dest.HV.Resume(destVM.ID); err != nil {
		m.fail(err)
		return
	}
	m.report.DestVM = destVM
	m.report.Downtime = m.clock.Now() - pausedAt
	m.report.TotalTime = m.clock.Now() - m.start
	m.done(m.report, nil)
}
