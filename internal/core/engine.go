// Package core implements HyperTP itself: the transplant engine that
// combines in-place micro-reboot-based transplant (InPlaceTP, §3.2/Fig. 3)
// and live-migration-based transplant (MigrationTP, §3.3) behind one
// interface, built on the UISR and memory-separation principles of §3.1.
//
// The engine performs the real state mechanics — UISR save, PRAM build,
// kexec, adopt-restore, guest rebinding — against the simulated machine,
// and charges calibrated virtual time for each phase so the Fig. 6-10
// breakdowns are measurable outputs.
package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/nova"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/pram"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// Options toggles the §4.2.5 optimizations. The zero value is the fully
// de-optimized configuration; use DefaultOptions for the paper's setup.
type Options struct {
	// PrepareBeforePause performs PRAM construction before pausing VMs
	// (the pre-copy-like preparation), keeping it out of the downtime.
	PrepareBeforePause bool
	// Parallel translates/restores VMs on all worker threads instead of
	// sequentially.
	Parallel bool
	// HugePages records 2 MiB PRAM entries instead of splitting into
	// 4 KiB entries (smaller metadata, faster build and boot-time
	// parse).
	HugePages bool
	// EarlyRestoration starts VM restoration as soon as KVM/Xen
	// services are up rather than after full service settle.
	EarlyRestoration bool
	// Cache, when non-nil, memoizes repeat-transplant work: encoded
	// UISR translation blobs (keyed by VM state fingerprint) and built
	// PRAM metadata images. Caching only skips wall-clock compute — the
	// virtual-time costs, reports, and every preserved byte are
	// identical with or without it. The cache may be shared across
	// engines (a fleet CVE response shares one).
	Cache *tpcache.Cache
}

// DefaultOptions is the paper's optimized configuration.
func DefaultOptions() Options {
	return Options{PrepareBeforePause: true, Parallel: true, HugePages: true, EarlyRestoration: true}
}

// VMResult records one VM's journey through a transplant.
type VMResult struct {
	Name  string
	OldID hv.VMID
	NewID hv.VMID
	VCPUs int
	Bytes uint64
	// UISRBytes is the serialized platform-state size (Fig. 14).
	UISRBytes uint64
}

// InPlaceReport is the Fig. 6 phase breakdown of one InPlaceTP operation.
type InPlaceReport struct {
	Source, Target string

	// Phase durations. PRAM runs before the pause when
	// PrepareBeforePause is set; the others are inside the downtime.
	PRAM        time.Duration
	Translation time.Duration
	Reboot      time.Duration
	Restoration time.Duration
	// Network is the NIC reinitialization time, overlapping
	// restoration; only network-dependent applications observe it.
	Network time.Duration

	// Downtime = Translation + Reboot + Restoration (+ PRAM when built
	// inside the pause window).
	Downtime time.Duration
	// NetworkDowntime is the service interruption seen by
	// network-dependent applications: Downtime + Network.
	NetworkDowntime time.Duration
	// Total is PRAM + Downtime (the full transplantation time).
	Total time.Duration

	// PRAMMetadataBytes and UISRBytes are the Fig. 14 overheads.
	PRAMMetadataBytes uint64
	UISRBytes         uint64
	WipedFrames       int

	VMs []VMResult

	// Outcome is the terminal state: completed (clean run), recovered
	// (at least one injected fault was absorbed by crash recovery), or
	// rolled-back (a pre-kexec failure undid the transplant and every
	// VM still runs on the source).
	Outcome hterr.Outcome
	// Attempts counts runs of the failing stage (boot/parse/restore
	// retries included); 1 on a clean pass.
	Attempts int
	// Faults is the number of injected faults absorbed.
	Faults int
	// CacheHits and CacheMisses count the transplant cache lookups this
	// operation made (both zero when caching is disabled). They describe
	// the cache, not the transplant: every other field is byte-identical
	// with caching on or off.
	CacheHits, CacheMisses uint64
	// CacheWarmStarts is always 0: the warm pool that pre-staged
	// translations is gone. It stays only because the benchmark module
	// (bench/inplace.go) still reports it; it goes with that caller.
	CacheWarmStarts uint64

	// Emergency marks a report produced by the reactive recovery path
	// (Engine.Emergency) rather than a planned transplant. Emergency
	// reports measure from salvage start: detection latency is the
	// detector's to account, and the pause phase does not exist — the
	// crash already stopped every vCPU.
	Emergency bool
}

// Summary implements hterr.Report.
func (r *InPlaceReport) Summary() hterr.Summary {
	out := r.Outcome
	if out == "" {
		out = hterr.OutcomeCompleted
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	kind := "inplace"
	if r.Emergency {
		kind = "emergency"
	}
	return hterr.Summary{
		Kind:           kind,
		Outcome:        out,
		Attempts:       attempts,
		Downtime:       r.Downtime,
		VirtualElapsed: r.Total,
		Faults:         r.Faults,
		CacheHits:      r.CacheHits,
		CacheMisses:    r.CacheMisses,
	}
}

// Engine drives transplants on one machine.
type Engine struct {
	Clock   *simtime.Clock
	Machine *hw.Machine
	// Obs, when non-nil, records a hierarchical span per Fig. 3 phase
	// plus page/byte/latency metrics. A nil Obs is valid and free (the
	// no-op fast path), so uninstrumented runs pay nothing.
	Obs *obs.Recorder
	// Fault, when non-nil, is consulted at the injection site of every
	// phase-table row (pipeline.go). A nil Fault is valid and free.
	Fault *fault.Plan
	// Retry bounds the recovery passes at those sites (emergency salvage
	// before the kexec; boot, PRAM re-parse, per-VM restore after it).
	// Crash recovery is the paper's semantic, so the zero value takes
	// DefaultRetryPolicy.
	Retry fault.RetryPolicy
}

// NewEngine creates an engine for the given machine.
func NewEngine(clock *simtime.Clock, m *hw.Machine) *Engine {
	return &Engine{Clock: clock, Machine: m}
}

// SwapClock points the engine and its machine at a private clock and
// returns a restore function. The fleet scheduler uses this to run one
// host's transplant on a per-task timeline (advanced to the node's
// virtual start) while other hosts execute concurrently: the engine only
// ever calls Advance/Now, so an isolated clock is a faithful stand-in
// for the shared one. Restore must be called from sequential code.
func (e *Engine) SwapClock(c *simtime.Clock) (restore func()) {
	oldE, oldM := e.Clock, e.Machine.Clock
	e.Clock = c
	e.Machine.Clock = c
	return func() {
		e.Clock = oldE
		e.Machine.Clock = oldM
	}
}

// BootHypervisor boots a hypervisor of the requested kind on the
// engine's machine.
func (e *Engine) BootHypervisor(kind hv.Kind) (hv.Hypervisor, error) {
	switch kind {
	case hv.KindXen:
		return xen.Boot(e.Machine)
	case hv.KindKVM:
		return kvm.Boot(e.Machine)
	case hv.KindNOVA:
		return nova.Boot(e.Machine)
	default:
		return nil, hterr.Incompatible(fmt.Errorf("core: unknown hypervisor kind %v", kind))
	}
}

// InPlace performs a planned in-place transplant of every VM on a healthy
// src to a freshly booted hypervisor of the target kind: one walk of the
// Fig. 3 phase table (pipeline.go), entered with the VMs running, downtime
// measured from the pause. On success the returned hypervisor replaces
// src, which must not be used afterwards.
func (e *Engine) InPlace(src hv.Hypervisor, target hv.Kind, opts Options) (hv.Hypervisor, *InPlaceReport, error) {
	if src.Machine() != e.Machine {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: source hypervisor is not on this machine"))
	}
	if src.Kind() == target {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: transplant to the same hypervisor kind %v", target))
	}
	vms := src.VMs()
	if len(vms) == 0 {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: no VMs to transplant"))
	}
	for _, vm := range vms {
		if vm.Paused() {
			return nil, nil, hterr.Incompatible(fmt.Errorf("core: VM %q already paused", vm.Config.Name))
		}
	}
	t := e.newTransplant("inplace-tp", false, src, vms, target, opts)
	defer t.root.End()
	dst, report, err := t.run()
	if err != nil {
		return nil, report, err
	}
	outcome := hterr.OutcomeCompleted
	if report.Faults > 0 {
		outcome = hterr.OutcomeRecovered
	}
	t.finish(t.pauseAt, outcome)
	return dst, report, nil
}

// Emergency is the reactive half of the engine: it salvages every VM off
// a crashed (or hung) hypervisor onto a freshly booted one of the target
// kind. The failure model is ReHype's — the hypervisor fail-stops, every
// vCPU freezes, and guest memory plus the VM_i State structures survive
// intact in place. That survival makes recovery a transplant rather than
// a reboot: the same walk of the phase table as InPlace, entered with the
// vCPUs already stopped, so its rows read the frozen structures directly
// and, before the kexec, a failure leaves the host frozen for a later
// attempt — there is nothing to resume on. Detection latency is the
// caller's to account (the reactive detector observed the crash and adds
// it when charging the SLO), so downtime runs from salvage start.
func (e *Engine) Emergency(src hv.Hypervisor, target hv.Kind, opts Options) (hv.Hypervisor, *InPlaceReport, error) {
	if src.Machine() != e.Machine {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: source hypervisor is not on this machine"))
	}
	if !src.Crashed() && !src.Hung() {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: emergency transplant of healthy hypervisor %s", src.Name()))
	}
	if src.Kind() == target {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: emergency transplant to the same hypervisor kind %v", target))
	}
	vms := src.VMs()
	if len(vms) == 0 {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: no VMs to salvage (reboot the host instead)"))
	}
	// A hung hypervisor is only suspected-dead; fence it into the
	// fail-stopped state before touching its structures, so a late
	// revival cannot race the salvage.
	if src.Hung() {
		src.Fence("fenced for emergency recovery")
	}
	t := e.newTransplant("emergency-tp", true, src, vms, target, opts)
	defer t.root.End()
	t.root.SetAttr("reason", src.CrashReason())
	t.mets.Counter("tp.emergencies", "transplants").Add(1)
	dst, report, err := t.run()
	if err != nil {
		return nil, report, err
	}
	// An emergency that completes IS a recovery — the crash it absorbed
	// counts even when no additional fault was injected.
	t.finish(t.start, hterr.OutcomeRecovered)
	t.mets.Histogram("tp.emergency_downtime_s", "s", obs.ExpBuckets(1e-2, 2, 16)).Observe(report.Downtime.Seconds())
	return dst, report, nil
}

// pramBuildOptions lowers engine options to PRAM build options, wiring
// the machine's snapshot in when a transplant cache is configured.
func (e *Engine) pramBuildOptions(opts Options) pram.BuildOptions {
	bopts := pram.BuildOptions{SplitHugePages: !opts.HugePages}
	if opts.Cache != nil {
		bopts.Snapshot = opts.Cache.PRAMSnapshot(e.Machine)
	}
	return bopts
}

// elapsed aggregates per-VM phase costs according to the parallelization
// option.
func (e *Engine) elapsed(costs []time.Duration, parallel bool) time.Duration {
	if parallel {
		return e.Machine.ParallelElapsedVaried(costs)
	}
	var sum time.Duration
	for _, c := range costs {
		sum += c
	}
	return sum
}

// --- UISR blob storage in preserved RAM -------------------------------------

// blobPrefix marks the PRAM file that holds a VM's UISR blob.
const blobPrefix = "uisr:"

// writeBlob stores a blob of n bytes behind an 8-byte little-endian
// length prefix and returns its frames: the ones it occupied on a
// previous transplant (at) when the size still fits and all are still
// free, freshly allocated ones when the placement is unknown or taken.
// fill writes the blob into the n bytes it is given, which are the
// frames' own image: nothing is staged or copied on the way.
func writeBlob(mem *hw.PhysMem, n int, fill func([]byte), at []hw.FrameRange) (frames []hw.FrameRange, err error) {
	image := func(img []byte) {
		binary.LittleEndian.PutUint64(img, uint64(n))
		fill(img[8:])
	}
	pages := (8 + n + hw.PageSize4K - 1) / hw.PageSize4K
	if hw.CountFrames(at) == uint64(pages) && mem.ClaimRanges(at, hw.OwnerPRAM, -1) == nil {
		if mem.FillRanges(at, 8+n, image) == nil {
			return at, nil
		}
		_ = mem.FreeRanges(at)
	}
	if frames, err = mem.AllocRanges(pages, hw.OwnerPRAM, -1); err == nil {
		err = mem.FillRanges(frames, 8+n, image)
	}
	return frames, err
}

// blobFrames returns the frames a PRAM blob file records, in order.
func blobFrames(f pram.File) []hw.FrameRange {
	var ranges []hw.FrameRange
	for _, e := range f.Extents.Extents() {
		ranges = hw.AppendRange(ranges, hw.FrameRange{Start: hw.MFN(e.MFN), Count: e.Pages()})
	}
	return ranges
}

// readBlob loads the length-prefixed blob of the PRAM file name from its
// frames, read into buf — or into a fresh buffer when buf is short — and
// returns the blob and the buffer for the next read to reuse. The blob
// is only good until that read: a caller keeps nothing that aliases it,
// as uisr.Decode keeps nothing of its input. It is the one reader of a
// preserved blob on the cold path.
func readBlob(mem *hw.PhysMem, name string, frames []hw.FrameRange, buf []byte) (blob, next []byte, err error) {
	raw, err := mem.ReadRanges(frames, buf)
	if err != nil {
		return nil, buf, err
	}
	r := uisr.NewReader(raw)
	blob = r.Bytes(r.Count(r.U64(), math.MaxInt, 1))
	if err := r.Err(); err != nil {
		return nil, raw, fmt.Errorf("core: blob file %q: %w", name, err)
	}
	return blob, raw, nil
}
