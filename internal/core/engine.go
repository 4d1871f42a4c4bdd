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
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/guest"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/nova"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/kexec"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/pram"
	rpt "hypertp/internal/report"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/trace"
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
	// engines (the fleet warm pool does).
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
	Outcome rpt.Outcome
	// Attempts counts runs of the failing stage (boot/parse/restore
	// retries included); 1 on a clean pass.
	Attempts int
	// Faults is the number of injected faults absorbed.
	Faults int
	// CacheHits, CacheMisses, and CacheWarmStarts count the transplant
	// cache lookups this operation made (all zero when caching is
	// disabled). They describe the cache, not the transplant: every
	// other field is byte-identical with caching on or off.
	CacheHits, CacheMisses, CacheWarmStarts uint64

	// Emergency marks a report produced by the reactive recovery path
	// (Engine.Emergency) rather than a planned transplant. Emergency
	// reports measure from salvage start: detection latency is the
	// detector's to account, and the pause phase does not exist — the
	// crash already stopped every vCPU.
	Emergency bool
}

// Summary implements report.Report.
func (r *InPlaceReport) Summary() rpt.Summary {
	out := r.Outcome
	if out == "" {
		out = rpt.OutcomeCompleted
	}
	attempts := r.Attempts
	if attempts < 1 {
		attempts = 1
	}
	kind := "inplace"
	if r.Emergency {
		kind = "emergency"
	}
	return rpt.Summary{
		Kind:            kind,
		Outcome:         out,
		Attempts:        attempts,
		Downtime:        r.Downtime,
		VirtualElapsed:  r.Total,
		Faults:          r.Faults,
		CacheHits:       r.CacheHits,
		CacheMisses:     r.CacheMisses,
		CacheWarmStarts: r.CacheWarmStarts,
	}
}

// Engine drives transplants on one machine.
type Engine struct {
	Clock   *simtime.Clock
	Machine *hw.Machine
	// Trace, when non-nil, receives one event per workflow step
	// (Fig. 3 audit log). A nil Trace is valid and free.
	Trace *trace.Log
	// Obs, when non-nil, records a hierarchical span per Fig. 3 phase
	// plus page/byte/latency metrics. A nil Obs is valid and free (the
	// no-op fast path), so uninstrumented runs pay nothing.
	Obs *obs.Recorder
	// Fault, when non-nil, is consulted at every registered injection
	// site of the InPlaceTP workflow (kexec.load, pram.build,
	// uisr.translate, kexec.handover, hv.boot, pram.parse,
	// uisr.restore). A nil Fault is valid and free.
	Fault *fault.Plan
	// Retry bounds the post-kexec crash-recovery loops (hypervisor
	// boot, PRAM re-parse, per-VM restore). Crash recovery is the
	// paper's semantic, so the zero value takes DefaultRetryPolicy.
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

// InPlace performs an in-place hypervisor transplant of every VM on src
// to a freshly booted hypervisor of the target kind, following the Fig. 3
// workflow. On success the returned hypervisor replaces src, which must
// not be used afterwards.
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
	cost := e.Machine.Profile.Cost
	report := &InPlaceReport{Source: src.Name(), Target: target.String()}
	start := e.Clock.Now()
	// The root span owns the whole Fig. 3 workflow; the deferred End is
	// the error-path cleanup — it closes any phase span left open.
	root := e.Obs.Start("inplace-tp",
		obs.A("source", src.Name()), obs.A("target", target.String()),
		obs.A("vms", len(vms)))
	defer root.End()
	mets := e.Obs.Metrics()
	mets.Counter("tp.vms_transplanted", "vms").Add(int64(len(vms)))
	report.Attempts = 1
	retry := e.Retry
	if retry.MaxAttempts == 0 {
		retry = fault.DefaultRetryPolicy()
	}

	// Rollback bookkeeping: everything the pre-kexec phases ❶-❸ touch is
	// recorded here so that any failure before the point of no return
	// (VM_i State release) can be fully undone — blobs freed, PRAM
	// released, the staged image unloaded, VMs resumed with the device
	// protocol completed — leaving the source exactly as it was.
	var (
		img            *kexec.Image
		ps             *pram.Structure
		guests         map[string]*guest.Guest
		blobFrames     [][]hw.FrameRange
		pausedVMs      []*hv.VM
		preparedGuests []*guest.Guest
		err            error
	)
	rollback := func(cause error) (hv.Hypervisor, *InPlaceReport, error) {
		rb := e.Obs.Start("rollback", obs.A("cause", cause.Error()))
		for _, frames := range blobFrames {
			_ = e.Machine.Mem.FreeRanges(frames)
		}
		if ps != nil {
			_ = ps.Release(e.Machine.Mem)
			ps = nil
		}
		if img != nil {
			_ = img.Unload(e.Machine)
			img = nil
		}
		for i := len(pausedVMs) - 1; i >= 0; i-- {
			_ = src.Resume(pausedVMs[i].ID)
		}
		for i := len(preparedGuests) - 1; i >= 0; i-- {
			_ = preparedGuests[i].CompleteTransplant()
		}
		rb.End()
		e.Trace.Emit(trace.StepCleanup, "transplant aborted; rolled back to %s", src.Name())
		mets.Counter("tp.rollbacks", "transplants").Add(1)
		report.Outcome = rpt.OutcomeRolledBack
		report.Total = e.Clock.Now() - start
		root.SetAttr("outcome", string(rpt.OutcomeRolledBack))
		return nil, report, hterr.Abort(cause)
	}
	// crashAbandon models a double fault: the source hypervisor itself
	// fail-stops while the transplant is in flight. Rollback is
	// impossible — resuming a VM takes a live hypervisor — and the VMs
	// are not lost either: the crash froze their vCPUs with guest memory
	// and VM_i State intact in place. Staging allocations are freed (the
	// emergency path rebuilds its own) and the host is handed back
	// crashed, for the reactive recovery path to salvage.
	crashAbandon := func(cause error) (hv.Hypervisor, *InPlaceReport, error) {
		ca := e.Obs.Start("crash-abandon", obs.A("cause", cause.Error()))
		for _, frames := range blobFrames {
			_ = e.Machine.Mem.FreeRanges(frames)
		}
		if ps != nil {
			_ = ps.Release(e.Machine.Mem)
			ps = nil
		}
		if img != nil {
			_ = img.Unload(e.Machine)
			img = nil
		}
		if c, ok := src.(hv.Crashable); ok {
			c.Crash("double fault during transplant")
		}
		ca.End()
		e.Trace.Emit(trace.StepCleanup, "source crashed mid-transplant; %d VMs frozen awaiting emergency recovery", len(vms))
		mets.Counter("tp.crash_abandons", "transplants").Add(1)
		report.Outcome = rpt.OutcomeCrashed
		report.Total = e.Clock.Now() - start
		root.SetAttr("outcome", string(rpt.OutcomeCrashed))
		return nil, report, hterr.HypervisorCrashed(cause)
	}
	// lost marks a failure past the point of no return that forward
	// recovery could not absorb. The recovery matrix forbids any
	// registered injection site from ever reaching it.
	lost := func(cause error) (hv.Hypervisor, *InPlaceReport, error) {
		mets.Counter("tp.vms_lost", "vms").Add(int64(len(vms)))
		root.SetAttr("outcome", "lost")
		return nil, nil, hterr.VMLost(cause)
	}
	// recovered charges one recovery pass: the crash is absorbed, the
	// named stage re-runs, and the report records the extra attempt.
	recovered := func(site fault.Site, extra time.Duration) {
		rec := e.Obs.Start("recovery:"+string(site), obs.A("charge", extra))
		report.Faults++
		report.Attempts++
		report.Reboot += extra
		e.Clock.Advance(extra)
		rec.End()
		mets.Counter("tp.recoveries", "recoveries").Add(1)
		e.Trace.Emit(trace.StepKexec, "crash at %s absorbed; stage re-run (+%v)", site, extra)
	}

	// ❶ Load the target hypervisor image ahead of time.
	sp := e.Obs.Start(trace.StepLoadImage)
	if ferr := e.Fault.Fire(fault.SiteKexecLoad); ferr != nil {
		report.Faults++
		sp.End()
		return rollback(ferr)
	}
	img, err = kexec.Load(e.Machine, target)
	if err != nil {
		sp.End()
		return rollback(err)
	}
	e.Trace.Emit(trace.StepLoadImage, "%s image staged (%d MiB)", target, img.Bytes>>20)
	sp.End()

	// PRAM construction (runs before the pause with the optimization,
	// inside the downtime without it). The structure itself is built
	// for real either way; only the accounting moves.
	buildPRAM := func() (*pram.Structure, map[string]*guest.Guest, error) {
		sp := e.Obs.Start(trace.StepPRAMBuild)
		defer sp.End()
		if ferr := e.Fault.Fire(fault.SitePRAMBuild); ferr != nil {
			report.Faults++
			return nil, nil, ferr
		}
		files := make([]pram.File, 0, len(vms))
		guests := make(map[string]*guest.Guest, len(vms))
		costs := make([]time.Duration, 0, len(vms))
		var pages uint64
		for _, vm := range vms {
			extents, err := src.MemExtents(vm.ID)
			if err != nil {
				return nil, nil, err
			}
			for _, ex := range extents {
				pages += ex.Pages()
			}
			files = append(files, pram.File{
				Name: vm.Config.Name, VMID: uint32(vm.ID),
				Extents: extents,
			})
			guests[vm.Config.Name] = vm.Guest
			costs = append(costs, cost.PRAMBuild(vm.Config.MemBytes, opts.HugePages))
		}
		ps, err := pram.Build(e.Machine.Mem, files, e.pramBuildOptions(opts))
		if err != nil {
			return nil, nil, err
		}
		report.PRAM = e.elapsed(costs, opts.Parallel)
		e.Clock.Advance(report.PRAM)
		e.Trace.Emit(trace.StepPRAMBuild, "%d files, %d B metadata", len(files), ps.MetadataBytes())
		mets.Counter("pram.pages_preserved", "pages").Add(int64(pages))
		sp.SetAttr("files", len(files))
		sp.SetAttr("pages", pages)
		sp.SetAttr("metadata_bytes", ps.MetadataBytes())
		return ps, guests, nil
	}

	if opts.PrepareBeforePause {
		if ps, guests, err = buildPRAM(); err != nil {
			return rollback(err)
		}
	}

	// ❷ Pause all VMs and run the guest-side device protocol (§4.2.3).
	pauseAt := e.Clock.Now()
	sp = e.Obs.Start(trace.StepPause)
	e.Trace.Emit(trace.StepPause, "%d VMs paused, device protocol run", len(vms))
	for _, vm := range vms {
		if vm.Guest != nil {
			if err := vm.Guest.PrepareTransplant(); err != nil {
				return rollback(err)
			}
			preparedGuests = append(preparedGuests, vm.Guest)
		}
		if err := src.Pause(vm.ID); err != nil {
			return rollback(err)
		}
		pausedVMs = append(pausedVMs, vm)
	}
	sp.End()
	if !opts.PrepareBeforePause {
		if ps, guests, err = buildPRAM(); err != nil {
			return rollback(err)
		}
	}

	// Double-fault window: the source hypervisor can fail-stop right
	// here, with every VM paused and the device protocol already run —
	// the worst point, because neither rollback (no hypervisor to resume
	// on) nor normal completion is reachable.
	if ferr := e.Fault.Fire(fault.SiteHVCrashDuringTP); ferr != nil {
		report.Faults++
		return crashAbandon(ferr)
	}

	// ❸ Translate VM_i State to UISR and stash the blobs in preserved
	// RAM: each blob becomes an extra PRAM file so the target kernel
	// can find it after the micro-reboot.
	//
	// The phase is staged so the wall-clock parallel part is pure compute:
	// SaveUISR runs sequentially (it walks hypervisor structures), the
	// per-VM Encode fans out on the par pool, and blob frames are
	// allocated and written sequentially so MFN assignment — and therefore
	// every preserved byte — is identical for any worker count.
	type savedVM struct {
		res    VMResult
		inPl   bool
		frames []hw.FrameRange
		bytes  int
	}
	sp = e.Obs.Start(trace.StepTranslate)
	// Wall-clock encode latency is profiling-only (Volatile); the
	// virtual per-VM translation costs below are the deterministic
	// latency record.
	encodeWall := mets.Histogram("uisr.encode_wall_ns", "ns", obs.ExpBuckets(1e3, 4, 12)).Volatile()
	translateVirtual := mets.Histogram("tp.translate_virtual_s", "s", obs.ExpBuckets(1e-3, 2, 16))
	// The cache (when configured) short-circuits SaveUISR+Encode for VMs
	// whose state fingerprint maps to a cached blob. Virtual costs are
	// charged identically either way; only the wall-clock compute is
	// skipped, so the preserved bytes match the cold path exactly.
	gen := e.Machine.Generation()
	states := make([]*uisr.VMState, 0, len(vms))
	missIdx := make([]int, 0, len(vms))
	allBlobs := make([][]byte, len(vms))
	blobHashes := make([]uint64, len(vms))
	costs := make([]time.Duration, 0, len(vms))
	for i, vm := range vms {
		if ferr := e.Fault.Fire(fault.SiteUISRTranslate); ferr != nil {
			report.Faults++
			return rollback(ferr)
		}
		c := cost.Translate(vm.Config.VCPUs, vm.Config.MemBytes)
		costs = append(costs, c)
		translateVirtual.Observe(c.Seconds())
		if opts.Cache != nil {
			if b, h, warm, ok := opts.Cache.LookupTranslation(src.Kind(), e.Machine, gen, vm.ID); ok {
				if ferr := e.Fault.Fire(fault.SiteCacheStale); ferr != nil {
					// Poisoned entry: discard it and fall back to the
					// cold translate path. The fault is absorbed — a
					// stale cache can cost time, never correctness.
					opts.Cache.Invalidate(src.Kind(), e.Machine, gen, vm.ID)
					report.Faults++
					mets.Counter("tpcache.stale", "entries").Add(1)
				} else {
					allBlobs[i] = b
					blobHashes[i] = h
					report.CacheHits++
					if warm {
						report.CacheWarmStarts++
						mets.Counter("tpcache.warm_starts", "vms").Add(1)
					}
					continue
				}
			}
		}
		st, err := src.SaveUISR(vm.ID)
		if err != nil {
			return rollback(err)
		}
		// The memory map travels via the PRAM "mem" file, not the UISR
		// blob — Fig. 14 accounts the two overheads separately.
		st.MemMap = nil
		states = append(states, st)
		missIdx = append(missIdx, i)
	}
	encoded, err := par.Map(states, func(_ int, st *uisr.VMState) ([]byte, error) {
		t0 := time.Now()
		blob, err := uisr.Encode(st)
		encodeWall.Observe(float64(time.Since(t0).Nanoseconds()))
		return blob, err
	})
	if err != nil {
		return rollback(err)
	}
	for k, i := range missIdx {
		allBlobs[i] = encoded[k]
		if opts.Cache != nil {
			blobHashes[i] = opts.Cache.StoreTranslation(src.Kind(), e.Machine, gen, vms[i].ID, encoded[k], false)
		}
	}
	if opts.Cache != nil {
		report.CacheMisses += uint64(len(missIdx))
		mets.Counter("tpcache.hits", "lookups").Add(int64(len(vms) - len(missIdx)))
		mets.Counter("tpcache.misses", "lookups").Add(int64(len(missIdx)))
	}
	saved := make([]savedVM, 0, len(vms))
	blobFiles := make([]pram.File, 0, len(vms))
	for i, vm := range vms {
		blob := allBlobs[i]
		// Re-land a cached blob at the frames it occupied last time, so
		// the PRAM fileset — which embeds the blob extents — is
		// byte-stable across repeat transplants and the snapshot replay
		// can fire. Falls back to cursor allocation when the old frames
		// are taken.
		var frames []hw.FrameRange
		if opts.Cache != nil {
			frames = writeBlobAt(e.Machine.Mem, blob, opts.Cache.BlobFrames(e.Machine, blobHashes[i]))
		}
		if frames == nil {
			var err error
			frames, err = writeBlob(e.Machine.Mem, blob)
			if err != nil {
				return rollback(err)
			}
			if opts.Cache != nil {
				opts.Cache.SetBlobFrames(e.Machine, blobHashes[i], frames)
			}
		}
		blobFrames = append(blobFrames, frames)
		saved = append(saved, savedVM{
			res: VMResult{
				Name: vm.Config.Name, OldID: vm.ID,
				VCPUs: vm.Config.VCPUs, Bytes: vm.Config.MemBytes,
				UISRBytes: uint64(len(blob)),
			},
			inPl:   vm.Config.InPlaceCompatible,
			frames: frames,
			bytes:  len(blob),
		})
		report.UISRBytes += uint64(len(blob))
		blobFiles = append(blobFiles, blobFile(vm.Config.Name, frames))
	}
	// Record the blob locations in a second PRAM structure chained to
	// nothing — we rebuild one structure holding both memory maps and
	// blobs for the handover.
	allFiles := append(append([]pram.File(nil), ps.Files...), blobFiles...)
	relErr := ps.Release(e.Machine.Mem)
	ps = nil
	if relErr != nil {
		return rollback(relErr)
	}
	ps, err = pram.Build(e.Machine.Mem, allFiles, e.pramBuildOptions(opts))
	if err != nil {
		return rollback(err)
	}
	report.Translation = e.elapsed(costs, opts.Parallel)
	e.Clock.Advance(report.Translation)
	report.PRAMMetadataBytes = ps.MetadataBytes()
	e.Trace.Emit(trace.StepTranslate, "%d VM_i states to UISR (%d B)", len(vms), report.UISRBytes)
	mets.Counter("tp.uisr_bytes", "bytes").Add(int64(report.UISRBytes))
	mets.Counter("tp.pram_metadata_bytes", "bytes").Add(int64(report.PRAMMetadataBytes))
	sp.SetAttr("uisr_bytes", report.UISRBytes)
	sp.End()

	// Source-side teardown: release VM_i State (guest memory stays).
	// This is the point of no return — past it, the UISR blobs in
	// preserved RAM are the only copy of the VMs' platform state, so
	// recovery can only go forward.
	for _, vm := range vms {
		if err := releaseVMState(src, vm.ID); err != nil {
			return lost(err)
		}
	}

	// ❹ Micro-reboot into the target hypervisor. The preserve set comes
	// entirely from PRAM: guest memory, metadata pages, and the UISR
	// blob frames (recorded as "uisr:" files above).
	sp = e.Obs.Start(trace.StepKexec)
	res, err := kexec.Exec(e.Machine, img, ps.Pointer, ps.FrameRanges())
	if err != nil {
		return lost(err)
	}
	report.WipedFrames = res.WipedFrames
	var totalMem uint64
	for _, vm := range vms {
		totalMem += vm.Config.MemBytes
	}
	bootBase := cost.BootLinuxKVM
	switch target {
	case hv.KindXen:
		bootBase = cost.BootXenDom0
	case hv.KindNOVA:
		bootBase = cost.BootNOVA
	}
	e.Trace.Emit(trace.StepKexec, "wiped %d frames, preserved %d", res.WipedFrames, res.PreservedFrames)
	mets.Counter("tp.wiped_frames", "frames").Add(int64(res.WipedFrames))
	report.Reboot = bootBase + cost.PRAMParse(totalMem, len(vms), opts.HugePages)
	e.Clock.Advance(report.Reboot)
	if ferr := e.Fault.Fire(fault.SiteKexecHandover); ferr != nil {
		// The micro-reboot crashed during the handover, after the wipe:
		// the machine comes back up with nothing but PRAM. The watchdog
		// reboot charges a second boot; preserved RAM — and with it
		// every guest page and UISR blob — is untouched, so the
		// workflow continues forward.
		recovered(fault.SiteKexecHandover, bootBase)
	}
	sp.SetAttr("wiped_frames", res.WipedFrames)
	sp.SetAttr("preserved_frames", res.PreservedFrames)
	sp.End()

	// ❺ Boot the target hypervisor and re-parse PRAM from the command
	// line pointer — the real handover.
	sp = e.Obs.Start(trace.StepBoot)
	var dst hv.Hypervisor
	bootStart := e.Clock.Now()
	for attempt := 1; ; attempt++ {
		if ferr := e.Fault.Fire(fault.SiteHVBoot); ferr != nil {
			if attempt >= retry.Attempts() {
				return lost(fmt.Errorf("core: target hypervisor failed to boot %d times: %w", attempt, ferr))
			}
			if werr := retry.Exceeded(attempt, e.Clock.Now()-bootStart); werr != nil {
				return lost(fmt.Errorf("core: target hypervisor boot: %w", werr))
			}
			// The target hypervisor crashed during boot; PRAM survives
			// and the watchdog reboot retries, charging a full boot.
			recovered(fault.SiteHVBoot, bootBase)
			continue
		}
		if dst, err = e.BootHypervisor(target); err != nil {
			return lost(err)
		}
		break
	}
	e.Trace.Emit(trace.StepBoot, "%s up (generation %d)", dst.Name(), e.Machine.Generation())
	sp.End()
	sp = e.Obs.Start(trace.StepPRAMParse)
	ptr, err := kexec.ParseCmdline(e.Machine.Cmdline)
	if err != nil {
		return lost(err)
	}
	reparseCost := cost.PRAMParse(totalMem, len(vms), opts.HugePages)
	var parsed *pram.Structure
	parseStart := e.Clock.Now()
	for attempt := 1; ; attempt++ {
		if ferr := e.Fault.Fire(fault.SitePRAMParse); ferr != nil {
			if attempt >= retry.Attempts() {
				return lost(fmt.Errorf("core: PRAM parse failed %d times: %w", attempt, ferr))
			}
			if werr := retry.Exceeded(attempt, e.Clock.Now()-parseStart); werr != nil {
				return lost(fmt.Errorf("core: PRAM parse: %w", werr))
			}
			// The boot-time parse crashed partway. The structure in
			// preserved RAM is read-only during parsing, so recovery
			// simply walks it again.
			recovered(fault.SitePRAMParse, reparseCost)
			continue
		}
		if parsed, err = pram.Parse(e.Machine.Mem, ptr); err != nil {
			return lost(fmt.Errorf("core: PRAM lost across reboot: %w", err))
		}
		break
	}
	e.Trace.Emit(trace.StepPRAMParse, "%d files recovered from cmdline pointer", len(parsed.Files))
	sp.SetAttr("files", len(parsed.Files))
	sp.End()

	// ❻ Restore each VM from its UISR blob, adopting its memory map.
	sp = e.Obs.Start(trace.StepRestore)
	if !opts.EarlyRestoration {
		report.Restoration += cost.RestoreServiceWait
		e.Clock.Advance(cost.RestoreServiceWait)
	}
	memFiles := map[string]pram.File{}
	blobFileMap := map[string]pram.File{}
	for _, f := range parsed.Files {
		if name, ok := blobFileName(f.Name); ok {
			blobFileMap[name] = f
		} else {
			memFiles[f.Name] = f
		}
	}
	// Restoration mirrors translation's staging: blob reads and UISR
	// decodes are pure compute and fan out on the par pool; RestoreUISR
	// and guest attachment mutate the target hypervisor and run
	// sequentially in VM order.
	decodeWall := mets.Histogram("uisr.decode_wall_ns", "ns", obs.ExpBuckets(1e3, 4, 12)).Volatile()
	restored, err := par.Map(saved, func(_ int, s savedVM) (*uisr.VMState, error) {
		bf, ok := blobFileMap[s.res.Name]
		if !ok {
			return nil, fmt.Errorf("core: UISR blob for %q missing after reboot", s.res.Name)
		}
		blob, err := readBlob(e.Machine.Mem, bf)
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		st, err := uisr.Decode(blob)
		decodeWall.Observe(float64(time.Since(t0).Nanoseconds()))
		if err != nil {
			return nil, fmt.Errorf("core: UISR blob for %q corrupt: %w", s.res.Name, err)
		}
		return st, nil
	})
	if err != nil {
		return lost(err)
	}
	costs = costs[:0]
	for i := range saved {
		s := &saved[i]
		mf, ok := memFiles[s.res.Name]
		if !ok {
			return lost(fmt.Errorf("core: memory map for %q missing after reboot", s.res.Name))
		}
		st := restored[i]
		st.MemMap = mf.Extents
		var newVM *hv.VM
		restoreStart := e.Clock.Now()
		for attempt := 1; ; attempt++ {
			if ferr := e.Fault.Fire(fault.SiteUISRRestore); ferr != nil {
				if attempt >= retry.Attempts() {
					return lost(fmt.Errorf("core: restore of %q failed %d times: %w", s.res.Name, attempt, ferr))
				}
				if werr := retry.Exceeded(attempt, e.Clock.Now()-restoreStart); werr != nil {
					return lost(fmt.Errorf("core: restore of %q: %w", s.res.Name, werr))
				}
				// Crash mid-restoration (§3.2: failure after the kexec
				// point): the target re-parses the intact PRAM
				// metadata and completes the restore where it stopped.
				// Already-restored VMs keep their adopted memory.
				recovered(fault.SiteUISRRestore, reparseCost)
				continue
			}
			if newVM, err = dst.RestoreUISR(st, hv.RestoreOptions{
				Mode:              hv.RestoreAdopt,
				InPlaceCompatible: s.inPl,
			}); err != nil {
				return lost(err)
			}
			break
		}
		s.res.NewID = newVM.ID
		if opts.Cache != nil {
			// Chain the fingerprint: the restored VM's platform state IS
			// this blob, so its next save is predictable from it.
			opts.Cache.RecordRestore(target, e.Machine, e.Machine.Generation(), newVM.ID, blobHashes[i])
		}
		e.Trace.Emit(trace.StepRestore, "%s restored as id %d", s.res.Name, newVM.ID)
		if g := guests[s.res.Name]; g != nil {
			if err := dst.AttachGuest(newVM.ID, g); err != nil {
				return lost(err)
			}
			e.Trace.Emit(trace.StepAttachGuest, "%s guest rebound", s.res.Name)
		}
		costs = append(costs, cost.Restore(s.res.VCPUs))
	}
	restoreVirtual := mets.Histogram("tp.restore_virtual_s", "s", obs.ExpBuckets(1e-3, 2, 16))
	for _, c := range costs {
		restoreVirtual.Observe(c.Seconds())
	}
	restore := e.elapsed(costs, opts.Parallel)
	report.Restoration += restore
	e.Clock.Advance(restore)
	sp.End()

	// ❼ Resume guests, run the device-completion protocol, free the
	// ephemeral PRAM metadata and UISR blobs.
	sp = e.Obs.Start(trace.StepResume)
	for i := range saved {
		s := &saved[i]
		if err := dst.Resume(s.res.NewID); err != nil {
			return lost(err)
		}
		if g := guests[s.res.Name]; g != nil {
			if err := g.CompleteTransplant(); err != nil {
				return lost(err)
			}
		}
		if err := e.Machine.Mem.FreeRanges(s.frames); err != nil {
			return lost(err)
		}
		report.VMs = append(report.VMs, s.res)
	}
	e.Trace.Emit(trace.StepResume, "%d VMs running on %s", len(saved), dst.Name())
	sp.End()
	sp = e.Obs.Start(trace.StepCleanup)
	if err := releaseParsedMetadata(e.Machine.Mem, parsed); err != nil {
		return lost(err)
	}
	e.Trace.Emit(trace.StepCleanup, "ephemeral PRAM metadata and UISR blobs freed")
	sp.End()

	report.Downtime = e.Clock.Now() - pauseAt
	report.Total = e.Clock.Now() - start
	report.Network = cost.NICReinit
	report.NetworkDowntime = report.Downtime + cost.NICReinit
	report.Outcome = rpt.OutcomeCompleted
	if report.Faults > 0 {
		report.Outcome = rpt.OutcomeRecovered
	}
	root.SetAttr("downtime", report.Downtime)
	root.SetAttr("total", report.Total)
	root.SetAttr("outcome", string(report.Outcome))
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

// releaseVMState invokes the hypervisor-specific VM_i State teardown.
func releaseVMState(h hv.Hypervisor, id hv.VMID) error {
	switch impl := h.(type) {
	case *xen.Xen:
		return impl.ReleaseVMState(id)
	case *kvm.KVM:
		return impl.ReleaseVMState(id)
	case *nova.NOVA:
		return impl.ReleaseVMState(id)
	default:
		return fmt.Errorf("core: hypervisor %T cannot release VM state in place", h)
	}
}

// --- UISR blob storage in preserved RAM -------------------------------------

const blobPrefix = "uisr:"

func blobFile(vmName string, frames []hw.FrameRange) pram.File {
	return pram.File{Name: blobPrefix + vmName, Extents: hv.FrameExtents(frames)}
}

func blobFileName(fileName string) (string, bool) {
	if len(fileName) > len(blobPrefix) && fileName[:len(blobPrefix)] == blobPrefix {
		return fileName[len(blobPrefix):], true
	}
	return "", false
}

// blobImage returns blob behind its 8-byte little-endian length prefix,
// the form it is stored in.
func blobImage(blob []byte) []byte {
	buf := make([]byte, 8+len(blob))
	binary.LittleEndian.PutUint64(buf, uint64(len(blob)))
	copy(buf[8:], blob)
	return buf
}

// writeBlobAt re-materializes a blob at the exact frames it occupied on
// a previous transplant, claiming them if they are all still free.
// Returns nil when the placement is unknown, the wrong size, or any
// frame is taken — the caller falls back to cursor allocation.
func writeBlobAt(mem *hw.PhysMem, blob []byte, frames []hw.FrameRange) []hw.FrameRange {
	if hw.CountFrames(frames) != uint64(8+len(blob)+hw.PageSize4K-1)/hw.PageSize4K {
		return nil
	}
	for i, r := range frames {
		if err := mem.ClaimRange(r.Start, r.Count, hw.OwnerPRAM, -1); err != nil {
			_ = mem.FreeRanges(frames[:i])
			return nil
		}
	}
	if err := mem.WriteRanges(frames, blobImage(blob)); err != nil {
		_ = mem.FreeRanges(frames)
		return nil
	}
	return frames
}

// writeBlob stores a length-prefixed blob into freshly allocated frames.
func writeBlob(mem *hw.PhysMem, blob []byte) ([]hw.FrameRange, error) {
	frames, err := mem.AllocRanges((8+len(blob)+hw.PageSize4K-1)/hw.PageSize4K, hw.OwnerPRAM, -1)
	if err != nil {
		return nil, err
	}
	if err := mem.WriteRanges(frames, blobImage(blob)); err != nil {
		return nil, err
	}
	return frames, nil
}

// readBlob loads a length-prefixed blob from the frames a PRAM file
// records.
func readBlob(mem *hw.PhysMem, f pram.File) ([]byte, error) {
	var ranges []hw.FrameRange
	for _, e := range f.Extents {
		ranges = hw.AppendRange(ranges, hw.FrameRange{Start: hw.MFN(e.MFN), Count: e.Pages()})
	}
	raw, err := mem.ReadRanges(ranges)
	if err != nil {
		return nil, err
	}
	if len(raw) < 8 {
		return nil, fmt.Errorf("core: blob file %q too short", f.Name)
	}
	n := binary.LittleEndian.Uint64(raw)
	if n > uint64(len(raw)-8) {
		return nil, fmt.Errorf("core: blob file %q claims %d bytes, have %d", f.Name, n, len(raw)-8)
	}
	return raw[8 : 8+n], nil
}

// releaseParsedMetadata frees the metadata pages of a parsed PRAM
// structure (step ❼ cleanup).
func releaseParsedMetadata(mem *hw.PhysMem, s *pram.Structure) error {
	return s.Release(mem)
}
