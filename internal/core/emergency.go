// Emergency is the reactive half of the transplant engine: where InPlace
// performs a planned transplant of a healthy hypervisor, Emergency
// salvages a crashed one. The failure model is ReHype's — the hypervisor
// fail-stops (or hangs and is fenced), every vCPU freezes, and guest
// memory plus the VM_i State structures survive intact in place. That
// survival is what makes recovery a transplant rather than a reboot: the
// frozen structures are translated to UISR exactly like a planned save,
// preserved across a micro-reboot into the *other* pool member, and the
// VMs resume where the crash stopped them.
package core

import (
	"fmt"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/guest"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/kexec"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/pram"
	rpt "hypertp/internal/report"
	"hypertp/internal/trace"
	"hypertp/internal/uisr"
)

// Emergency transplants every VM off a crashed (or hung) hypervisor onto
// a freshly booted hypervisor of the target kind. The capture side is
// pause-less: the crash already stopped every vCPU, so salvage reads the
// frozen VM_i State directly — no pause phase, no device pre-quiesce
// beyond what the guests still need.
//
// Failure semantics differ from InPlace on the two sides of the kexec:
//
//   - Before the micro-reboot, nothing has been destroyed — the frozen
//     host IS the backup. Salvage faults are retried under the engine's
//     RetryPolicy; on exhaustion the host is left frozen (VMs intact,
//     outcome "crashed", error class "crash") for a later attempt.
//   - After the micro-reboot, the wipe has reclaimed the crashed
//     hypervisor and the UISR blobs in preserved RAM are the only copy of
//     the VMs' platform state: recovery can only go forward, exactly as
//     in InPlace.
//
// Detection latency is the caller's to account (the reactive detector
// observed the crash; the engine only sees the salvage), so the report
// measures from salvage start. releaseVMState is deliberately skipped: a
// crashed hypervisor cannot run its own teardown, and the kexec wipe
// reclaims every frame it owned anyway.
func (e *Engine) Emergency(src hv.Hypervisor, target hv.Kind, opts Options) (hv.Hypervisor, *InPlaceReport, error) {
	if src.Machine() != e.Machine {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: source hypervisor is not on this machine"))
	}
	crashed, ok := src.(hv.Crashable)
	if !ok {
		return nil, nil, hterr.Incompatible(fmt.Errorf("core: hypervisor %T does not model crashes", src))
	}
	if !crashed.Crashed() && !crashed.Hung() {
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
	if crashed.Hung() {
		crashed.Fence("fenced for emergency recovery")
	}

	cost := e.Machine.Profile.Cost
	report := &InPlaceReport{Source: src.Name(), Target: target.String(), Emergency: true}
	start := e.Clock.Now()
	root := e.Obs.Start("emergency-tp",
		obs.A("source", src.Name()), obs.A("target", target.String()),
		obs.A("vms", len(vms)), obs.A("reason", crashed.CrashReason()))
	defer root.End()
	mets := e.Obs.Metrics()
	mets.Counter("tp.emergencies", "transplants").Add(1)
	mets.Counter("tp.vms_transplanted", "vms").Add(int64(len(vms)))
	report.Attempts = 1
	retry := e.Retry
	if retry.MaxAttempts == 0 {
		retry = fault.DefaultRetryPolicy()
	}

	var (
		img        *kexec.Image
		ps         *pram.Structure
		blobFrames [][]hw.FrameRange
		err        error
	)
	// frozen abandons the salvage before the point of no return. Unlike
	// InPlace's rollback there is nothing to resume — the host stays
	// exactly as the crash left it, VMs frozen with their state intact,
	// and only the salvage's own staging allocations are returned.
	frozen := func(cause error) (hv.Hypervisor, *InPlaceReport, error) {
		fz := e.Obs.Start("frozen", obs.A("cause", cause.Error()))
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
		fz.End()
		e.Trace.Emit(trace.StepCleanup, "emergency salvage abandoned; host stays frozen")
		mets.Counter("tp.emergencies_frozen", "transplants").Add(1)
		report.Outcome = rpt.OutcomeCrashed
		report.Total = e.Clock.Now() - start
		root.SetAttr("outcome", string(rpt.OutcomeCrashed))
		return nil, report, hterr.HypervisorCrashed(cause)
	}
	lost := func(cause error) (hv.Hypervisor, *InPlaceReport, error) {
		mets.Counter("tp.vms_lost", "vms").Add(int64(len(vms)))
		root.SetAttr("outcome", "lost")
		return nil, nil, hterr.VMLost(cause)
	}
	// salvageRetry charges one pre-kexec recovery pass (the salvage stage
	// re-runs against the frozen, unchanging source).
	salvageRetry := func(site fault.Site, extra time.Duration) {
		rec := e.Obs.Start("recovery:"+string(site), obs.A("charge", extra))
		report.Faults++
		report.Attempts++
		report.PRAM += extra
		e.Clock.Advance(extra)
		rec.End()
		mets.Counter("tp.recoveries", "recoveries").Add(1)
		e.Trace.Emit(trace.StepPRAMBuild, "salvage fault at %s absorbed; stage re-run (+%v)", site, extra)
	}
	// recovered charges one post-kexec recovery pass, as in InPlace.
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

	// ❶ Stage the target image. Nothing was preloaded — the crash was not
	// planned — so this runs inside the outage.
	sp := e.Obs.Start(trace.StepLoadImage)
	for attempt := 1; ; attempt++ {
		if ferr := e.Fault.Fire(fault.SiteKexecLoad); ferr != nil {
			if attempt >= retry.Attempts() {
				sp.End()
				return frozen(fmt.Errorf("core: emergency image load failed %d times: %w", attempt, ferr))
			}
			salvageRetry(fault.SiteKexecLoad, 0)
			continue
		}
		if img, err = kexec.Load(e.Machine, target); err != nil {
			sp.End()
			return frozen(err)
		}
		break
	}
	e.Trace.Emit(trace.StepLoadImage, "%s image staged (%d MiB) for emergency recovery", target, img.Bytes>>20)
	sp.End()

	// ❷' Pause-less capture: the vCPUs are already stopped, so the pause
	// phase collapses to the guest device protocol. A fresh crash arrives
	// with drivers running (quiesced post hoc from the frozen memory
	// image); a double fault mid-transplant arrives already prepared.
	sp = e.Obs.Start(trace.StepPause)
	guests := make(map[string]*guest.Guest, len(vms))
	for _, vm := range vms {
		if !vm.Paused() {
			sp.End()
			return frozen(fmt.Errorf("core: VM %q still running on crashed hypervisor", vm.Config.Name))
		}
		if vm.Guest != nil {
			if vm.Guest.AllDriversRunning() {
				if err := vm.Guest.PrepareTransplant(); err != nil {
					sp.End()
					return frozen(err)
				}
			}
			guests[vm.Config.Name] = vm.Guest
		}
	}
	e.Trace.Emit(trace.StepPause, "%d VMs already frozen by the crash; device protocol reconciled", len(vms))
	sp.End()

	// ❸' Salvage: export memory maps and build PRAM from the frozen
	// source, then translate the frozen VM_i State to UISR. MemExtents
	// and SaveUISR are deliberately not crash-barriered — reading the
	// dead hypervisor's structures is the whole point.
	sp = e.Obs.Start(trace.StepPRAMBuild)
	files := make([]pram.File, 0, len(vms))
	pramCosts := make([]time.Duration, 0, len(vms))
	var pages uint64
	for _, vm := range vms {
		extents, err := src.MemExtents(vm.ID)
		if err != nil {
			sp.End()
			return frozen(err)
		}
		for _, ex := range extents {
			pages += ex.Pages()
		}
		files = append(files, pram.File{
			Name: vm.Config.Name, VMID: uint32(vm.ID),
			Extents: extents,
		})
		pramCosts = append(pramCosts, cost.PRAMBuild(vm.Config.MemBytes, opts.HugePages))
	}
	pramCharge := e.elapsed(pramCosts, opts.Parallel)
	for attempt := 1; ; attempt++ {
		if ferr := e.Fault.Fire(fault.SitePRAMBuild); ferr != nil {
			if attempt >= retry.Attempts() {
				sp.End()
				return frozen(fmt.Errorf("core: emergency PRAM build failed %d times: %w", attempt, ferr))
			}
			salvageRetry(fault.SitePRAMBuild, pramCharge)
			continue
		}
		if ps, err = pram.Build(e.Machine.Mem, files, e.pramBuildOptions(opts)); err != nil {
			sp.End()
			return frozen(err)
		}
		break
	}
	report.PRAM += pramCharge
	e.Clock.Advance(pramCharge)
	e.Trace.Emit(trace.StepPRAMBuild, "%d files salvaged, %d B metadata", len(files), ps.MetadataBytes())
	mets.Counter("pram.pages_preserved", "pages").Add(int64(pages))
	sp.SetAttr("files", len(files))
	sp.SetAttr("pages", pages)
	sp.End()

	// The translation stage mirrors InPlace's staging (sequential
	// SaveUISR, parallel Encode, sequential blob writes) so the preserved
	// bytes are identical for any worker count. The transplant cache is
	// deliberately bypassed: a crashed hypervisor's fingerprint chain is
	// not trusted, and the salvage must read the structures that actually
	// froze, not what a cache believes they were.
	type savedVM struct {
		res    VMResult
		inPl   bool
		frames []hw.FrameRange
	}
	sp = e.Obs.Start(trace.StepTranslate)
	states := make([]*uisr.VMState, 0, len(vms))
	costs := make([]time.Duration, 0, len(vms))
	for _, vm := range vms {
		c := cost.Translate(vm.Config.VCPUs, vm.Config.MemBytes)
		costs = append(costs, c)
		for attempt := 1; ; attempt++ {
			if ferr := e.Fault.Fire(fault.SiteUISRTranslate); ferr != nil {
				if attempt >= retry.Attempts() {
					sp.End()
					return frozen(fmt.Errorf("core: salvage translation of %q failed %d times: %w", vm.Config.Name, attempt, ferr))
				}
				salvageRetry(fault.SiteUISRTranslate, c)
				continue
			}
			break
		}
		st, err := src.SaveUISR(vm.ID)
		if err != nil {
			sp.End()
			return frozen(err)
		}
		st.MemMap = nil
		states = append(states, st)
	}
	encoded, err := par.Map(states, func(_ int, st *uisr.VMState) ([]byte, error) {
		return uisr.Encode(st)
	})
	if err != nil {
		sp.End()
		return frozen(err)
	}
	saved := make([]savedVM, 0, len(vms))
	blobFiles := make([]pram.File, 0, len(vms))
	for i, vm := range vms {
		blob := encoded[i]
		frames, err := writeBlob(e.Machine.Mem, blob)
		if err != nil {
			sp.End()
			return frozen(err)
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
		})
		report.UISRBytes += uint64(len(blob))
		blobFiles = append(blobFiles, blobFile(vm.Config.Name, frames))
	}
	allFiles := append(append([]pram.File(nil), ps.Files...), blobFiles...)
	relErr := ps.Release(e.Machine.Mem)
	ps = nil
	if relErr != nil {
		return frozen(relErr)
	}
	if ps, err = pram.Build(e.Machine.Mem, allFiles, e.pramBuildOptions(opts)); err != nil {
		return frozen(err)
	}
	report.Translation = e.elapsed(costs, opts.Parallel)
	e.Clock.Advance(report.Translation)
	report.PRAMMetadataBytes = ps.MetadataBytes()
	e.Trace.Emit(trace.StepTranslate, "%d frozen VM_i states salvaged to UISR (%d B)", len(vms), report.UISRBytes)
	mets.Counter("tp.uisr_bytes", "bytes").Add(int64(report.UISRBytes))
	sp.SetAttr("uisr_bytes", report.UISRBytes)
	sp.End()

	// No releaseVMState here: a crashed hypervisor cannot run teardown,
	// and everything it owned — VM_i State, its own HV frames, its
	// toolstack — sits outside the preserve set, so the wipe below
	// reclaims it wholesale. The kexec itself is the point of no return.
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
	e.Trace.Emit(trace.StepKexec, "wiped %d frames (crashed hypervisor reclaimed), preserved %d", res.WipedFrames, res.PreservedFrames)
	mets.Counter("tp.wiped_frames", "frames").Add(int64(res.WipedFrames))
	report.Reboot = bootBase + cost.PRAMParse(totalMem, len(vms), opts.HugePages)
	e.Clock.Advance(report.Reboot)
	if ferr := e.Fault.Fire(fault.SiteKexecHandover); ferr != nil {
		recovered(fault.SiteKexecHandover, bootBase)
	}
	sp.SetAttr("wiped_frames", res.WipedFrames)
	sp.SetAttr("preserved_frames", res.PreservedFrames)
	sp.End()

	// ❺ Boot the replacement hypervisor and re-parse PRAM — identical
	// forward-recovery machinery to the planned path from here on.
	sp = e.Obs.Start(trace.StepBoot)
	var dst hv.Hypervisor
	bootStart := e.Clock.Now()
	for attempt := 1; ; attempt++ {
		if ferr := e.Fault.Fire(fault.SiteHVBoot); ferr != nil {
			if attempt >= retry.Attempts() {
				return lost(fmt.Errorf("core: replacement hypervisor failed to boot %d times: %w", attempt, ferr))
			}
			if werr := retry.Exceeded(attempt, e.Clock.Now()-bootStart); werr != nil {
				return lost(fmt.Errorf("core: replacement hypervisor boot: %w", werr))
			}
			recovered(fault.SiteHVBoot, bootBase)
			continue
		}
		if dst, err = e.BootHypervisor(target); err != nil {
			return lost(err)
		}
		break
	}
	e.Trace.Emit(trace.StepBoot, "%s up (generation %d) replacing crashed %s", dst.Name(), e.Machine.Generation(), report.Source)
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

	// ❻ Restore each VM from its salvaged UISR blob, adopting its memory
	// in place.
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
	restored, err := par.Map(saved, func(_ int, s savedVM) (*uisr.VMState, error) {
		bf, ok := blobFileMap[s.res.Name]
		if !ok {
			return nil, fmt.Errorf("core: UISR blob for %q missing after reboot", s.res.Name)
		}
		blob, err := readBlob(e.Machine.Mem, bf)
		if err != nil {
			return nil, err
		}
		st, err := uisr.Decode(blob)
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
		e.Trace.Emit(trace.StepRestore, "%s restored as id %d", s.res.Name, newVM.ID)
		if g := guests[s.res.Name]; g != nil {
			if err := dst.AttachGuest(newVM.ID, g); err != nil {
				return lost(err)
			}
			e.Trace.Emit(trace.StepAttachGuest, "%s guest rebound", s.res.Name)
		}
		costs = append(costs, cost.Restore(s.res.VCPUs))
	}
	restore := e.elapsed(costs, opts.Parallel)
	report.Restoration += restore
	e.Clock.Advance(restore)
	sp.End()

	// ❼ Resume guests, complete the device protocol, free the ephemeral
	// PRAM metadata and UISR blobs.
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
	e.Trace.Emit(trace.StepResume, "%d VMs resurrected on %s", len(saved), dst.Name())
	sp.End()
	sp = e.Obs.Start(trace.StepCleanup)
	if err := releaseParsedMetadata(e.Machine.Mem, parsed); err != nil {
		return lost(err)
	}
	sp.End()

	// The engine's downtime is the salvage-to-resume span; the detector
	// adds crash-to-detection latency on top when charging the SLO.
	report.Downtime = e.Clock.Now() - start
	report.Total = report.Downtime
	report.Network = cost.NICReinit
	report.NetworkDowntime = report.Downtime + cost.NICReinit
	// An emergency that completes IS a recovery — the crash it absorbed
	// counts even when no additional fault was injected.
	report.Outcome = rpt.OutcomeRecovered
	root.SetAttr("downtime", report.Downtime)
	root.SetAttr("total", report.Total)
	root.SetAttr("outcome", string(report.Outcome))
	mets.Histogram("tp.emergency_downtime_s", "s", obs.ExpBuckets(1e-2, 2, 16)).Observe(report.Downtime.Seconds())
	return dst, report, nil
}
