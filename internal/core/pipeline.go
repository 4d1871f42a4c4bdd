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
	"hypertp/internal/pram"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// rule is what a failure at a row means for one entry point — planned,
// off a healthy hypervisor (InPlace), or emergency, off a crashed one
// whose vCPUs are already stopped (Emergency). §3.2: before the point of
// no return roll back, after it go forward. An injected shot fails the
// row at once under rollback and crashAbandon, and is first retried under
// frozen and forward (see arm).
type rule uint8

const (
	skip rule = iota // the entry point does not run the row
	// rollback: the source is alive and nothing is destroyed. Unwind the
	// staging and resume every VM on the source.
	rollback
	// crashAbandon: the source itself fail-stopped (a double fault).
	// Resuming a VM takes a live hypervisor, yet nothing is lost: the
	// crash froze the VMs with memory and VM_i State intact. Unwind the
	// staging (salvage rebuilds its own) and hand the host back crashed.
	crashAbandon
	// frozen: the source is dead and nothing is destroyed — the frozen
	// host IS the backup. Unwind the staging and leave the host exactly
	// as the crash left it, for a later attempt.
	frozen
	// forward: the UISR blobs in preserved RAM are the only copy of the
	// VMs' platform state, so a failure loses the VMs — the outcome the
	// recovery matrix forbids any registered site to reach.
	forward
)

// phase is one row of the Fig. 3 workflow table.
type phase struct {
	step string // the row's span name (a step* constant); "" runs span-less
	// site is the injection site the row arms: the walker does, before
	// run, unless inBody says run does (per VM, or after its own work).
	// degrade is a second site, whose shot run absorbs in place by taking
	// its slow path — no retry, no charge.
	site, degrade fault.Site
	inBody        bool
	// charge prices one absorbed shot at site: the virtual time re-running
	// the stage costs (vm indexes the VM at work, -1 for the host).
	charge             func(t *transplant, vm int) time.Duration
	planned, emergency rule // the failure rule per entry point
	run                func(*transplant) error
}

func (p *phase) rule(emergency bool) rule {
	if emergency {
		return p.emergency
	}
	return p.planned
}

// phases is the Fig. 3 workflow in order. Engine.InPlace and
// Engine.Emergency both walk it; the first forward row an entry point
// runs is its point of no return.
var phases = []phase{
	// ❶ Stage the target image: ahead of time when planned, inside the
	// outage after a crash. Re-staging costs no modelled time.
	{step: stepLoadImage, site: fault.SiteKexecLoad,
		planned: rollback, emergency: frozen, run: (*transplant).loadImage},
	// PRAM construction, before or after the pause (see walkOrder). The
	// structure is built for real either way; only the accounting moves.
	{step: stepPRAMBuild, site: fault.SitePRAMBuild, charge: pramBuildCharge,
		planned: rollback, emergency: frozen, run: (*transplant).buildPRAM},
	// ❷ Pause all VMs and run the guest-side device protocol (§4.2.3).
	{step: stepPause, planned: rollback, run: (*transplant).pause},
	// ❷' Pause-less capture: the crash already stopped every vCPU, so
	// the pause collapses to reconciling the device protocol.
	{step: stepPause, emergency: frozen, run: (*transplant).reconcile},
	// Double-fault window: the source can fail-stop right here, every VM
	// paused and the device protocol already run — the worst point, with
	// neither rollback (no hypervisor to resume on) nor completion
	// reachable. A dead source cannot die again.
	{site: fault.SiteHVCrashDuringTP, planned: crashAbandon},
	// ❸ Translate VM_i State to UISR, stashed in preserved RAM. Only a
	// planned run consults the translation memo (see memo), so only it
	// can meet a stale entry.
	{step: stepTranslate, site: fault.SiteUISRTranslate, degrade: fault.SiteCacheStale,
		inBody: true, charge: translateCharge,
		planned: rollback, emergency: frozen, run: (*transplant).translate},
	// Source-side teardown releases VM_i State (guest memory stays): the
	// planned point of no return. A crashed hypervisor cannot run its own
	// teardown, and all it owned — VM_i State, HV frames, toolstack — sits
	// outside the preserve set for the wipe below to reclaim wholesale:
	// Emergency's point of no return is the kexec.
	{planned: forward, run: (*transplant).releaseSource},
	// ❹ Micro-reboot into the target. A crash during the handover, after
	// the wipe, brings the machine up with nothing but PRAM: the watchdog
	// reboot charges a second boot, once, and preserved RAM — every guest
	// page and UISR blob — is untouched, so the workflow goes on.
	{step: stepKexec, site: fault.SiteKexecHandover, inBody: true, charge: bootCharge,
		planned: forward, emergency: forward, run: (*transplant).microReboot},
	// ❺ Boot the target hypervisor. If it crashes booting, PRAM survives
	// and the watchdog reboot retries, charging a full boot.
	{step: stepBoot, site: fault.SiteHVBoot, charge: bootCharge,
		planned: forward, emergency: forward, run: (*transplant).boot},
	// Re-parse PRAM from the command-line pointer — the real handover.
	// The structure is read-only during parsing, so recovering from a
	// parse that crashed partway simply walks it again.
	{step: stepPRAMParse, site: fault.SitePRAMParse, charge: reparseCharge,
		planned: forward, emergency: forward, run: (*transplant).parsePRAM},
	// ❻ Restore each VM from its UISR blob, adopting its memory map. On
	// a crash mid-restoration (§3.2) the target re-parses the intact PRAM
	// metadata and completes the restore where it stopped; VMs already
	// restored keep their adopted memory.
	{step: stepRestore, site: fault.SiteUISRRestore, inBody: true, charge: reparseCharge,
		planned: forward, emergency: forward, run: (*transplant).restore},
	// ❼ Resume guests and complete the device protocol, then free the
	// ephemeral PRAM metadata and UISR blobs.
	{step: stepResume, planned: forward, emergency: forward, run: (*transplant).resume},
	{step: stepCleanup, planned: forward, emergency: forward, run: (*transplant).cleanup},
}

// The Fig. 3 step names: the phase span names the rows above open. The
// span is the step record — its virtual start and end, and its
// attributes, are what the workflow did.
const (
	stepLoadImage = "load-image" // ❶
	stepPRAMBuild = "pram-build" //    preparation (pre- or post-pause)
	stepPause     = "pause"      // ❷
	stepTranslate = "translate"  // ❸
	stepKexec     = "kexec"      // ❹
	stepBoot      = "boot"       //    target hypervisor up
	stepPRAMParse = "pram-parse" // ❺
	stepRestore   = "restore"    // ❺/❻
	stepResume    = "resume"     // ❼
	stepCleanup   = "cleanup"    // ❼
)

// Steps returns the Fig. 3 step names — the phase span names of a
// planned transplant under DefaultOptions — in workflow order.
func Steps() []string {
	var steps []string
	for _, p := range walkOrder(false, DefaultOptions()) {
		if p.step != "" {
			steps = append(steps, p.step)
		}
	}
	return steps
}

// walkOrder returns the rows an entry point runs, in run order. The
// workflow's single legal reordering lives here: PRAM construction stays
// ahead of the pause only for a planned run with PrepareBeforePause
// (§4.2.5); otherwise it moves behind the pause, into the downtime —
// always for Emergency, which must see every VM frozen before reading it.
func walkOrder(emergency bool, opts Options) []*phase {
	order := make([]*phase, 0, len(phases))
	var build *phase
	for i := range phases {
		p := &phases[i]
		switch {
		case p.rule(emergency) == skip:
		case p.step == stepPRAMBuild && (emergency || !opts.PrepareBeforePause):
			build = p
		case p.step == stepPause && build != nil:
			order = append(order, p, build)
		default:
			order = append(order, p)
		}
	}
	return order
}

// transplant is the state of one walk of the phase table.
type transplant struct {
	e      *Engine
	src    hv.Hypervisor
	target hv.Kind
	opts   Options
	vms    []*hv.VM
	cost   *hw.CostModel
	retry  fault.RetryPolicy
	report *InPlaceReport
	root   *obs.Span
	mets   *obs.Registry
	start  time.Duration

	phase *phase    // the row being walked
	span  *obs.Span // its open span

	// img, ps and saved[i].frames are the undo stack: what phases ❶-❸
	// staged in machine memory, in that order, for unwind to release.
	// paused and prepared count the VMs the planned pause got through,
	// for rollback to reverse.
	img              *kexec.Image
	ps               *pram.Structure
	saved            []savedVM
	paused, prepared int
	pauseAt          time.Duration

	costs  []time.Duration // per-VM charge scratch, reused across phases
	dst    hv.Hypervisor
	parsed *pram.Structure
}

// newTransplant sets up a walk and opens its root span; the entry
// point's deferred End closes it on every path.
func (e *Engine) newTransplant(name string, emergency bool, src hv.Hypervisor, vms []*hv.VM, target hv.Kind, opts Options) *transplant {
	t := &transplant{
		e: e, src: src, target: target, opts: opts, vms: vms,
		cost: &e.Machine.Profile.Cost, retry: e.Retry,
		report: &InPlaceReport{Source: src.Name(), Target: target.String(), Emergency: emergency, Attempts: 1},
		mets:   e.Obs.Metrics(), start: e.Clock.Now(),
		costs: make([]time.Duration, 0, len(vms)),
	}
	t.root = e.Obs.Start(name,
		obs.A("source", src.Name()), obs.A("target", target.String()), obs.A("vms", len(vms)))
	if t.retry.MaxAttempts == 0 {
		t.retry = fault.DefaultRetryPolicy()
	}
	return t
}

// run walks the table: per row it opens the span, arms the site and runs
// the body; on failure it ends the span first — so every abort span hangs
// off the root, never off the failed phase — then applies the row's rule.
func (t *transplant) run() (hv.Hypervisor, *InPlaceReport, error) {
	for _, p := range walkOrder(t.report.Emergency, t.opts) {
		t.phase, t.span = p, nil
		if p.step != "" {
			t.span = t.e.Obs.Start(p.step)
		}
		var err error
		if p.site != "" && !p.inBody {
			err = t.arm(-1)
		}
		if err == nil && p.run != nil {
			err = p.run(t)
		}
		if err != nil {
			t.span.SetAttr("error", err.Error())
		}
		t.span.End()
		if err == nil {
			continue
		}
		if r := p.rule(t.report.Emergency); r != forward {
			return nil, t.report, t.abort(r, err)
		}
		t.root.SetAttr("outcome", "lost")
		return nil, nil, hterr.VMLost(err)
	}
	return t.dst, t.report, nil
}

// arm fires the current row's site until it stays quiet. Under frozen
// and forward each shot is absorbed as one charged recovery pass, until
// the retry budget or (past the point of no return) the watchdog runs out.
func (t *transplant) arm(vm int) error {
	p, r := t.phase, t.phase.rule(t.report.Emergency)
	began := t.e.Clock.Now()
	for attempt := 1; ; attempt++ {
		ferr := t.e.Fault.Fire(p.site)
		if ferr == nil {
			return nil
		}
		if r == rollback || r == crashAbandon {
			t.report.Faults++
			return ferr
		}
		what := p.step
		if vm >= 0 {
			what = fmt.Sprintf("%s of %q", p.step, t.vms[vm].Config.Name)
		}
		if attempt >= t.retry.Attempts() {
			return fmt.Errorf("core: %s failed %d times: %w", what, attempt, ferr)
		}
		if r == forward {
			if werr := t.retry.Exceeded(attempt, t.e.Clock.Now()-began); werr != nil {
				return fmt.Errorf("core: %s: %w", what, werr)
			}
		}
		t.recovered(vm)
	}
}

// recovered absorbs one shot at the current row's site: the stage
// re-runs, and the row's charge lands on salvage (report.PRAM) before
// the point of no return, on the reboot (report.Reboot) after it.
func (t *transplant) recovered(vm int) {
	p := t.phase
	var extra time.Duration
	if p.charge != nil {
		extra = p.charge(t, vm)
	}
	bucket := &t.report.PRAM
	if p.rule(t.report.Emergency) == forward {
		bucket = &t.report.Reboot
	}
	rec := t.e.Obs.Start("recovery:"+string(p.site), obs.A("charge", extra))
	t.report.Faults++
	t.report.Attempts++
	*bucket += extra
	t.e.Clock.Advance(extra)
	rec.End()
}

var abortSpans = [...]string{rollback: "rollback", crashAbandon: "crash-abandon", frozen: "frozen"}

// abort ends a run before the point of no return: one unwind of the
// undo stack, then what the rule says about the VMs.
func (t *transplant) abort(r rule, cause error) error {
	sp := t.e.Obs.Start(abortSpans[r], obs.A("cause", cause.Error()))
	t.unwind()
	outcome, class := hterr.OutcomeRolledBack, hterr.Abort
	switch r {
	case rollback:
		for i := t.paused - 1; i >= 0; i-- {
			_ = t.src.Resume(t.vms[i].ID)
		}
		for i := t.prepared - 1; i >= 0; i-- {
			if g := t.vms[i].Guest; g != nil {
				_ = g.CompleteTransplant()
			}
		}
	case crashAbandon:
		t.src.Crash("double fault during transplant")
		outcome, class = hterr.OutcomeCrashed, hterr.HypervisorCrashed
	case frozen:
		outcome, class = hterr.OutcomeCrashed, hterr.HypervisorCrashed
	}
	sp.End()
	t.report.Outcome = outcome
	t.report.Total = t.e.Clock.Now() - t.start
	t.root.SetAttr("outcome", string(outcome))
	return class(cause)
}

// unwind releases the staging, newest first. ps is whichever structure
// is current — translate swaps it — or nil if the swap left none.
func (t *transplant) unwind() {
	for i := range t.saved {
		_ = t.e.Machine.Mem.FreeRanges(t.saved[i].frames)
	}
	if t.ps != nil {
		_ = t.ps.Release(t.e.Machine.Mem)
	}
	if t.img != nil {
		_ = t.img.Unload(t.e.Machine)
	}
}

// finish writes the shared success epilogue; downtime began at since.
func (t *transplant) finish(since time.Duration, outcome hterr.Outcome) {
	r, now := t.report, t.e.Clock.Now()
	r.Downtime = now - since
	r.Total = now - t.start
	r.Network = t.cost.NICReinit
	r.NetworkDowntime = r.Downtime + t.cost.NICReinit
	r.Outcome = outcome
	t.root.SetAttr("downtime", r.Downtime)
	t.root.SetAttr("total", r.Total)
	t.root.SetAttr("outcome", string(outcome))
}

// --- phase bodies, in table order; what each is for is said on its row ---------

// savedVM is one VM in flight between translate and resume.
type savedVM struct {
	res    VMResult
	guest  *guest.Guest
	frames []hw.FrameRange // the UISR blob in preserved RAM
	hash   uint64          // the blob's memo hash (planned, cached runs)
}

func pramBuildCharge(t *transplant, _ int) time.Duration {
	t.costs = t.costs[:0]
	for _, vm := range t.vms {
		t.costs = append(t.costs, t.cost.PRAMBuild(vm.Config.MemBytes, t.opts.HugePages))
	}
	return t.e.elapsed(t.costs, t.opts.Parallel)
}

func translateCharge(t *transplant, vm int) time.Duration {
	cfg := &t.vms[vm].Config
	return t.cost.Translate(cfg.VCPUs, cfg.MemBytes)
}

func bootCharge(t *transplant, _ int) time.Duration {
	switch t.target {
	case hv.KindXen:
		return t.cost.BootXenDom0
	case hv.KindNOVA:
		return t.cost.BootNOVA
	}
	return t.cost.BootLinuxKVM
}

func reparseCharge(t *transplant, _ int) time.Duration {
	var totalMem uint64
	for _, vm := range t.vms {
		totalMem += vm.Config.MemBytes
	}
	return t.cost.PRAMParse(totalMem, len(t.vms), t.opts.HugePages)
}

func (t *transplant) loadImage() (err error) {
	t.img, err = kexec.Load(t.e.Machine, t.target)
	return err
}

// buildPRAM: MemExtents is deliberately not crash-barriered — reading a
// dead hypervisor's structures is the whole point of salvage.
func (t *transplant) buildPRAM() (err error) {
	files := make([]pram.File, 0, len(t.vms))
	var pages uint64
	for _, vm := range t.vms {
		extents, err := t.src.MemExtents(vm.ID)
		if err != nil {
			return err
		}
		pages += extents.Pages()
		files = append(files, pram.File{
			Name: vm.Config.Name, VMID: uint32(vm.ID),
			Extents: extents,
		})
	}
	if t.ps, err = pram.Build(t.e.Machine.Mem, files, t.e.pramBuildOptions(t.opts)); err != nil {
		return err
	}
	charge := pramBuildCharge(t, -1)
	t.report.PRAM += charge
	t.e.Clock.Advance(charge)
	t.span.SetAttr("files", len(files))
	t.span.SetAttr("pages", pages)
	t.span.SetAttr("metadata_bytes", t.ps.MetadataBytes())
	return nil
}

func (t *transplant) pause() error {
	t.pauseAt = t.e.Clock.Now()
	for i, vm := range t.vms {
		if vm.Guest != nil {
			if err := vm.Guest.PrepareTransplant(); err != nil {
				return err
			}
		}
		t.prepared = i + 1
		if err := t.src.Pause(vm.ID); err != nil {
			return err
		}
		t.paused = i + 1
	}
	return nil
}

// reconcile brings every guest's device protocol to the prepared state.
// A fresh crash arrives with drivers running (quiesced post hoc from the
// frozen memory image); a double fault mid-transplant arrives prepared.
func (t *transplant) reconcile() error {
	for _, vm := range t.vms {
		if !vm.Paused() {
			return fmt.Errorf("core: VM %q still running on crashed hypervisor", vm.Config.Name)
		}
		if g := vm.Guest; g != nil && g.AllDriversRunning() {
			if err := g.PrepareTransplant(); err != nil {
				return err
			}
		}
	}
	return nil
}

// memo is the translation memo (LookupTranslation / StoreTranslation /
// RecordRestore) of a planned, cached run. Emergency bypasses it: a
// crashed hypervisor's fingerprint chain is not trusted, and salvage must
// read the structures that actually froze, not what a cache believes
// they were. PRAM snapshot replay (pramBuildOptions) is not bypassed: it
// is keyed by the fileset being built and validated, so it holds no
// belief to distrust.
func (t *transplant) memo() *tpcache.Cache {
	if t.report.Emergency {
		return nil
	}
	return t.opts.Cache
}

// translate stashes each VM's UISR blob in preserved RAM as an extra
// PRAM file, so the target kernel can find it after the micro-reboot.
// Every VM's state is saved, and its blob sized, before any blob frame
// is allocated, and blob frames are allocated and written in VM order,
// so MFN assignment — and therefore every preserved byte — is fixed by
// the VM list alone.
func (t *transplant) translate() error {
	mem, memo := t.e.Machine.Mem, t.memo()
	blobs, err := t.encodeStates(memo)
	if err != nil {
		return err
	}
	// One structure holding both memory maps and blobs makes the handover.
	files := make([]pram.File, 0, len(t.ps.Files)+len(blobs))
	files = append(files, t.ps.Files...)
	for i, b := range blobs {
		s := &t.saved[i]
		// Re-land a cached blob at the frames it occupied last time, so
		// the PRAM fileset — which embeds the blob extents — is
		// byte-stable across repeat transplants and the snapshot replay
		// can fire: by reference once its image is captured there, else
		// by writing it. Falls back to cursor allocation when the old
		// frames are taken.
		var extents uisr.MemMap
		if s.frames, extents = memo.InstallBlob(t.e.Machine, s.hash, b.blob); s.frames == nil {
			if s.frames, err = writeBlob(mem, b.size, b.fill, memo.BlobFrames(t.e.Machine, s.hash)); err != nil {
				return err
			}
			memo.SetBlobFrames(t.e.Machine, s.hash, b.blob, s.frames)
			extents = hv.FrameExtents(s.frames)
		}
		s.res.UISRBytes = uint64(b.size)
		t.report.UISRBytes += uint64(b.size)
		files = append(files, pram.File{Name: blobPrefix + s.res.Name, Extents: extents})
	}
	if err := t.ps.Release(mem); err != nil {
		return err
	}
	if t.ps, err = pram.Build(mem, files, t.e.pramBuildOptions(t.opts)); err != nil {
		return err
	}
	t.report.Translation = t.e.elapsed(t.costs, t.opts.Parallel)
	t.e.Clock.Advance(t.report.Translation)
	t.report.PRAMMetadataBytes = t.ps.MetadataBytes()
	t.span.SetAttr("uisr_bytes", t.report.UISRBytes)
	t.span.SetAttr("metadata_bytes", t.report.PRAMMetadataBytes)
	return nil
}

// phaseBuckets bound the per-VM translate and restore charges, 1 ms to
// ~33 s: the engine's only metrics, as no span carries a per-VM charge.
var phaseBuckets = obs.ExpBuckets(1e-3, 2, 16)

// blobSource is one VM's UISR blob before it lands: its size and the
// fill that writes it into its frames' image. blob is the encoded bytes
// when a transplant cache keeps them, and fill copies them; with no cache
// the blob exists only in its frames, and fill encodes it there.
type blobSource struct {
	size int
	blob []byte
	fill func([]byte)
}

// encodeStates returns every VM's UISR blob source in VM order, filling
// t.saved and the per-VM costs. A non-nil memo short-circuits
// SaveUISR+Encode for VMs whose state fingerprint maps to a cached blob.
// Virtual costs are charged identically either way; only wall-clock
// compute is skipped, so the preserved bytes match the cold path exactly.
func (t *transplant) encodeStates(memo *tpcache.Cache) ([]blobSource, error) {
	translateVirtual := t.mets.Histogram("tp.translate_virtual_s", "s", phaseBuckets)
	stale := 0
	kind, m, gen := t.src.Kind(), t.e.Machine, t.e.Machine.Generation()
	t.saved = make([]savedVM, len(t.vms))
	blobs := make([]blobSource, len(t.vms))
	states := make([]*uisr.VMState, 0, len(t.vms))
	t.costs = t.costs[:0]
	for i, vm := range t.vms {
		c := translateCharge(t, i)
		if err := t.arm(i); err != nil {
			return nil, err
		}
		t.costs = append(t.costs, c)
		translateVirtual.Observe(c.Seconds())
		cfg := &vm.Config
		t.saved[i] = savedVM{guest: vm.Guest,
			res: VMResult{Name: cfg.Name, OldID: vm.ID, VCPUs: cfg.VCPUs, Bytes: cfg.MemBytes}}
		if memo != nil {
			if b, h, ok := memo.LookupTranslation(kind, m, gen, vm.ID); ok {
				if t.e.Fault.Fire(t.phase.degrade) != nil {
					// Poisoned entry: discard it and fall back to the
					// cold translate path. The fault is absorbed — a
					// stale cache can cost time, never correctness.
					memo.Invalidate(kind, m, gen, vm.ID)
					t.report.Faults++
					stale++
					t.span.SetAttr("cache_stale", stale)
				} else {
					blobs[i].blob, t.saved[i].hash = b, h
					t.report.CacheHits++
					continue
				}
			}
		}
		// SaveUISR, like MemExtents, reads a crashed source unbarriered.
		st, err := t.src.SaveUISR(vm.ID)
		if err != nil {
			return nil, err
		}
		// The memory map travels via the PRAM "mem" file, not the UISR
		// blob — Fig. 14 accounts the two overheads separately.
		st.MemMap = uisr.MemMap{}
		states = append(states, st)
	}
	// A blob is still nil exactly at the memo misses, in states order.
	k := 0
	for i := range blobs {
		b := &blobs[i]
		if b.blob == nil {
			st := states[k]
			k++
			if memo == nil {
				size, err := uisr.EncodedSize(st)
				if err != nil {
					return nil, err
				}
				*b = blobSource{size: size, fill: func(img []byte) { uisr.Put(img, st) }}
				continue
			}
			var err error
			if b.blob, err = uisr.Encode(st); err != nil {
				return nil, err
			}
			t.saved[i].hash = memo.StoreTranslation(kind, m, gen, t.vms[i].ID, b.blob)
		}
		blob := b.blob
		b.size, b.fill = len(blob), func(img []byte) { copy(img, blob) }
	}
	if memo != nil {
		t.report.CacheMisses += uint64(len(states))
		t.span.SetAttr("cache_hits", len(t.vms)-len(states))
		t.span.SetAttr("cache_misses", len(states))
	}
	return blobs, nil
}

func (t *transplant) releaseSource() error {
	for _, vm := range t.vms {
		if err := t.src.ReleaseVMState(vm.ID); err != nil {
			return err
		}
	}
	return nil
}

// microReboot: the preserve set comes entirely from PRAM — guest memory,
// metadata pages, and the UISR blob frames ("uisr:" files, see translate).
func (t *transplant) microReboot() error {
	res, err := kexec.Exec(t.e.Machine, t.img, t.ps.Pointer, t.ps.FrameRanges())
	if err != nil {
		return err
	}
	t.report.WipedFrames = res.WipedFrames
	t.report.Reboot = bootCharge(t, -1) + reparseCharge(t, -1)
	t.e.Clock.Advance(t.report.Reboot)
	if t.e.Fault.Fire(t.phase.site) != nil {
		t.recovered(-1)
	}
	t.span.SetAttr("wiped_frames", res.WipedFrames)
	t.span.SetAttr("preserved_frames", res.PreservedFrames)
	return nil
}

func (t *transplant) boot() (err error) {
	t.dst, err = t.e.BootHypervisor(t.target)
	return err
}

func (t *transplant) parsePRAM() error {
	ptr, err := kexec.ParseCmdline(t.e.Machine.Cmdline)
	if err != nil {
		return err
	}
	if t.parsed, err = t.e.pramBuildOptions(t.opts).Snapshot.Parse(t.e.Machine.Mem, ptr); err != nil {
		return fmt.Errorf("core: PRAM lost across reboot: %w", err)
	}
	t.span.SetAttr("files", len(t.parsed.Files))
	return nil
}

// restore reads and decodes every VM's blob before it touches the
// target, so a corrupt blob fails the phase with nothing restored;
// RestoreUISR and guest attachment then run in VM order. A planned,
// cached run takes the state from the decode memo when the blob's frames
// still hold the image captured there, and the target's translation of
// it from the memo beside it when the adopted map is the one it was
// translated over; the cold read, decode and translation fill them.
func (t *transplant) restore() error {
	if !t.opts.EarlyRestoration {
		t.report.Restoration += t.cost.RestoreServiceWait
		t.e.Clock.Advance(t.cost.RestoreServiceWait)
	}
	// PRAM hands the files back in the order translate recorded them:
	// every VM's memory map, then every VM's UISR blob.
	files, n := t.parsed.Files, len(t.saved)
	if len(files) != 2*n {
		return fmt.Errorf("core: %d PRAM files after reboot, want %d", len(files), 2*n)
	}
	memo, m := t.memo(), t.e.Machine
	restored := make([]*uisr.VMState, n)
	var kept []*hv.Translation // each VM's, once the memo keeps one
	var buf []byte             // every blob is read into the one buffer
	for i, s := range t.saved {
		if files[n+i].Name != blobPrefix+s.res.Name {
			return fmt.Errorf("core: UISR blob for %q missing after reboot", s.res.Name)
		}
		frames := blobFrames(files[n+i])
		st, held := memo.DecodedBlob(m, s.hash, frames)
		if st == nil {
			var blob []byte
			var err error
			if blob, buf, err = readBlob(m.Mem, files[n+i].Name, frames, buf); err != nil {
				return err
			}
			if st, err = uisr.Decode(blob); err != nil {
				return fmt.Errorf("core: UISR blob for %q corrupt: %w", s.res.Name, err)
			}
			if held {
				memo.SetDecodedBlob(m, s.hash, frames, st)
			}
		}
		restored[i] = st
		if tr := memo.Translation(m, s.hash, frames, t.target, files[i].Extents); tr != nil {
			if kept == nil {
				kept = make([]*hv.Translation, n)
			}
			kept[i] = tr
		}
	}
	t.costs = t.costs[:0]
	for i := range t.saved {
		s := &t.saved[i]
		if files[i].Name != s.res.Name {
			return fmt.Errorf("core: memory map for %q missing after reboot", s.res.Name)
		}
		st := restored[i]
		st.MemMap = files[i].Extents
		if err := t.arm(i); err != nil {
			return err
		}
		opts := hv.RestoreOptions{Mode: hv.RestoreAdopt, InPlaceCompatible: t.vms[i].Config.InPlaceCompatible}
		if kept != nil {
			opts.Translation = kept[i]
		}
		newVM, err := t.dst.RestoreUISR(st, opts)
		if err != nil {
			return err
		}
		s.res.NewID = newVM.ID
		if memo != nil {
			// Chain the fingerprint: the restored VM's platform state IS
			// this blob, so its next save is predictable from it.
			memo.RecordRestore(t.target, m, m.Generation(), newVM.ID, s.hash)
		}
		if s.guest != nil {
			if err := t.dst.AttachGuest(newVM.ID, s.guest); err != nil {
				return err
			}
		}
		t.costs = append(t.costs, t.cost.Restore(s.res.VCPUs))
	}
	restoreVirtual := t.mets.Histogram("tp.restore_virtual_s", "s", phaseBuckets)
	for _, c := range t.costs {
		restoreVirtual.Observe(c.Seconds())
	}
	elapsed := t.e.elapsed(t.costs, t.opts.Parallel)
	t.report.Restoration += elapsed
	t.e.Clock.Advance(elapsed)
	return nil
}

func (t *transplant) resume() error {
	t.report.VMs = make([]VMResult, 0, len(t.saved))
	for i := range t.saved {
		s := &t.saved[i]
		if err := t.dst.Resume(s.res.NewID); err != nil {
			return err
		}
		if s.guest != nil {
			if err := s.guest.CompleteTransplant(); err != nil {
				return err
			}
		}
		if err := t.e.Machine.Mem.FreeRanges(s.frames); err != nil {
			return err
		}
		t.report.VMs = append(t.report.VMs, s.res)
	}
	return nil
}

func (t *transplant) cleanup() error {
	return t.parsed.Release(t.e.Machine.Mem)
}
