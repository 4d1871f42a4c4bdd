package core

import (
	"reflect"
	"slices"
	"testing"
	"time"

	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

type bench struct {
	clock  *simtime.Clock
	m      *hw.Machine
	engine *Engine
}

func newBench(t *testing.T, p *hw.Profile) *bench {
	t.Helper()
	clock := simtime.NewClock()
	m := hw.NewMachine(clock, p)
	return &bench{clock: clock, m: m, engine: NewEngine(clock, m)}
}

func (b *bench) bootWithVMs(t *testing.T, kind hv.Kind, n, vcpus, memGiB int) hv.Hypervisor {
	t.Helper()
	h, err := b.engine.BootHypervisor(kind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		_, err := h.CreateVM(hv.Config{
			Name: vmName(i), VCPUs: vcpus, MemBytes: uint64(memGiB) << 30,
			HugePages: true, Seed: uint64(1000 + i), InPlaceCompatible: true,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return h
}

func vmName(i int) string { return string(rune('a'+i)) + "-vm" }

// §5.2.1 headline: InPlaceTP Xen→KVM of a 1 vCPU / 1 GB VM has ~1.7 s of
// downtime on M1 and ~3.0 s on M2; total time ~2.15 s / ~3.56 s.
func TestFig6Anchors(t *testing.T) {
	cases := []struct {
		profile           *hw.Profile
		downtime, total   time.Duration
		downtimeTol, tTol time.Duration
	}{
		{hw.M1(), 1700 * time.Millisecond, 2150 * time.Millisecond, 200 * time.Millisecond, 250 * time.Millisecond},
		{hw.M2(), 3010 * time.Millisecond, 3560 * time.Millisecond, 300 * time.Millisecond, 350 * time.Millisecond},
	}
	for _, tc := range cases {
		b := newBench(t, tc.profile)
		src := b.bootWithVMs(t, hv.KindXen, 1, 1, 1)
		_, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if d := rep.Downtime - tc.downtime; d < -tc.downtimeTol || d > tc.downtimeTol {
			t.Errorf("%s downtime = %v, want %v ± %v", tc.profile.Name, rep.Downtime, tc.downtime, tc.downtimeTol)
		}
		if d := rep.Total - tc.total; d < -tc.tTol || d > tc.tTol {
			t.Errorf("%s total = %v, want %v ± %v", tc.profile.Name, rep.Total, tc.total, tc.tTol)
		}
		// Reboot dominates (69-71% of total in the paper).
		frac := float64(rep.Reboot) / float64(rep.Total)
		if frac < 0.55 || frac > 0.85 {
			t.Errorf("%s reboot fraction = %.2f, want ~0.7", tc.profile.Name, frac)
		}
		// Downtime = Translation + Reboot + Restoration.
		if rep.Downtime != rep.Translation+rep.Reboot+rep.Restoration {
			t.Errorf("%s downtime != sum of phases", tc.profile.Name)
		}
		if rep.NetworkDowntime != rep.Downtime+tc.profile.Cost.NICReinit {
			t.Errorf("%s network downtime wrong", tc.profile.Name)
		}
	}
}

// Fig. 10 anchor: KVM→Xen is several times slower because Xen boots two
// kernels; ~7.8 s downtime on M1.
func TestKVMToXenSlower(t *testing.T) {
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindKVM, 1, 1, 1)
	_, rep, err := b.engine.InPlace(src, hv.KindXen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Downtime < 7*time.Second || rep.Downtime > 9*time.Second {
		t.Fatalf("KVM→Xen downtime = %v, want ~7.8s", rep.Downtime)
	}
	// Still far below the 30 s Azure maintenance bound the paper cites.
	if rep.Downtime > 30*time.Second {
		t.Fatal("downtime above the 30s acceptability bound")
	}
}

// The core correctness property: every byte every guest wrote survives
// InPlaceTP, the devices complete the pause/unplug protocol, and the VMs
// run on the new hypervisor.
func TestInPlacePreservesGuestState(t *testing.T) {
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindXen, 3, 2, 1)
	sums := map[string]uint64{}
	for _, vm := range src.VMs() {
		if err := vm.Guest.WriteWorkingSet(hw.GFN(10*int(vm.ID)), 300); err != nil {
			t.Fatal(err)
		}
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			t.Fatal(err)
		}
		sums[vm.Config.Name] = sum
	}
	dst, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if dst.Kind() != hv.KindKVM {
		t.Fatalf("target kind = %v", dst.Kind())
	}
	if len(rep.VMs) != 3 {
		t.Fatalf("transplanted %d VMs", len(rep.VMs))
	}
	if len(dst.VMs()) != 3 {
		t.Fatalf("%d VMs on target", len(dst.VMs()))
	}
	for _, vm := range dst.VMs() {
		if vm.Paused() {
			t.Fatalf("VM %q not resumed", vm.Config.Name)
		}
		if vm.Guest == nil {
			t.Fatalf("VM %q has no guest", vm.Config.Name)
		}
		if err := vm.Guest.Verify(); err != nil {
			t.Fatalf("guest state lost: %v", err)
		}
		if !vm.Guest.AllDriversRunning() {
			t.Fatalf("VM %q drivers not running", vm.Config.Name)
		}
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			t.Fatal(err)
		}
		if sum != sums[vm.Config.Name] {
			t.Fatalf("VM %q image changed across transplant", vm.Config.Name)
		}
		// The device protocol ran exactly once.
		pauses, resumes, rescans := vm.Guest.ProtocolCounters()
		if pauses != 2 || resumes != 2 || rescans != 1 {
			t.Fatalf("VM %q protocol counters %d/%d/%d", vm.Config.Name, pauses, resumes, rescans)
		}
	}
	// Ephemeral transplant memory was given back: only guest + HV state
	// remain.
	counts := b.m.Mem.CountByOwner()
	if counts[hw.OwnerPRAM] != 0 || counts[hw.OwnerKexecImage] != 0 {
		t.Fatalf("ephemeral frames leaked: %v", counts)
	}
}

// Transplanting back and forth (Xen→KVM→Xen) must also preserve state —
// the full heterogeneous round trip.
func TestRoundTripTransplant(t *testing.T) {
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindXen, 1, 2, 1)
	vm := src.VMs()[0]
	vm.Guest.WriteWorkingSet(5, 100)
	g := vm.Guest

	mid, _, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	back, _, err := b.engine.InPlace(mid, hv.KindXen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if back.Kind() != hv.KindXen {
		t.Fatal("not back on Xen")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost on round trip: %v", err)
	}
}

func TestInPlaceErrors(t *testing.T) {
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindXen, 1, 1, 1)
	if _, _, err := b.engine.InPlace(src, hv.KindXen, DefaultOptions()); err == nil {
		t.Fatal("same-kind transplant accepted")
	}
	// No VMs.
	b2 := newBench(t, hw.M1())
	empty, _ := b2.engine.BootHypervisor(hv.KindXen)
	if _, _, err := b2.engine.InPlace(empty, hv.KindKVM, DefaultOptions()); err == nil {
		t.Fatal("transplant with no VMs accepted")
	}
	// Wrong machine.
	b3 := newBench(t, hw.M1())
	if _, _, err := b3.engine.InPlace(src, hv.KindKVM, DefaultOptions()); err == nil {
		t.Fatal("cross-machine source accepted")
	}
	// Pre-paused VM.
	b4 := newBench(t, hw.M1())
	src4 := b4.bootWithVMs(t, hv.KindXen, 1, 1, 1)
	src4.Pause(src4.VMs()[0].ID)
	if _, _, err := b4.engine.InPlace(src4, hv.KindKVM, DefaultOptions()); err == nil {
		t.Fatal("paused VM accepted")
	}
}

// §4.2.5 ablations: each optimization must measurably reduce downtime.
func TestAblations(t *testing.T) {
	run := func(opts Options, n, memGiB int) *InPlaceReport {
		b := newBench(t, hw.M1())
		src := b.bootWithVMs(t, hv.KindXen, n, 1, memGiB)
		_, rep, err := b.engine.InPlace(src, hv.KindKVM, opts)
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	full := DefaultOptions()

	noPrep := full
	noPrep.PrepareBeforePause = false
	if a, b := run(full, 2, 2), run(noPrep, 2, 2); b.Downtime <= a.Downtime {
		t.Errorf("prepare-before-pause saves nothing: %v vs %v", a.Downtime, b.Downtime)
	}

	noPar := full
	noPar.Parallel = false
	if a, b := run(full, 8, 1), run(noPar, 8, 1); b.Downtime <= a.Downtime {
		t.Errorf("parallelization saves nothing: %v vs %v", a.Downtime, b.Downtime)
	}

	noHuge := full
	noHuge.HugePages = false
	a, bb := run(full, 1, 2), run(noHuge, 1, 2)
	if bb.Downtime <= a.Downtime {
		t.Errorf("huge pages save nothing: %v vs %v", a.Downtime, bb.Downtime)
	}
	if bb.PRAMMetadataBytes <= a.PRAMMetadataBytes*10 {
		t.Errorf("split PRAM metadata not ≫: %d vs %d", bb.PRAMMetadataBytes, a.PRAMMetadataBytes)
	}

	noEarly := full
	noEarly.EarlyRestoration = false
	if a, b := run(full, 1, 1), run(noEarly, 1, 1); b.Downtime <= a.Downtime {
		t.Errorf("early restoration saves nothing: %v vs %v", a.Downtime, b.Downtime)
	}
}

// Fig. 7a: the number of vCPUs barely affects transplantation time.
func TestScalabilityVCPUsFlat(t *testing.T) {
	times := map[int]time.Duration{}
	for _, vcpus := range []int{1, 10} {
		b := newBench(t, hw.M1())
		src := b.bootWithVMs(t, hv.KindXen, 1, vcpus, 1)
		_, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		times[vcpus] = rep.Total
	}
	diff := times[10] - times[1]
	if diff < 0 {
		diff = -diff
	}
	if diff > 300*time.Millisecond {
		t.Fatalf("vCPU sweep moves total by %v, want ~flat", diff)
	}
}

// Fig. 7b/7c: memory size and VM count grow Reboot (sequential PRAM
// parse) but downtime stays within the paper's envelope (1.7-3.6 s M1).
func TestScalabilityEnvelopeM1(t *testing.T) {
	run := func(n, memGiB int) *InPlaceReport {
		b := newBench(t, hw.M1())
		src := b.bootWithVMs(t, hv.KindXen, n, 1, memGiB)
		_, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	small := run(1, 1)
	bigMem := run(1, 12)
	manyVMs := run(12, 1)
	if bigMem.Reboot <= small.Reboot {
		t.Fatal("reboot does not grow with memory")
	}
	if manyVMs.Reboot <= small.Reboot {
		t.Fatal("reboot does not grow with VM count")
	}
	for name, rep := range map[string]*InPlaceReport{"small": small, "bigMem": bigMem, "manyVMs": manyVMs} {
		if rep.Downtime < 1500*time.Millisecond || rep.Downtime > 3800*time.Millisecond {
			t.Fatalf("%s downtime = %v outside the 1.7-3.6s envelope", name, rep.Downtime)
		}
	}
}

// Fig. 7c vs 7f: PRAM construction scales worse on 4-core M1 than on
// 56-thread M2.
func TestPRAMParallelScaling(t *testing.T) {
	run := func(p *hw.Profile, n int) time.Duration {
		b := newBench(t, p)
		src := b.bootWithVMs(t, hv.KindXen, n, 1, 1)
		_, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return rep.PRAM
	}
	m1Growth := float64(run(hw.M1(), 12)) / float64(run(hw.M1(), 1))
	m2Growth := float64(run(hw.M2(), 12)) / float64(run(hw.M2(), 1))
	if m1Growth <= m2Growth {
		t.Fatalf("M1 PRAM growth %.2fx not worse than M2 %.2fx", m1Growth, m2Growth)
	}
}

func TestUISROverheadReported(t *testing.T) {
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindXen, 1, 1, 1)
	_, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 14: ~5 KB of UISR for 1 vCPU; 16 KB of PRAM for 1 GiB.
	if rep.UISRBytes < 4000 || rep.UISRBytes > 7000 {
		t.Fatalf("UISR bytes = %d, want ~5KB", rep.UISRBytes)
	}
	if rep.PRAMMetadataBytes < 16<<10 || rep.PRAMMetadataBytes > 24<<10 {
		t.Fatalf("PRAM metadata = %d, want ~16-20KB", rep.PRAMMetadataBytes)
	}
	if rep.VMs[0].UISRBytes != rep.UISRBytes {
		t.Fatal("per-VM UISR bytes inconsistent")
	}
}

// TestDecodedBlobOutlivesItsReadBuffer: restore reads every VM's blob
// into one buffer, which is sound only if a decoded state keeps nothing
// of it — device state, strings and memory-map extents all copied. Two
// blobs, written as translate writes them, are read in turn into the
// same buffer; after each read the buffer is overwritten, and every state
// decoded so far must still be the state that was saved.
func TestDecodedBlobOutlivesItsReadBuffer(t *testing.T) {
	mem := hw.NewPhysMem(64 << 20)
	var states []*uisr.VMState
	var frames [][]hw.FrameRange
	for i, vcpus := range []int{4, 2} {
		st := uisr.SyntheticVM(vmName(i), uint32(i+1), vcpus, 64<<20, uint64(7+i))
		var extents []uisr.PageExtent // scattered huge pages covering the VM
		for g := uint64(0); g < 64<<20/hw.PageSize2M; g++ {
			extents = append(extents, uisr.PageExtent{GFN: g * hw.FramesPer2M, MFN: (3*g + 1) * hw.FramesPer2M, Order: 9})
		}
		st.MemMap = uisr.NewMemMap(extents)
		size, err := uisr.EncodedSize(st)
		if err != nil {
			t.Fatal(err)
		}
		at, err := writeBlob(mem, size, func(b []byte) { uisr.Put(b, st) }, nil)
		if err != nil {
			t.Fatal(err)
		}
		states, frames = append(states, st), append(frames, at)
	}
	var buf []byte
	var decoded []*uisr.VMState
	for i := range states {
		blob, next, err := readBlob(mem, vmName(i), frames[i], buf)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && &next[0] != &buf[0] {
			t.Fatal("the second read did not reuse the first one's buffer")
		}
		buf = next
		st, err := uisr.Decode(blob)
		if err != nil {
			t.Fatal(err)
		}
		decoded = append(decoded, st)
		for k := range buf {
			buf[k] = 0xa5
		}
		for j, st := range decoded {
			if !reflect.DeepEqual(st, states[j]) {
				t.Fatalf("VM %d: the decoded state changed when its read buffer was overwritten", j)
			}
		}
	}
}

func TestBootHypervisorUnknownKind(t *testing.T) {
	b := newBench(t, hw.M1())
	if _, err := b.engine.BootHypervisor(hv.Kind(77)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestTCBReport(t *testing.T) {
	total, tcb, userFrac := TCBTotals()
	if total != 14.6 {
		t.Fatalf("total KLOC = %v, want 14.6 (~15 per §4.4)", total)
	}
	if tcb != 8.5 {
		t.Fatalf("TCB KLOC = %v, want 8.5", tcb)
	}
	if userFrac < 0.70 || userFrac > 0.95 {
		t.Fatalf("userspace fraction = %v, want ~0.74 ('nearly 90%%' of non-hypervisor code)", userFrac)
	}
	if len(TCBReport()) != 4 {
		t.Fatal("TCB report rows wrong")
	}
}

// §4.2.3: a VM with a pass-through device transplants in place — the
// device is paused before the micro-reboot and resumed after, since the
// hardware itself does not change.
func TestInPlaceWithPassthroughDevice(t *testing.T) {
	b := newBench(t, hw.M1())
	src, err := b.engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(hv.Config{
		Name: "gpu-vm", VCPUs: 2, MemBytes: 1 << 30, HugePages: true,
		Seed: 5, InPlaceCompatible: true, PassthroughDevices: []string{"gpu0", "nvme0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 64)
	g := vm.Guest
	if g.Driver("gpu0") == nil || g.Driver("nvme0") == nil {
		t.Fatal("pass-through drivers not attached")
	}
	dst, _, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if !g.AllDriversRunning() {
		t.Fatal("pass-through drivers not resumed")
	}
	// Each of the two pass-through + two emulated drivers paused and
	// resumed exactly once; the network driver was unplugged/rescanned.
	pauses, resumes, rescans := g.ProtocolCounters()
	if pauses != 4 || resumes != 4 || rescans != 1 {
		t.Fatalf("protocol counters %d/%d/%d, want 4/4/1", pauses, resumes, rescans)
	}
	if len(dst.VMs()) != 1 {
		t.Fatal("VM lost")
	}
}

// phaseNames lists the phase spans under the collector's one root: the
// Fig. 3 steps the walk ran, in the order it opened them.
func phaseNames(t *testing.T, col *obs.Collector) []string {
	t.Helper()
	recs := col.Records()
	if roots := childNames(recs, -1); len(roots) != 1 {
		t.Fatalf("want 1 root span, got %v", roots)
	}
	return childNames(recs, recs[0].ID)
}

// The phase spans record the Fig. 3 workflow in order, with the PRAM
// build before the pause when the optimization is on and after it when
// off, and every VM is restored with its guest rebound on the target.
func TestTraceRecordsWorkflow(t *testing.T) {
	b := newBench(t, hw.M1())
	rec, col := collecting(b.clock)
	b.engine.Obs = rec
	src := b.bootWithVMs(t, hv.KindXen, 2, 1, 1)
	guests := map[string]*guest.Guest{}
	for _, vm := range src.VMs() {
		guests[vm.Config.Name] = vm.Guest
	}
	dst, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	names := phaseNames(t, col)
	if !reflect.DeepEqual(names, Steps()) {
		t.Fatalf("phase spans %v, want the Fig. 3 order %v", names, Steps())
	}
	// Optimized: PRAM built before the pause.
	if slices.Index(names, stepPRAMBuild) > slices.Index(names, stepPause) {
		t.Fatal("PRAM build after pause despite PrepareBeforePause")
	}
	// Both VMs restored, each bound to the guest it left the source with.
	if len(rep.VMs) != 2 {
		t.Fatalf("%d VMs restored, want 2", len(rep.VMs))
	}
	for _, r := range rep.VMs {
		vm, ok := dst.LookupVM(r.NewID)
		if !ok || vm.Config.Name != r.Name {
			t.Fatalf("%s: restored id %d not on the target", r.Name, r.NewID)
		}
		if g := guests[r.Name]; g == nil || vm.Guest != g {
			t.Fatalf("%s: guest not rebound on the target", r.Name)
		}
	}

	// De-optimized: PRAM lands inside the pause window.
	b2 := newBench(t, hw.M1())
	rec2, col2 := collecting(b2.clock)
	b2.engine.Obs = rec2
	src2 := b2.bootWithVMs(t, hv.KindXen, 1, 1, 1)
	opts := DefaultOptions()
	opts.PrepareBeforePause = false
	if _, _, err := b2.engine.InPlace(src2, hv.KindKVM, opts); err != nil {
		t.Fatal(err)
	}
	names2 := phaseNames(t, col2)
	if slices.Index(names2, stepPRAMBuild) < slices.Index(names2, stepPause) {
		t.Fatal("PRAM build before pause despite disabled optimization")
	}
}
