package xen

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

func bootXen(t *testing.T) hv.Hypervisor {
	t.Helper()
	m := hw.NewMachine(simtime.NewClock(), hw.M1())
	x, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func testConfig(name string) hv.Config {
	return hv.Config{Name: name, VCPUs: 2, MemBytes: 64 << 20, HugePages: true, Seed: 7}
}

func TestBootReservesHVState(t *testing.T) {
	x := bootXen(t)
	counts := x.Machine().Mem.CountByOwner()
	if counts[hw.OwnerHV] != HVResidentBytes/hw.PageSize4K {
		t.Fatalf("HV frames = %d, want %d", counts[hw.OwnerHV], HVResidentBytes/hw.PageSize4K)
	}
	if x.Kind() != hv.KindXen || x.Name() != Version {
		t.Fatal("identity wrong")
	}
}

func TestCreateVM(t *testing.T) {
	x := bootXen(t)
	vm, err := x.CreateVM(testConfig("web"))
	if err != nil {
		t.Fatal(err)
	}
	if vm.ID != 1 {
		t.Fatalf("first domid = %d, want 1", vm.ID)
	}
	if vm.Guest == nil {
		t.Fatal("no guest attached")
	}
	if vm.Paused() {
		t.Fatal("fresh VM paused")
	}
	counts := x.Machine().Mem.CountByOwner()
	if counts[hw.OwnerGuest] != (64<<20)/hw.PageSize4K {
		t.Fatalf("guest frames = %d", counts[hw.OwnerGuest])
	}
	if counts[hw.OwnerVMState] == 0 {
		t.Fatal("no VM_i State frames allocated")
	}
}

func TestCreateVMValidation(t *testing.T) {
	x := bootXen(t)
	if _, err := x.CreateVM(hv.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestSaveUISRRequiresPause(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("s"))
	if _, err := x.SaveUISR(vm.ID); err == nil {
		t.Fatal("SaveUISR on running domain accepted")
	}
	x.Pause(vm.ID)
	st, err := x.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Validate(); err != nil {
		t.Fatal(err)
	}
	if st.SourceHypervisor != "xen" {
		t.Fatalf("source = %q", st.SourceHypervisor)
	}
	if len(st.VCPUs) != 2 {
		t.Fatalf("vCPUs = %d", len(st.VCPUs))
	}
	if st.IOAPIC.NumPins != uisr.XenIOAPICPins {
		t.Fatalf("IOAPIC pins = %d, want 48", st.IOAPIC.NumPins)
	}
}

// The core identity: save → restore within Xen preserves the full UISR
// state (the Xen→UISR→Xen lossless round trip from DESIGN.md).
func TestXenUISRRoundTripLossless(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("rt"))
	x.Pause(vm.ID)
	st1, err := x.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := x.RestoreUISR(st1, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	if !restored.Paused() {
		t.Fatal("restored VM not paused")
	}
	st2, err := x.SaveUISR(restored.ID)
	if err != nil {
		t.Fatal(err)
	}
	// Ignore identity fields that legitimately change.
	st2.VMID = st1.VMID
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("Xen→UISR→Xen round trip is lossy")
	}
}

func TestContextBlobIsXenFormat(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("fmt"))
	blob, err := ContextBlob(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	ctx, err := parseContext(blob)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.header.Magic != hvmMagic {
		t.Fatal("wrong magic")
	}
	if len(ctx.vcpus) != 2 {
		t.Fatalf("cpus = %d", len(ctx.vcpus))
	}
	// Re-marshaling must be deterministic.
	if !bytes.Equal(marshalContext(ctx), blob) {
		t.Fatal("context marshal not canonical")
	}
}

// TestFramesHoldTheDomainContext: a domain keeps the context it was born
// with and its save translates that, unparsed, so the context must be
// exactly what its frames hold. For every domain the corpus births —
// Xen-native at 1, 2 and 8 vCPUs, restored from a Xen save, from a KVM
// source (narrow IOAPIC, no HPET or PM timer) and from a NOVA one (no
// PIT) — the reference parser reads the frames back to the domain's
// context, before and after a save whose state is then scribbled over.
func TestFramesHoldTheDomainContext(t *testing.T) {
	x := bootXen(t)
	var ids []hv.VMID
	for _, vcpus := range []int{1, 2, 8} {
		cfg := testConfig("native")
		cfg.VCPUs = vcpus
		vm, err := x.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := x.Pause(vm.ID); err != nil { // restored VMs come back paused
			t.Fatal(err)
		}
		ids = append(ids, vm.ID)
	}
	saved, err := x.SaveUISR(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	kvmBorn := uisr.SyntheticVM("kvm-born", 1, 3, 64<<20, 21)
	kvmBorn.IOAPIC.NumPins = uisr.KVMIOAPICPins
	kvmBorn.HasHPET, kvmBorn.HasPMTimer = false, false
	novaBorn := uisr.SyntheticVM("nova-born", 1, 2, 64<<20, 22)
	novaBorn.HasPIT = false
	for _, st := range []*uisr.VMState{saved, kvmBorn, novaBorn} {
		vm, err := x.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, vm.ID)
	}
	check := func(when string, id hv.VMID) {
		t.Helper()
		dom, err := hv.StateOf[*domain](x, id)
		if err != nil {
			t.Fatal(err)
		}
		blob, err := ContextBlob(x, id)
		if err != nil {
			t.Fatal(err)
		}
		parsed, err := parseContext(blob)
		if err != nil {
			t.Fatalf("VM %d %s: the frames' context is rejected: %v", id, when, err)
		}
		if !reflect.DeepEqual(parsed, dom.ctx) {
			t.Fatalf("VM %d %s: the frames hold another context than the domain's", id, when)
		}
	}
	for _, id := range ids {
		check("at birth", id)
		st, err := x.SaveUISR(id)
		if err != nil {
			t.Fatal(err)
		}
		for i := range st.VCPUs {
			st.VCPUs[i].Regs.RIP++
			for j := range st.VCPUs[i].MSRs {
				st.VCPUs[i].MSRs[j].Value++
			}
		}
		check("after a save", id)
	}
}

func TestParseContextRejectsCorruption(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("c"))
	blob, _ := ContextBlob(x, vm.ID)

	if _, err := parseContext(blob[:len(blob)-4]); err == nil {
		t.Fatal("truncated blob accepted")
	}
	bad := append([]byte(nil), blob...)
	bad[0] = 0xEE // unknown record type
	if _, err := parseContext(bad); err == nil {
		t.Fatal("unknown record type accepted")
	}
	if _, err := parseContext(nil); err == nil {
		t.Fatal("empty blob accepted")
	}
	// Records after the end marker.
	withTrailer := append(append([]byte(nil), blob...), 2, 0, 0, 0, 0, 0, 0, 0)
	if _, err := parseContext(withTrailer); err == nil {
		t.Fatal("records after end marker accepted")
	}
}

func TestIOAPICWideningFix(t *testing.T) {
	// A KVM-sourced UISR has 24 pins; restoring on Xen must widen to 48
	// with the upper pins masked (§4.2.1, KVM→Xen direction).
	st := uisr.SyntheticVM("narrow", 1, 1, 64<<20, 3)
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	var io hvmIOAPIC
	if err := ioapicFromUISR(&st.IOAPIC, &io); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < uisr.KVMIOAPICPins; p++ {
		if io.Redir[p] != st.IOAPIC.Redir[p] {
			t.Fatalf("pin %d changed", p)
		}
	}
	const maskBit = 1 << 16
	for p := uisr.KVMIOAPICPins; p < uisr.XenIOAPICPins; p++ {
		if io.Redir[p] != maskBit {
			t.Fatalf("widened pin %d not masked: %#x", p, io.Redir[p])
		}
	}
}

func TestIOAPICTooWideRejected(t *testing.T) {
	in := uisr.IOAPIC{NumPins: uisr.XenIOAPICPins + 1}
	var io hvmIOAPIC
	if err := ioapicFromUISR(&in, &io); err == nil {
		t.Fatal("oversized IOAPIC accepted")
	}
}

func TestRestoreAdoptInPlace(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("adopt"))
	vm.Guest.WriteWorkingSet(0, 32)
	x.Pause(vm.ID)
	st, _ := x.SaveUISR(vm.ID)
	st.MemMap, _ = x.MemExtents(vm.ID)
	g := vm.Guest

	// Drop the old domain's VM_i State but keep guest memory, then
	// adopt it back — the InPlaceTP memory path in miniature.
	if err := x.ReleaseVMState(vm.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := x.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt})
	if err != nil {
		t.Fatal(err)
	}
	if err := x.AttachGuest(restored.ID, g); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost: %v", err)
	}
}

func TestRestoreAdoptWithoutMapFails(t *testing.T) {
	x := bootXen(t)
	st := uisr.SyntheticVM("nomap", 1, 1, 64<<20, 1)
	if _, err := x.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt}); err == nil {
		t.Fatal("adopt without map accepted")
	}
}

func TestDestroyVMReleasesMemory(t *testing.T) {
	x := bootXen(t)
	before := x.Machine().Mem.AllocatedFrames()
	vm, _ := x.CreateVM(testConfig("d"))
	if err := x.DestroyVM(vm.ID); err != nil {
		t.Fatal(err)
	}
	if got := x.Machine().Mem.AllocatedFrames(); got != before {
		t.Fatalf("leak: %d frames, want %d", got, before)
	}
	if err := x.DestroyVM(vm.ID); err == nil {
		t.Fatal("double destroy accepted")
	}
}

func TestEventChannelsAndRunQueue(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("e"))
	ports, err := EventChannels(x, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	// console + xenstore + one virq per vCPU.
	if len(ports) != 2+vm.Config.VCPUs {
		t.Fatalf("ports = %d", len(ports))
	}
	if q := RunQueue(x); len(q) != 1 || q[0] != vm.ID {
		t.Fatalf("runq = %v", q)
	}
	x.CreateVM(testConfig("e2"))
	if q := RunQueue(x); len(q) != 2 {
		t.Fatalf("runq after second VM = %v", q)
	}
}

func TestFootprint(t *testing.T) {
	x := bootXen(t)
	vm, _ := x.CreateVM(testConfig("f"))
	fp, err := x.Footprint(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp.GuestBytes != 64<<20 {
		t.Fatalf("GuestBytes = %d", fp.GuestBytes)
	}
	if fp.VMStateBytes == 0 || fp.MgmtBytes == 0 {
		t.Fatalf("footprint has zero components: %+v", fp)
	}
	if x.MgmtStateBytes() == 0 {
		t.Fatal("MgmtStateBytes zero with a domain present")
	}
}

// Property: UISR → Xen context → UISR is the identity on platform state
// for arbitrary synthetic seeds.
func TestPropertyConvertRoundTrip(t *testing.T) {
	f := func(seed uint64, vcpusRaw uint8) bool {
		vcpus := int(vcpusRaw%8) + 1
		st := uisr.SyntheticVM("prop", 1, vcpus, 1<<30, seed)
		st.IOAPIC.NumPins = uisr.XenIOAPICPins
		ctx, err := fromUISR(st)
		if err != nil {
			return false
		}
		// Serialize through the blob format too.
		ctx2, err := parseContext(marshalContext(ctx))
		if err != nil {
			return false
		}
		back, err := toUISR(ctx2)
		if err != nil {
			return false
		}
		// Identity, devices and scheduling weight travel at the
		// hypervisor level (SaveUISR), not through the platform blob.
		back.Name, back.VMID = st.Name, st.VMID
		back.MemBytes, back.HugePages = st.MemBytes, st.HugePages
		back.SourceHypervisor = st.SourceHypervisor
		back.Devices = st.Devices
		back.Weight = st.Weight
		return reflect.DeepEqual(st, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// KVM-sourced state has no HPET/PM timer; Xen's restore path must come up
// with a disabled HPET rather than fail (the reverse compatibility fix).
func TestTimersSynthesizedFromKVMSource(t *testing.T) {
	st := uisr.SyntheticVM("kvm-born", 1, 1, 64<<20, 33)
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	st.HasHPET, st.HasPMTimer = false, false
	ctx, err := fromUISR(st)
	if err != nil {
		t.Fatal(err)
	}
	if ctx.hpet.Config != 0 || ctx.hpet.Counter != 0 {
		t.Fatal("synthesized HPET not disabled")
	}
	if ctx.hpet.Capability == 0 {
		t.Fatal("synthesized HPET has no capability id")
	}
	if ctx.pmtimer != (hvmPMTimer{}) {
		t.Fatal("synthesized PM timer not zeroed")
	}
	// And the synthesized state reports as present on the next save —
	// Xen emulates them from now on.
	back, err := toUISR(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasHPET || !back.HasPMTimer {
		t.Fatal("Xen does not report its own platform timers")
	}
	if back.RTC != st.RTC {
		t.Fatal("RTC state lost crossing formats")
	}
}
