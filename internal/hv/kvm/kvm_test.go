package kvm

import (
	"reflect"
	"testing"
	"testing/quick"

	"hypertp/internal/hv"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

func bootKVM(t *testing.T) hv.Hypervisor {
	t.Helper()
	m := hw.NewMachine(simtime.NewClock(), hw.M1())
	k, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func testConfig(name string) hv.Config {
	return hv.Config{Name: name, VCPUs: 2, MemBytes: 64 << 20, HugePages: true, Seed: 11}
}

func TestBootReservesHVState(t *testing.T) {
	k := bootKVM(t)
	counts := k.Machine().Mem.CountByOwner()
	if counts[hw.OwnerHV] != HVResidentBytes/hw.PageSize4K {
		t.Fatalf("HV frames = %d", counts[hw.OwnerHV])
	}
	if k.Kind() != hv.KindKVM || k.Name() != Version {
		t.Fatal("identity wrong")
	}
}

func TestCreateVMValidation(t *testing.T) {
	k := bootKVM(t)
	if _, err := k.CreateVM(hv.Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}

func TestMemslotsCoalesced(t *testing.T) {
	k := bootKVM(t)
	vm, _ := k.CreateVM(testConfig("slots"))
	n, err := Memslots(k, vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	// A fresh huge-page guest on an empty machine is physically
	// contiguous: one slot.
	if n != 1 {
		t.Fatalf("memslots = %d, want 1 for contiguous fresh guest", n)
	}
}

func TestKVMUISRRoundTripLossless(t *testing.T) {
	k := bootKVM(t)
	vm, _ := k.CreateVM(testConfig("rt"))
	k.Pause(vm.ID)
	st1, err := k.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SourceHypervisor != "kvm" {
		t.Fatalf("source = %q", st1.SourceHypervisor)
	}
	if st1.IOAPIC.NumPins != uisr.KVMIOAPICPins {
		t.Fatalf("pins = %d, want 24", st1.IOAPIC.NumPins)
	}
	restored, err := k.RestoreUISR(st1, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := k.SaveUISR(restored.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2.VMID = st1.VMID
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("KVM→UISR→KVM round trip is lossy")
	}
}

func TestSaveUISRRequiresPause(t *testing.T) {
	k := bootKVM(t)
	vm, _ := k.CreateVM(testConfig("p"))
	if _, err := k.SaveUISR(vm.ID); err == nil {
		t.Fatal("save of running VM accepted")
	}
}

func TestIOAPICNarrowingFix(t *testing.T) {
	// Xen-sourced UISR: 48 pins. KVM restore must disconnect the top 24
	// (§4.2.1, Xen→KVM direction).
	st := uisr.SyntheticVM("wide", 1, 1, 64<<20, 5)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	var io kvmIOAPIC
	dropped := ioapicFromUISR(&st.IOAPIC, &io)
	if dropped != uisr.XenIOAPICPins-uisr.KVMIOAPICPins {
		t.Fatalf("dropped = %d, want 24", dropped)
	}
	for p := 0; p < uisr.KVMIOAPICPins; p++ {
		if io.Redir[p] != st.IOAPIC.Redir[p] {
			t.Fatalf("pin %d changed", p)
		}
	}
}

func TestIOAPICPinsDroppedRecorded(t *testing.T) {
	k := bootKVM(t)
	st := uisr.SyntheticVM("wide", 1, 1, 64<<20, 5)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	vm, err := k.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	n, err := IOAPICPinsDropped(k, vm.ID)
	if err != nil || n != 24 {
		t.Fatalf("pins dropped = %d, %v", n, err)
	}
}

func TestMTRRLivesInMSRArray(t *testing.T) {
	// The Table 2 mapping: UISR MTRR state must be encoded as
	// architectural MSRs inside KVM's MSR array.
	st := uisr.SyntheticVM("m", 1, 1, 64<<20, 9)
	var vs vcpuState
	vcpuFromUISR(&st.VCPUs[0], &vs)
	found := map[uint32]uint64{}
	for _, e := range vs.msrs {
		found[e.Index] = e.Value
	}
	if _, ok := found[msrMTRRCap]; !ok {
		t.Fatal("MTRRcap not in MSR array")
	}
	if _, ok := found[msrMTRRDefType]; !ok {
		t.Fatal("MTRRdefType not in MSR array")
	}
	if _, ok := found[msrAPICBase]; !ok {
		t.Fatal("APIC base not in MSR array")
	}
	if found[msrMTRRPhysBase0] != st.VCPUs[0].MTRR.VarBase[0] {
		t.Fatal("variable MTRR base mismatch")
	}
	// And the count: generic + APIC base + 29 MTRR MSRs
	// (cap, defType, 11 fixed, 16 variable).
	want := len(st.VCPUs[0].MSRs) + 1 + 29
	if len(vs.msrs) != want {
		t.Fatalf("MSR array len = %d, want %d", len(vs.msrs), want)
	}
}

func TestMSRsToUISRRejectsForeignState(t *testing.T) {
	// An MSR array without MTRRdefType cannot have been produced by
	// from_uisr; the decoder must refuse rather than fabricate state.
	if _, _, _, err := msrsToUISR([]kvmMsrEntry{{Index: 0x10, Value: 1}}); err == nil {
		t.Fatal("foreign MSR array accepted")
	}
}

// Property: vCPU state converts UISR→KVM→UISR losslessly.
func TestPropertyVCPURoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		st := uisr.SyntheticVM("p", 1, 1, 64<<20, seed)
		orig := st.VCPUs[0]
		var vs vcpuState
		vcpuFromUISR(&orig, &vs)
		var back uisr.VCPU
		if err := vcpuToUISR(0, &vs, &back); err != nil {
			return false
		}
		return reflect.DeepEqual(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: segment attribute decomposition is invertible for all valid
// attribute words.
func TestPropertySegmentAttr(t *testing.T) {
	f := func(attrRaw uint16, sel uint16, limit uint32, base uint64) bool {
		s := uisr.Segment{Selector: sel, Attr: attrRaw & 0xf0ff, Limit: limit, Base: base}
		return segToUISR(segFromUISR(s)) == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: MTRR ↔ MSR encoding is invertible.
func TestPropertyMTRRRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		st := uisr.SyntheticVM("p", 1, 1, 64<<20, seed)
		m := st.VCPUs[0].MTRR
		entries := appendMTRR(nil, &m)
		entries = append(entries, kvmMsrEntry{Index: msrAPICBase, Value: 0xfee00800})
		back, generic, _, err := msrsToUISR(entries)
		if err != nil || len(generic) != 0 {
			return false
		}
		return reflect.DeepEqual(m, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreAdoptInPlace(t *testing.T) {
	k := bootKVM(t)
	vm, _ := k.CreateVM(testConfig("adopt"))
	vm.Guest.WriteWorkingSet(0, 32)
	g := vm.Guest
	k.Pause(vm.ID)
	st, err := k.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.MemMap, _ = k.MemExtents(vm.ID)
	if err := k.ReleaseVMState(vm.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := k.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt})
	if err != nil {
		t.Fatal(err)
	}
	if err := k.AttachGuest(restored.ID, g); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost: %v", err)
	}
}

func TestFootprintAndMgmt(t *testing.T) {
	k := bootKVM(t)
	vm, _ := k.CreateVM(testConfig("f"))
	fp, err := k.Footprint(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp.GuestBytes != 64<<20 || fp.VMStateBytes == 0 || fp.MgmtBytes == 0 {
		t.Fatalf("footprint wrong: %+v", fp)
	}
	if k.MgmtStateBytes() == 0 {
		t.Fatal("MgmtStateBytes zero")
	}
}

// Xen-sourced state carries HPET and PM-timer records; kvmtool emulates
// neither, so the restore path must drop them (recording the event) and
// never invent them back on save.
func TestPlatformTimerDrops(t *testing.T) {
	k := bootKVM(t)
	st := uisr.SyntheticVM("xen-born", 1, 1, 64<<20, 31)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	if !st.HasHPET || !st.HasPMTimer {
		t.Fatal("fixture missing timers")
	}
	vm, err := k.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	hpet, pmt, err := PlatformTimersDropped(k, vm.ID)
	if err != nil || !hpet || !pmt {
		t.Fatalf("drops = %v/%v, %v; want true/true", hpet, pmt, err)
	}
	back, err := k.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.HasHPET || back.HasPMTimer {
		t.Fatal("kvmtool fabricated platform timers")
	}
	// The RTC, which kvmtool does emulate, survives with its content.
	if back.RTC != st.RTC {
		t.Fatal("RTC state lost")
	}
	if _, _, err := PlatformTimersDropped(k, 99); err == nil {
		t.Fatal("unknown VM accepted")
	}
	// A VM held in another format is refused, not misread.
	x, err := xen.Boot(hw.NewMachine(simtime.NewClock(), hw.M1()))
	if err != nil {
		t.Fatal(err)
	}
	xvm, err := x.CreateVM(hv.Config{Name: "x", VCPUs: 1, MemBytes: 64 << 20, HugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := PlatformTimersDropped(x, xvm.ID); err == nil {
		t.Fatal("Xen domain read as a kvmtool process")
	}
}
