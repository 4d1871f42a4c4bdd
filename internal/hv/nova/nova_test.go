package nova

import (
	"reflect"
	"testing"
	"testing/quick"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

func bootNOVA(t *testing.T) hv.Hypervisor {
	t.Helper()
	m := hw.NewMachine(simtime.NewClock(), hw.M1())
	n, err := Boot(m)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func testConfig(name string) hv.Config {
	return hv.Config{Name: name, VCPUs: 2, MemBytes: 64 << 20, HugePages: true, Seed: 13}
}

func TestBootSmallResidentSet(t *testing.T) {
	n := bootNOVA(t)
	counts := n.Machine().Mem.CountByOwner()
	if counts[hw.OwnerHV] != HVResidentBytes/hw.PageSize4K {
		t.Fatalf("HV frames = %d", counts[hw.OwnerHV])
	}
	if n.Kind() != hv.KindNOVA || n.Name() != Version {
		t.Fatal("identity wrong")
	}
	// The microhypervisor's point: its resident set is a fraction of
	// the monolithic stacks'.
	if HVResidentBytes >= 192<<20 {
		t.Fatal("microhypervisor not smaller than Xen+dom0")
	}
}

func TestNOVAUISRRoundTripLossless(t *testing.T) {
	n := bootNOVA(t)
	vm, _ := n.CreateVM(testConfig("rt"))
	n.Pause(vm.ID)
	st1, err := n.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st1.SourceHypervisor != "nova" {
		t.Fatalf("source = %q", st1.SourceHypervisor)
	}
	if st1.HasPIT || st1.HasHPET || st1.HasPMTimer {
		t.Fatal("microhypervisor reported legacy timers")
	}
	restored, err := n.RestoreUISR(st1, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	st2, err := n.SaveUISR(restored.ID)
	if err != nil {
		t.Fatal(err)
	}
	st2.VMID = st1.VMID
	if !reflect.DeepEqual(st1, st2) {
		t.Fatal("NOVA→UISR→NOVA round trip is lossy")
	}
}

func TestSaveRequiresPause(t *testing.T) {
	n := bootNOVA(t)
	vm, _ := n.CreateVM(testConfig("p"))
	if _, err := n.SaveUISR(vm.ID); err == nil {
		t.Fatal("save of running VM accepted")
	}
}

// Restoring Xen-sourced state: the PIT, HPET and PM timer are all dropped
// (recorded), the 48-pin IOAPIC narrows to 24, and everything else is
// preserved.
func TestXenSourcedRestoreDrops(t *testing.T) {
	n := bootNOVA(t)
	st := uisr.SyntheticVM("xen-born", 1, 1, 64<<20, 17)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	vm, err := n.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
	if err != nil {
		t.Fatal(err)
	}
	pit, hpet, pmt, err := PlatformDrops(n, vm.ID)
	if err != nil || !pit || !hpet || !pmt {
		t.Fatalf("drops = %v/%v/%v, %v", pit, hpet, pmt, err)
	}
	back, err := n.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if back.HasPIT || back.HasHPET || back.HasPMTimer {
		t.Fatal("NOVA fabricated legacy timers")
	}
	if back.IOAPIC.NumPins != uisr.KVMIOAPICPins {
		t.Fatalf("pins = %d", back.IOAPIC.NumPins)
	}
	if back.RTC != st.RTC {
		t.Fatal("RTC lost")
	}
	// vCPU architectural state intact despite the UTCB re-layout.
	if !reflect.DeepEqual(back.VCPUs[0].Regs, st.VCPUs[0].Regs) {
		t.Fatal("GP registers changed crossing the UTCB format")
	}
	if !reflect.DeepEqual(back.VCPUs[0].SRegs, st.VCPUs[0].SRegs) {
		t.Fatal("system registers changed")
	}
	if !reflect.DeepEqual(back.VCPUs[0].MSRs, st.VCPUs[0].MSRs) {
		t.Fatal("MSR list changed")
	}
	if _, _, _, err := PlatformDrops(n, 99); err == nil {
		t.Fatal("unknown VM accepted")
	}
}

// Property: UTCB conversion is lossless on the neutral vCPU state.
func TestPropertyUTCBRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		st := uisr.SyntheticVM("p", 1, 1, 64<<20, seed)
		orig := st.VCPUs[0]
		var u utcb
		utcbFromUISR(&orig, &u)
		var back uisr.VCPU
		if err := utcbToUISR(0, &u, &back); err != nil {
			return false
		}
		return reflect.DeepEqual(orig, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestUTCBIncompleteMtdRejected(t *testing.T) {
	st := uisr.SyntheticVM("p", 1, 1, 64<<20, 1)
	var u utcb
	utcbFromUISR(&st.VCPUs[0], &u)
	u.Mtd &^= mtdMSRs
	if err := utcbToUISR(0, &u, new(uisr.VCPU)); err == nil {
		t.Fatal("incomplete UTCB accepted")
	}
}

func TestAdoptRestorePreservesGuest(t *testing.T) {
	n := bootNOVA(t)
	vm, _ := n.CreateVM(testConfig("adopt"))
	vm.Guest.WriteWorkingSet(0, 48)
	g := vm.Guest
	n.Pause(vm.ID)
	st, err := n.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	st.MemMap, _ = n.MemExtents(vm.ID)
	if err := n.ReleaseVMState(vm.ID); err != nil {
		t.Fatal(err)
	}
	restored, err := n.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt})
	if err != nil {
		t.Fatal(err)
	}
	if err := n.AttachGuest(restored.ID, g); err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestFootprintAndDirtyLog(t *testing.T) {
	n := bootNOVA(t)
	vm, _ := n.CreateVM(testConfig("f"))
	fp, err := n.Footprint(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if fp.GuestBytes != 64<<20 || fp.VMStateBytes == 0 || fp.MgmtBytes == 0 {
		t.Fatalf("footprint = %+v", fp)
	}
	if n.MgmtStateBytes() == 0 {
		t.Fatal("MgmtStateBytes zero")
	}
	if err := n.EnableDirtyLog(vm.ID); err != nil {
		t.Fatal(err)
	}
	vm.Guest.Write(4, 0, []byte{1})
	dirty, err := n.FetchAndClearDirty(vm.ID)
	if err != nil || len(dirty) != 1 {
		t.Fatalf("dirty = %v, %v", dirty, err)
	}
	if err := n.DisableDirtyLog(vm.ID); err != nil {
		t.Fatal(err)
	}
	if err := n.EnableDirtyLog(99); err == nil {
		t.Fatal("unknown VM accepted")
	}
}

func TestMemExtentsMatchDPT(t *testing.T) {
	n := bootNOVA(t)
	vm, _ := n.CreateVM(testConfig("dpt"))
	extents, err := n.MemExtents(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(extents, vm.Space.Extents()) {
		t.Fatal("DPT does not match the address space")
	}
}
