package kexec

import (
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/pram"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

func newMachine() *hw.Machine {
	return hw.NewMachine(simtime.NewClock(), hw.M1())
}

func TestLoadImage(t *testing.T) {
	m := newMachine()
	img, err := Load(m, hv.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	if img.Bytes != KVMImageBytes {
		t.Fatalf("image size = %d", img.Bytes)
	}
	counts := m.Mem.CountByOwner()
	if counts[hw.OwnerKexecImage] != KVMImageBytes/hw.PageSize4K {
		t.Fatalf("image frames = %d", counts[hw.OwnerKexecImage])
	}
	got := make([]byte, 15)
	err = m.Mem.ReadInto(img.Ranges[0].Start, 0, got)
	if err != nil || string(got) != "KEXEC-IMAGE:kvm" {
		t.Fatalf("stamp = %q, %v", got, err)
	}
}

func TestXenImageLargerThanKVM(t *testing.T) {
	// The Xen payload carries two kernels (hypervisor + dom0) — the
	// asymmetry behind Fig. 10.
	if XenImageBytes <= KVMImageBytes {
		t.Fatal("Xen image not larger than KVM image")
	}
}

func TestLoadRejectsUnknownKind(t *testing.T) {
	if _, err := Load(newMachine(), hv.Kind(99)); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

func TestUnload(t *testing.T) {
	m := newMachine()
	before := m.Mem.AllocatedFrames()
	img, _ := Load(m, hv.KindXen)
	if err := img.Unload(m); err != nil {
		t.Fatal(err)
	}
	if m.Mem.AllocatedFrames() != before {
		t.Fatal("image frames leaked")
	}
	if err := img.Unload(m); err == nil {
		t.Fatal("double unload accepted")
	}
}

func TestCmdlineRoundTrip(t *testing.T) {
	cmdline := FormatCmdline(hw.MFN(0x1234))
	ptr, err := ParseCmdline(cmdline)
	if err != nil {
		t.Fatal(err)
	}
	if ptr != 0x1234 {
		t.Fatalf("ptr = %#x", uint64(ptr))
	}
}

func TestParseCmdlineErrors(t *testing.T) {
	if _, err := ParseCmdline("console=ttyS0"); err == nil {
		t.Fatal("missing pram param accepted")
	}
	if _, err := ParseCmdline("pram=zzz"); err == nil {
		t.Fatal("garbage pram value accepted")
	}
}

func TestExecWithoutImageFails(t *testing.T) {
	m := newMachine()
	if _, err := Exec(m, nil, 0, nil); err == nil {
		t.Fatal("Exec without image accepted")
	}
	img, _ := Load(m, hv.KindKVM)
	img.Unload(m)
	if _, err := Exec(m, img, 0, nil); err == nil {
		t.Fatal("Exec with unloaded image accepted")
	}
}

// The full preservation contract: guest memory recorded in PRAM survives
// the reboot bit-for-bit; everything else is wiped.
func TestExecPreservationContract(t *testing.T) {
	m := newMachine()

	// HV state that must die.
	hvFrames, _ := m.Mem.AllocRanges(100, hw.OwnerHV, -1)
	m.Mem.Write(hvFrames[0].Start, 0, []byte("hypervisor secret"))

	// Guest memory that must survive.
	base, err := m.Mem.Alloc2M(hw.OwnerGuest, 1)
	if err != nil {
		t.Fatal(err)
	}
	m.Mem.Write(base+7, 123, []byte("precious guest bytes"))
	sumBefore, _ := m.Mem.Checksum(base + 7)

	// A guest frame NOT recorded in PRAM: must be wiped (the contract
	// is explicit preservation, not owner-tag based).
	orphan, _ := m.Mem.AllocRanges(1, hw.OwnerGuest, 2)
	m.Mem.Write(orphan[0].Start, 0, []byte("forgotten"))

	ps, err := pram.Build(m.Mem, []pram.File{{
		Name: "vm1", VMID: 1,
		Extents: uisr.NewMemMap([]uisr.PageExtent{{GFN: 0, MFN: uint64(base), Order: 9}}),
	}}, pram.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, _ := Load(m, hv.KindKVM)
	res, err := Exec(m, img, ps.Pointer, ps.FrameRanges())
	if err != nil {
		t.Fatal(err)
	}
	if res.WipedFrames == 0 {
		t.Fatal("nothing wiped")
	}
	if m.Generation() != 1 {
		t.Fatalf("generation = %d", m.Generation())
	}

	// Guest bytes intact.
	sumAfter, err := m.Mem.Checksum(base + 7)
	if err != nil || sumAfter != sumBefore {
		t.Fatalf("guest frame corrupted: %v", err)
	}
	// HV state gone.
	if err := m.Mem.ReadInto(hvFrames[0].Start, 0, make([]byte, 1)); err == nil {
		t.Fatal("HV frame survived")
	}
	// Orphan guest frame gone — PRAM is the source of truth.
	if err := m.Mem.ReadInto(orphan[0].Start, 0, make([]byte, 1)); err == nil {
		t.Fatal("unrecorded guest frame survived")
	}
	// PRAM metadata itself must survive so the new kernel can parse it.
	ptr, err := ParseCmdline(m.Cmdline)
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := pram.Parse(m.Mem, ptr)
	if err != nil {
		t.Fatalf("PRAM lost across reboot: %v", err)
	}
	if len(parsed.Files) != 1 || parsed.Files[0].Name != "vm1" {
		t.Fatal("PRAM content wrong after reboot")
	}
	// Image frames were retagged as HV state for the new kernel.
	if owner, _ := m.Mem.OwnerOf(img.Ranges[0].Start); owner != hw.OwnerHV {
		t.Fatalf("image frame owner = %v after boot", owner)
	}
}

func TestExecPreservedFramesAccounting(t *testing.T) {
	m := newMachine()
	base, _ := m.Mem.Alloc2M(hw.OwnerGuest, 1)
	ps, err := pram.Build(m.Mem, []pram.File{{
		Name: "vm", VMID: 1,
		Extents: uisr.NewMemMap([]uisr.PageExtent{{GFN: 0, MFN: uint64(base), Order: 9}}),
	}}, pram.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	img, _ := Load(m, hv.KindKVM)
	res, err := Exec(m, img, ps.Pointer, ps.FrameRanges())
	if err != nil {
		t.Fatal(err)
	}
	want := uint64(hw.FramesPer2M) + hw.CountFrames(ps.MetaFrames) + KVMImageBytes/hw.PageSize4K
	if res.PreservedFrames != want {
		t.Fatalf("preserved = %d frames, want %d", res.PreservedFrames, want)
	}
}
