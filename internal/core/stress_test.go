package core

import (
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
)

// Ten consecutive transplants back and forth must neither leak frames nor
// corrupt guest state — the engine gives every ephemeral byte back.
func TestRepeatedTransplantsNoLeak(t *testing.T) {
	b := newBench(t, hw.M1())
	h := b.bootWithVMs(t, hv.KindXen, 2, 1, 1)
	for _, vm := range h.VMs() {
		vm.Guest.WriteWorkingSet(hw.GFN(int(vm.ID)*5), 100)
	}
	guests := make(map[string]interface{ Verify() error })
	for _, vm := range h.VMs() {
		guests[vm.Config.Name] = vm.Guest
	}

	// Snapshot the steady-state frame census after the first transplant
	// (the Xen and KVM resident sets differ, so compare like with like).
	var xenFrames, kvmFrames uint64
	targets := []hv.Kind{hv.KindKVM, hv.KindXen}
	for i := 0; i < 10; i++ {
		target := targets[i%2]
		var err error
		h, _, err = b.engine.InPlace(h, target, DefaultOptions())
		if err != nil {
			t.Fatalf("transplant %d: %v", i, err)
		}
		alloc := b.m.Mem.AllocatedFrames()
		if target == hv.KindKVM {
			if kvmFrames == 0 {
				kvmFrames = alloc
			} else if alloc != kvmFrames {
				t.Fatalf("transplant %d: KVM-side frames %d, steady state %d (leak)",
					i, alloc, kvmFrames)
			}
		} else {
			if xenFrames == 0 {
				xenFrames = alloc
			} else if alloc != xenFrames {
				t.Fatalf("transplant %d: Xen-side frames %d, steady state %d (leak)",
					i, alloc, xenFrames)
			}
		}
		for name, g := range guests {
			if err := g.Verify(); err != nil {
				t.Fatalf("transplant %d: guest %s: %v", i, name, err)
			}
		}
		counts := b.m.Mem.CountByOwner()
		if counts[hw.OwnerPRAM] != 0 || counts[hw.OwnerKexecImage] != 0 {
			t.Fatalf("transplant %d: ephemeral frames leaked: %v", i, counts)
		}
	}
}

// A machine too full for the target kexec image must fail the transplant
// up front, before any VM is paused.
func TestInPlaceFailsWhenNoRoomForImage(t *testing.T) {
	b := newBench(t, hw.M1())
	h, err := b.engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	// One VM, then fill the rest of RAM so the image cannot stage.
	vm, err := h.CreateVM(hv.Config{
		Name: "vm", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	free := b.m.Mem.FreeFrames()
	if _, err := b.m.Mem.AllocRanges(int(free)-100, hw.OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := b.engine.InPlace(h, hv.KindKVM, DefaultOptions()); err == nil {
		t.Fatal("transplant succeeded without room for the kexec image")
	}
	// The VM was never paused: the failure happened at image staging.
	if vm.Paused() {
		t.Fatal("VM paused despite staging failure")
	}
}

// The engine must work at the machine's VM capacity limit: M1 hosting 12
// x 1 GiB VMs (the paper's maximum for that machine).
func TestInPlaceAtCapacity(t *testing.T) {
	b := newBench(t, hw.M1())
	h := b.bootWithVMs(t, hv.KindXen, 12, 1, 1)
	dst, rep, err := b.engine.InPlace(h, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(dst.VMs()) != 12 || len(rep.VMs) != 12 {
		t.Fatal("VM count wrong at capacity")
	}
}

// Mixed VM shapes in one transplant: sizes, vCPU counts and passthrough
// all at once.
func TestInPlaceHeterogeneousVMMix(t *testing.T) {
	b := newBench(t, hw.M1())
	h, err := b.engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []hv.Config{
		{Name: "tiny", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1},
		{Name: "wide", VCPUs: 8, MemBytes: 2 << 30, HugePages: true, Seed: 2},
		{Name: "tall", VCPUs: 2, MemBytes: 6 << 30, HugePages: true, Seed: 3},
		{Name: "gpu", VCPUs: 2, MemBytes: 1 << 30, HugePages: true, Seed: 4,
			PassthroughDevices: []string{"gpu0"}},
	}
	for _, cfg := range shapes {
		vm, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		vm.Guest.WriteWorkingSet(0, 64)
	}
	dst, rep, err := b.engine.InPlace(h, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.VMs) != 4 {
		t.Fatalf("transplanted %d VMs", len(rep.VMs))
	}
	for _, vm := range dst.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatalf("VM %s: %v", vm.Config.Name, err)
		}
		if !vm.Guest.AllDriversRunning() {
			t.Fatalf("VM %s drivers not running", vm.Config.Name)
		}
	}
}

// 4K-backed (non-huge) guests transplant correctly too, just with more
// PRAM metadata.
func TestInPlaceWith4KGuests(t *testing.T) {
	b := newBench(t, hw.M1())
	h, err := b.engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(hv.Config{
		Name: "small-pages", VCPUs: 1, MemBytes: 64 << 20, HugePages: false, Seed: 9,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 128)
	g := vm.Guest
	dst, rep, err := b.engine.InPlace(h, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	// 64 MiB at 4K granularity: 16384 entries x 8 B ≈ 128 KiB of PRAM
	// versus ~16 KiB for a huge-backed guest.
	if rep.PRAMMetadataBytes < 100<<10 {
		t.Fatalf("PRAM metadata = %d, want ≳128 KiB for 4K guest", rep.PRAMMetadataBytes)
	}
	if len(dst.VMs()) != 1 {
		t.Fatal("VM lost")
	}
}
