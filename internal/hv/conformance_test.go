package hv_test

import (
	"errors"
	"reflect"
	"testing"

	"hypertp/internal/guest"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

// The conformance table: what every hypervisor model must do whatever its
// state format — the chassis contract, checked through each model's own
// Boot. Format behaviour (round trips, compatibility fixes, codecs) is
// tested in the model packages.

func conformanceConfig(name string) hv.Config {
	return hv.Config{Name: name, VCPUs: 2, MemBytes: 64 << 20, HugePages: true, Seed: 7}
}

// forEachModel runs fn once per hypervisor model on a freshly booted host
// with ramBytes of memory (0: the M1 profile's own).
func forEachModel(t *testing.T, ramBytes uint64, fn func(t *testing.T, h hv.Hypervisor)) {
	for _, s := range spokes {
		t.Run(s.name, func(t *testing.T) {
			prof := hw.M1()
			if ramBytes != 0 {
				prof.RAMBytes = ramBytes
			}
			h, err := s.boot(hw.NewMachine(simtime.NewClock(), prof))
			if err != nil {
				t.Fatal(err)
			}
			if h.Kind().String() != s.name || h.Name() == "" || h.Machine() == nil {
				t.Fatalf("identity wrong: kind %v name %q", h.Kind(), h.Name())
			}
			fn(t, h)
		})
	}
}

func mustCreate(t *testing.T, h hv.Hypervisor, name string) *hv.VM {
	t.Helper()
	vm, err := h.CreateVM(conformanceConfig(name))
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func vmIDs(h hv.Hypervisor) []hv.VMID {
	var ids []hv.VMID
	for _, vm := range h.VMs() {
		ids = append(ids, vm.ID)
	}
	return ids
}

// savedForAdopt pauses vm and captures what an in-place restore needs:
// its UISR state with the memory map, and its guest.
func savedForAdopt(t *testing.T, h hv.Hypervisor, vm *hv.VM) (*uisr.VMState, *guest.Guest) {
	t.Helper()
	if err := h.Pause(vm.ID); err != nil {
		t.Fatal(err)
	}
	st, err := h.SaveUISR(vm.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st.MemMap, err = h.MemExtents(vm.ID); err != nil {
		t.Fatal(err)
	}
	return st, vm.Guest
}

func TestConformanceLifecycle(t *testing.T) {
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		mem := h.Machine().Mem
		before := mem.AllocatedFrames()
		a, b, c := mustCreate(t, h, "a"), mustCreate(t, h, "b"), mustCreate(t, h, "c")
		if a.ID != 1 || b.ID != 2 || c.ID != 3 {
			t.Fatalf("ids = %d %d %d, want 1 2 3", a.ID, b.ID, c.ID)
		}
		if a.Guest == nil || a.Paused() || a.Space.Bytes() != 64<<20 {
			t.Fatal("fresh VM state wrong")
		}
		counts := mem.CountByOwner()
		if counts[hw.OwnerGuest] != 3*(64<<20)/hw.PageSize4K || counts[hw.OwnerVMState] == 0 {
			t.Fatalf("frame census wrong: %v", counts)
		}
		if got, ok := h.LookupVM(b.ID); !ok || got != b {
			t.Fatal("lookup failed")
		}
		if _, ok := h.LookupVM(99); ok {
			t.Fatal("phantom VM found")
		}
		if got := h.VMs(); len(got) != 3 || got[0] != a || got[1] != b || got[2] != c {
			t.Fatalf("VMs() = %v, want a b c", got)
		}
		// The table stays in id order when a middle row goes and a new
		// one arrives; ids are never reused.
		if err := h.DestroyVM(b.ID); err != nil {
			t.Fatal(err)
		}
		if err := h.DestroyVM(b.ID); err == nil {
			t.Fatal("double destroy accepted")
		}
		d := mustCreate(t, h, "d")
		if got := vmIDs(h); !reflect.DeepEqual(got, []hv.VMID{1, 3, 4}) || d.ID != 4 {
			t.Fatalf("ids after destroy+create = %v", got)
		}
		for _, id := range vmIDs(h) {
			if err := h.DestroyVM(id); err != nil {
				t.Fatal(err)
			}
		}
		if got := mem.AllocatedFrames(); got != before || len(h.VMs()) != 0 {
			t.Fatalf("destroy leaked %d frames, %d VMs listed", got-before, len(h.VMs()))
		}
		if _, err := h.CreateVM(hv.Config{}); err == nil {
			t.Fatal("empty config accepted")
		}
	})
}

func TestConformanceUnknownID(t *testing.T) {
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		vm := mustCreate(t, h, "known")
		const ghost = hv.VMID(42)
		calls := map[string]func() error{
			"DestroyVM":          func() error { return h.DestroyVM(ghost) },
			"Pause":              func() error { return h.Pause(ghost) },
			"Resume":             func() error { return h.Resume(ghost) },
			"SaveUISR":           func() error { _, err := h.SaveUISR(ghost); return err },
			"MemExtents":         func() error { _, err := h.MemExtents(ghost); return err },
			"Footprint":          func() error { _, err := h.Footprint(ghost); return err },
			"EnableDirtyLog":     func() error { return h.EnableDirtyLog(ghost) },
			"DisableDirtyLog":    func() error { return h.DisableDirtyLog(ghost) },
			"FetchAndClearDirty": func() error { _, err := h.FetchAndClearDirty(ghost); return err },
			"AttachGuest":        func() error { return h.AttachGuest(ghost, vm.Guest) },
			"ReleaseVMState":     func() error { return h.ReleaseVMState(ghost) },
		}
		for name, call := range calls {
			if err := call(); err == nil {
				t.Errorf("%s(%d) accepted", name, ghost)
			}
		}
		if got := vmIDs(h); !reflect.DeepEqual(got, []hv.VMID{vm.ID}) {
			t.Fatalf("unknown-id calls changed the table: %v", got)
		}
	})
}

func TestConformancePauseAndSave(t *testing.T) {
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		vm := mustCreate(t, h, "p")
		if err := h.Resume(vm.ID); err == nil {
			t.Fatal("resume of a running VM accepted")
		}
		if _, err := h.SaveUISR(vm.ID); err == nil {
			t.Fatal("SaveUISR of a running VM accepted")
		}
		if err := h.Pause(vm.ID); err != nil || !vm.Paused() {
			t.Fatalf("pause: %v, paused=%v", err, vm.Paused())
		}
		if err := h.Pause(vm.ID); err == nil {
			t.Fatal("double pause accepted")
		}
		st, err := h.SaveUISR(vm.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Validate(); err != nil {
			t.Fatal(err)
		}
		if st.Name != "p" || st.VMID != uint32(vm.ID) || st.MemBytes != 64<<20 || !st.HugePages ||
			len(st.VCPUs) != 2 || st.SourceHypervisor != h.Kind().String() || st.Weight != uisr.DefaultWeight {
			t.Fatalf("saved identity wrong: %q id %d mem %d huge %v vcpus %d source %q weight %d",
				st.Name, st.VMID, st.MemBytes, st.HugePages, len(st.VCPUs), st.SourceHypervisor, st.Weight)
		}
		if err := h.Resume(vm.ID); err != nil || vm.Paused() {
			t.Fatalf("resume: %v, paused=%v", err, vm.Paused())
		}
	})
}

func TestConformanceDirtyLogAndFootprint(t *testing.T) {
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		a, b := mustCreate(t, h, "a"), mustCreate(t, h, "b")
		if err := h.EnableDirtyLog(a.ID); err != nil {
			t.Fatal(err)
		}
		a.Guest.Write(7, 0, []byte{1})
		a.Guest.Write(3, 0, []byte{1})
		if dirty, err := h.FetchAndClearDirty(a.ID); err != nil || !reflect.DeepEqual(dirty, []hw.GFN{3, 7}) {
			t.Fatalf("dirty = %v, %v; want [3 7]", dirty, err)
		}
		if dirty, _ := h.FetchAndClearDirty(a.ID); len(dirty) != 0 {
			t.Fatalf("dirty log not cleared: %v", dirty)
		}
		if err := h.DisableDirtyLog(a.ID); err != nil || a.Space.DirtyLogEnabled() {
			t.Fatalf("disable: %v", err)
		}

		var mgmt uint64
		for _, vm := range []*hv.VM{a, b} {
			fp, err := h.Footprint(vm.ID)
			if err != nil {
				t.Fatal(err)
			}
			if fp.GuestBytes != 64<<20 || fp.VMStateBytes == 0 || fp.VMStateBytes%hw.PageSize4K != 0 || fp.MgmtBytes == 0 {
				t.Fatalf("footprint wrong: %+v", fp)
			}
			mgmt += fp.MgmtBytes
		}
		if got := h.MgmtStateBytes(); got != mgmt {
			t.Fatalf("MgmtStateBytes = %d, per-VM sum %d", got, mgmt)
		}
		if vmState := h.Machine().Mem.CountByOwner()[hw.OwnerVMState]; vmState == 0 {
			t.Fatal("no VM_i State frames in the census")
		}
	})
}

func TestConformanceRestoreAdoptsInPlace(t *testing.T) {
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		vm := mustCreate(t, h, "adopt")
		vm.Guest.WriteWorkingSet(0, 32)
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			t.Fatal(err)
		}
		st, g := savedForAdopt(t, h, vm)
		guestFrames := h.Machine().Mem.CountByOwner()[hw.OwnerGuest]

		if _, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreMode(9)}); err == nil {
			t.Fatal("unknown restore mode accepted")
		}
		// Drop the VM_i State but keep guest memory, then adopt it back —
		// the InPlaceTP memory path in miniature.
		if err := h.ReleaseVMState(vm.ID); err != nil {
			t.Fatal(err)
		}
		counts := h.Machine().Mem.CountByOwner()
		if counts[hw.OwnerVMState] != 0 || counts[hw.OwnerGuest] != guestFrames || len(h.VMs()) != 0 {
			t.Fatalf("ReleaseVMState left %d state frames, %d guest frames, %d VMs",
				counts[hw.OwnerVMState], counts[hw.OwnerGuest], len(h.VMs()))
		}
		restored, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt, InPlaceCompatible: true})
		if err != nil {
			t.Fatal(err)
		}
		if !restored.Paused() || restored.Guest != nil || !restored.Config.InPlaceCompatible || restored.ID == vm.ID {
			t.Fatalf("restored VM: paused=%v guest=%v cfg=%+v", restored.Paused(), restored.Guest, restored.Config)
		}
		extents, _ := h.MemExtents(restored.ID)
		if !reflect.DeepEqual(extents, st.MemMap) {
			t.Fatal("adopt restore moved guest memory")
		}
		if owner, id := h.Machine().Mem.OwnerOf(hw.MFN(extents.Extents()[0].MFN)); owner != hw.OwnerGuest || id != int(restored.ID) {
			t.Fatalf("adopted frame tagged %v/%d", owner, id)
		}
		if got, err := restored.Space.ChecksumAll(); err != nil || got != sum {
			t.Fatalf("guest checksum %#x, want %#x (%v)", got, sum, err)
		}
		if err := h.AttachGuest(restored.ID, g); err != nil {
			t.Fatal(err)
		}
		if err := g.Verify(); err != nil || restored.Guest != g {
			t.Fatalf("guest state lost: %v", err)
		}

		nomap := uisr.SyntheticVM("nomap", 1, 1, 64<<20, 1)
		if _, err := h.RestoreUISR(nomap, hv.RestoreOptions{Mode: hv.RestoreAdopt}); err == nil {
			t.Fatal("adopt without memory map accepted")
		}
		if _, err := h.RestoreUISR(&uisr.VMState{}, hv.RestoreOptions{Mode: hv.RestoreAllocate}); err == nil {
			t.Fatal("invalid UISR state accepted")
		}
	})
}

// A restore that fails after guest memory was attached (here: the VM_i
// State frames do not fit) must release everything it took, or every
// failed restore retry leaks a VM's worth of frames. It still uses its id
// up: ids are never handed out twice.
func TestConformanceFailedRestoreLeaksNothing(t *testing.T) {
	const ram = 512 << 20
	t.Run("allocate", func(t *testing.T) {
		forEachModel(t, ram, func(t *testing.T, h hv.Hypervisor) {
			mem := h.Machine().Mem
			free := mem.FreeFrames()
			// The guest image exactly fills free memory: the address
			// space allocates, the state frames afterwards cannot.
			st := uisr.SyntheticVM("too-big", 1, 2, free*hw.PageSize4K, 11)
			if _, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate}); err == nil {
				t.Fatal("restore with no room for VM state succeeded")
			}
			if got := mem.FreeFrames(); got != free {
				t.Fatalf("failed restore leaked %d frames", free-got)
			}
			if vs := mem.AuditOwners(map[int]bool{}); vs != nil {
				t.Fatalf("failed restore left violations: %v", vs)
			}
			ok := uisr.SyntheticVM("fits", 2, 1, 64<<20, 12)
			vm, err := h.RestoreUISR(ok, hv.RestoreOptions{Mode: hv.RestoreAllocate})
			if err != nil {
				t.Fatal(err)
			}
			if vm.ID != 2 {
				t.Fatalf("id after a failed restore = %d, want 2", vm.ID)
			}
		})
	})
	t.Run("adopt", func(t *testing.T) {
		forEachModel(t, ram, func(t *testing.T, h hv.Hypervisor) {
			mem := h.Machine().Mem
			vm := mustCreate(t, h, "adopt")
			vm.Guest.WriteWorkingSet(0, 16)
			st, g := savedForAdopt(t, h, vm)
			if err := h.ReleaseVMState(vm.ID); err != nil {
				t.Fatal(err)
			}
			// Something else takes every free frame: the adopt succeeds,
			// the state frames cannot be allocated.
			filler, err := mem.AllocRanges(int(mem.FreeFrames()), hw.OwnerHV, -1)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt}); err == nil {
				t.Fatal("restore with no room for VM state succeeded")
			}
			// Adopted memory is not released: it stays guest-owned, with
			// its contents, for the restore retry.
			if mem.FreeFrames() != 0 || mem.CountByOwner()[hw.OwnerGuest] != (64<<20)/hw.PageSize4K {
				t.Fatalf("failed adopt changed the census: %v", mem.CountByOwner())
			}
			if err := mem.FreeRanges(filler); err != nil {
				t.Fatal(err)
			}
			restored, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAdopt})
			if err != nil {
				t.Fatal(err)
			}
			if restored.ID != 3 {
				t.Fatalf("id after a failed restore = %d, want 3", restored.ID)
			}
			if err := h.AttachGuest(restored.ID, g); err != nil {
				t.Fatal(err)
			}
			if err := g.Verify(); err != nil {
				t.Fatalf("guest state lost across the failed adopt: %v", err)
			}
			if vs := mem.AuditOwners(map[int]bool{int(restored.ID): true}); vs != nil {
				t.Fatalf("violations after the retry: %v", vs)
			}
		})
	})
}

// The ReHype fail-stop model: after Crash and after Hang every
// control-plane operation fails with class ErrHypervisorCrashed while the
// salvage reads emergency recovery is built on keep working.
func TestConformanceCrashMatrix(t *testing.T) {
	for _, mode := range []string{"crash", "hang"} {
		t.Run(mode, func(t *testing.T) {
			forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
				running, paused := mustCreate(t, h, "running"), mustCreate(t, h, "paused")
				if err := h.Pause(paused.ID); err != nil {
					t.Fatal(err)
				}
				if err := h.EnableDirtyLog(running.ID); err != nil {
					t.Fatal(err)
				}
				if h.Crashed() || h.Hung() || h.CrashReason() != "" {
					t.Fatal("healthy hypervisor reports a failure")
				}

				fail := h.Crash
				if mode == "hang" {
					fail = h.Hang
				}
				if !fail("first") {
					t.Fatal("first failure not reported as the failing call")
				}
				// First failure wins. (Crash on a hung hypervisor is its
				// fence, so the hang row only retries Hang here.)
				if h.Hang("second") || (mode == "crash" && h.Crash("third")) {
					t.Fatal("a later failure won over the first")
				}
				if h.Crashed() != (mode == "crash") || h.Hung() != (mode == "hang") || h.CrashReason() != "first" {
					t.Fatalf("state: crashed=%v hung=%v reason=%q", h.Crashed(), h.Hung(), h.CrashReason())
				}
				for _, vm := range h.VMs() {
					if !vm.Paused() {
						t.Fatalf("VM %d not frozen", vm.ID)
					}
				}

				st := uisr.SyntheticVM("late", 9, 1, 64<<20, 3)
				barriered := map[string]func() error{
					"CreateVM":       func() error { _, err := h.CreateVM(conformanceConfig("late")); return err },
					"RestoreUISR":    func() error { _, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate}); return err },
					"DestroyVM":      func() error { return h.DestroyVM(running.ID) },
					"Pause":          func() error { return h.Pause(running.ID) },
					"Resume":         func() error { return h.Resume(paused.ID) },
					"EnableDirtyLog": func() error { return h.EnableDirtyLog(paused.ID) },
					"AttachGuest":    func() error { return h.AttachGuest(running.ID, running.Guest) },
				}
				check := func() {
					t.Helper()
					for name, call := range barriered {
						if err := call(); !errors.Is(err, hterr.ErrHypervisorCrashed) {
							t.Errorf("%s on a downed hypervisor: %v, want class ErrHypervisorCrashed", name, err)
						}
					}
				}
				check()
				if mode == "hang" {
					h.Fence("fenced")
					if h.Crash("late") {
						t.Fatal("crash after the fence reported as the failing call")
					}
					if !h.Crashed() || h.Hung() || h.CrashReason() != "first" {
						t.Fatalf("after fence: crashed=%v hung=%v reason=%q", h.Crashed(), h.Hung(), h.CrashReason())
					}
					check()
				}
				if got := vmIDs(h); !reflect.DeepEqual(got, []hv.VMID{running.ID, paused.ID}) {
					t.Fatalf("barriered calls changed the table: %v", got)
				}

				// Salvage: the frozen structures stay readable and can be
				// torn down.
				for _, vm := range []*hv.VM{running, paused} {
					if got, ok := h.LookupVM(vm.ID); !ok || got != vm {
						t.Fatal("lookup failed on a downed hypervisor")
					}
					if _, err := h.SaveUISR(vm.ID); err != nil {
						t.Fatalf("SaveUISR on a downed hypervisor: %v", err)
					}
					if ext, err := h.MemExtents(vm.ID); err != nil || ext.Len() == 0 {
						t.Fatalf("MemExtents on a downed hypervisor: %v", err)
					}
					if _, err := h.Footprint(vm.ID); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := h.FetchAndClearDirty(running.ID); err != nil {
					t.Fatal(err)
				}
				if err := h.DisableDirtyLog(running.ID); err != nil {
					t.Fatal(err)
				}
				if h.MgmtStateBytes() == 0 {
					t.Fatal("MgmtStateBytes zero on a downed hypervisor")
				}
				for _, vm := range []*hv.VM{running, paused} {
					if err := h.ReleaseVMState(vm.ID); err != nil {
						t.Fatalf("ReleaseVMState on a downed hypervisor: %v", err)
					}
				}
				if n := h.Machine().Mem.CountByOwner()[hw.OwnerVMState]; n != 0 || len(h.VMs()) != 0 {
					t.Fatalf("salvage teardown left %d state frames, %d VMs", n, len(h.VMs()))
				}
			})
		})
	}
}
