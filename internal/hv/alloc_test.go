package hv_test

import (
	"testing"

	"hypertp/internal/hv"
)

// TestChassisAllocBudgets pins what one VM costs on the state chain's hv
// layer, per model: the native state, its UISR image and the chassis row
// are each built once into exact-size storage, so the counts below are
// small and do not grow with the MSR list or the device complement.
// A 1-vCPU, 16 MiB, huge-page VM — the fleet benchmark's.
func TestChassisAllocBudgets(t *testing.T) {
	// create+destroy, save, restore+destroy.
	budgets := map[string][3]float64{
		"xen":  {27, 7, 17},
		"kvm":  {20, 4, 10},
		"nova": {20, 4, 10},
	}
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		cfg := hv.Config{Name: "budget", VCPUs: 1, MemBytes: 16 << 20, HugePages: true, Seed: 7}
		create := testing.AllocsPerRun(10, func() {
			vm, err := h.CreateVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				t.Fatal(err)
			}
		})
		vm, err := h.CreateVM(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := h.Pause(vm.ID); err != nil {
			t.Fatal(err)
		}
		st, err := h.SaveUISR(vm.ID)
		if err != nil {
			t.Fatal(err)
		}
		save := testing.AllocsPerRun(10, func() {
			if _, err := h.SaveUISR(vm.ID); err != nil {
				t.Fatal(err)
			}
		})
		restore := testing.AllocsPerRun(10, func() {
			vm, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				t.Fatal(err)
			}
		})
		want := budgets[h.Kind().String()]
		if create > want[0] || save > want[1] || restore > want[2] {
			t.Fatalf("allocations per VM: create+destroy %v, save %v, restore+destroy %v; budgets %v", create, save, restore, want)
		}

		// Counting and visiting the VM table allocate nothing, given a
		// visitor built once.
		vcpus := 0
		visit := func(vm *hv.VM) bool { vcpus += vm.Config.VCPUs; return true }
		if n := testing.AllocsPerRun(10, func() {
			if h.VMCount() != 1 {
				t.Fatal("VMCount")
			}
			h.EachVM(visit)
		}); n != 0 || vcpus == 0 {
			t.Fatalf("VMCount+EachVM allocated %v times per call, visited %d vCPUs", n, vcpus)
		}
	})
}
