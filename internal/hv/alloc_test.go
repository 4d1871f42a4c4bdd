package hv_test

import (
	"testing"

	"hypertp/internal/hv"
)

// TestChassisAllocBudgets pins what one VM costs on the state chain's hv
// layer, per model: the native state, its UISR image and the chassis row
// are each built once into exact-size storage, so the counts below are
// small and grow with the vCPU count only, never with the MSR list or the
// device complement. A 16 MiB, huge-page VM — the fleet benchmark's — at
// 1 and 8 vCPUs; create+destroy is counted at 1.
func TestChassisAllocBudgets(t *testing.T) {
	// create+destroy, then save and restore+destroy at 1 and 8 vCPUs.
	budgets := map[string][5]float64{
		"xen":  {25, 7, 15, 24, 40},
		"kvm":  {19, 4, 9, 11, 16},
		"nova": {19, 4, 9, 11, 16},
	}
	forEachModel(t, 0, func(t *testing.T, h hv.Hypervisor) {
		want := budgets[h.Kind().String()]
		cfg := hv.Config{Name: "budget", VCPUs: 1, MemBytes: 16 << 20, HugePages: true, Seed: 7}
		if n := testing.AllocsPerRun(10, func() {
			vm, err := h.CreateVM(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				t.Fatal(err)
			}
		}); n > want[0] {
			t.Errorf("create+destroy allocated %v times per VM, budget %v", n, want[0])
		}
		for i, vcpus := range []int{1, 8} {
			cfg.VCPUs = vcpus
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
			if save > want[1+2*i] || restore > want[2+2*i] {
				t.Errorf("%d vCPUs: save allocated %v times, restore+destroy %v; budgets %v, %v",
					vcpus, save, restore, want[1+2*i], want[2+2*i])
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				t.Fatal(err)
			}
		}

		// Counting and visiting the VM table allocate nothing, given a
		// visitor built once.
		if _, err := h.CreateVM(cfg); err != nil {
			t.Fatal(err)
		}
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
