package hv_test

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hypertp/internal/guest"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
)

// raceEnabled is set under the race detector (race_test.go).
var raceEnabled bool

// heapBytesPerRun is the heap bytes one call of f allocates: the least of
// three trials of runs calls, so a one-off runtime allocation landing in
// a trial is not counted as f's.
func heapBytesPerRun(runs int, f func()) uint64 {
	least := ^uint64(0)
	for range 3 {
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for range runs {
			f()
		}
		runtime.ReadMemStats(&ms1)
		least = min(least, (ms1.TotalAlloc-ms0.TotalAlloc)/uint64(runs))
	}
	return least
}

// TestChassisAllocBudgets pins what one VM costs on the state chain's hv
// layer, per model: the native state, its UISR image and the chassis row
// are each built once into exact-size storage, so the counts below are
// small and grow with the vCPU count only, never with the MSR list or the
// device complement. A 16 MiB, huge-page VM — the fleet benchmark's — at
// 1 and 8 vCPUs; create+destroy is counted at 1. Xen's save and
// restore+destroy are pinned in heap bytes too: a domain keeps its
// context parsed, so a save parses nothing, and a restore marshals the
// context straight into the domain's frames.
func TestChassisAllocBudgets(t *testing.T) {
	// create+destroy, then save and restore+destroy at 1 and 8 vCPUs.
	budgets := map[string][5]float64{
		"xen":  {22, 4, 13, 11, 29},
		"kvm":  {18, 4, 9, 11, 16},
		"nova": {18, 4, 9, 11, 16},
	}
	// Xen's save and restore+destroy heap bytes at 1 and 8 vCPUs.
	xenBytes := [4]uint64{5952, 14128, 39104, 97728}
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
			saveOnce := func() {
				if _, err := h.SaveUISR(vm.ID); err != nil {
					t.Fatal(err)
				}
			}
			restoreOnce := func() {
				vm, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
				if err != nil {
					t.Fatal(err)
				}
				if err := h.DestroyVM(vm.ID); err != nil {
					t.Fatal(err)
				}
			}
			save, restore := testing.AllocsPerRun(10, saveOnce), testing.AllocsPerRun(10, restoreOnce)
			if save > want[1+2*i] || restore > want[2+2*i] {
				t.Errorf("%d vCPUs: save allocated %v times, restore+destroy %v; budgets %v, %v",
					vcpus, save, restore, want[1+2*i], want[2+2*i])
			}
			// Bytes are not exact under the race detector (TestWorkingSetAllocBudget).
			if h.Kind() == hv.KindXen && !raceEnabled {
				save, restore := heapBytesPerRun(10, saveOnce), heapBytesPerRun(10, restoreOnce)
				if save > xenBytes[2*i] || restore > xenBytes[1+2*i] {
					t.Errorf("%d vCPUs: save allocated %d B, restore+destroy %d B; budgets %d, %d",
						vcpus, save, restore, xenBytes[2*i], xenBytes[1+2*i])
				}
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				t.Fatal(err)
			}
		}

		// Counting and visiting the VM table allocate nothing.
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

// TestWorkingSetAllocBudget: a page stores the bytes written to it, so a
// guest's working set — one 64-byte record per page — costs its records,
// not a zeroed 4 KiB frame each, and the guest logs it as one span, not
// a record per page. The working set goes to hw as one bulk write, whose
// fresh pages and record windows are one allocation each (the record at
// offset 0 has a 512-byte window of its own), and migrating the space
// copies each page's written window as it is: one walk of the source's
// spans, one bulk write into the twin. Writing 256 records into a 1 GiB
// VM, and copying that space into a twin, must stay under a fixed byte
// budget per page and at the pinned allocation counts, which do not grow
// with the page count. Bytes and counts are work, not time: host load
// cannot flip the gate.
func TestWorkingSetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const pages = 256
	const writeBytes, copyBytes = 127, 146 // per page
	const writeAllocs, copyAllocs = 6, 5
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, s := range spokes {
		t.Run(s.name, func(t *testing.T) {
			type cost struct{ bytes, allocs uint64 }
			least := [2]cost{{^uint64(0), ^uint64(0)}, {^uint64(0), ^uint64(0)}}
			// Three fresh hosts: the least of each is what the code
			// allocates, whatever else the process did meanwhile.
			for range 3 {
				h, err := s.boot(hw.NewMachine(simtime.NewClock(), hw.M1()))
				if err != nil {
					t.Fatal(err)
				}
				cfg := hv.Config{Name: "src", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 7}
				src, err := h.CreateVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Name = "dst"
				dst, err := h.CreateVM(cfg)
				if err != nil {
					t.Fatal(err)
				}
				g := guest.New("g", src.Space)
				var ms [3]runtime.MemStats
				runtime.ReadMemStats(&ms[0])
				if err := g.WriteWorkingSet(0, pages); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms[1])
				if err := src.Space.CopyContentsTo(dst.Space); err != nil {
					t.Fatal(err)
				}
				runtime.ReadMemStats(&ms[2])
				for i := range least {
					least[i].bytes = min(least[i].bytes, ms[i+1].TotalAlloc-ms[i].TotalAlloc)
					least[i].allocs = min(least[i].allocs, ms[i+1].Mallocs-ms[i].Mallocs)
				}
				if err := g.Verify(); err != nil {
					t.Fatal(err)
				}
				g.Rebind(dst.Space)
				if err := g.Verify(); err != nil {
					t.Fatalf("copied space: %v", err)
				}
			}
			t.Logf("per page: WriteWorkingSet %d B, CopyContentsTo %d B; allocations %d, %d",
				least[0].bytes/pages, least[1].bytes/pages, least[0].allocs, least[1].allocs)
			if b := least[0].bytes / pages; b > writeBytes || least[0].allocs != writeAllocs {
				t.Errorf("WriteWorkingSet(0, %d): %d B per page in %d allocations; budget %d B, %d allocations",
					pages, b, least[0].allocs, writeBytes, writeAllocs)
			}
			if b := least[1].bytes / pages; b > copyBytes || least[1].allocs != copyAllocs {
				t.Errorf("CopyContentsTo: %d B per page in %d allocations; budget %d B, %d allocations",
					b, least[1].allocs, copyBytes, copyAllocs)
			}
		})
	}
}
