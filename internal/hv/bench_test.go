package hv_test

import (
	"fmt"
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/nova"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

// The UISR hub, per spoke: what one to_uisr / from_uisr translation costs
// the simulator on each hypervisor model (ROADMAP item 1's hv/* layer
// benchmarks). Run with `go test -bench UISR -benchmem ./internal/hv`.

var spokes = []struct {
	name string
	boot func(*hw.Machine) (hv.Hypervisor, error)
}{
	{"xen", func(m *hw.Machine) (hv.Hypervisor, error) { return xen.Boot(m) }},
	{"kvm", func(m *hw.Machine) (hv.Hypervisor, error) { return kvm.Boot(m) }},
	{"nova", func(m *hw.Machine) (hv.Hypervisor, error) { return nova.Boot(m) }},
}

// forEachSpoke runs fn once per hypervisor model and vCPU count on a
// freshly booted M1 host.
func forEachSpoke(b *testing.B, fn func(b *testing.B, h hv.Hypervisor, vcpus int)) {
	for _, s := range spokes {
		for _, vcpus := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/%dvcpu", s.name, vcpus), func(b *testing.B) {
				h, err := s.boot(hw.NewMachine(simtime.NewClock(), hw.M1()))
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				fn(b, h, vcpus)
			})
		}
	}
}

func BenchmarkSaveUISR(b *testing.B) {
	forEachSpoke(b, func(b *testing.B, h hv.Hypervisor, vcpus int) {
		vm, err := h.CreateVM(hv.Config{Name: "save", VCPUs: vcpus, MemBytes: 64 << 20, HugePages: true, Seed: 7})
		if err != nil {
			b.Fatal(err)
		}
		if err := h.Pause(vm.ID); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := h.SaveUISR(vm.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRestoreUISR restores into freshly allocated guest memory and
// destroys the VM again each iteration, so the host never fills up; the
// 64 MiB huge-page guest keeps that bookkeeping small beside the
// translation.
func BenchmarkRestoreUISR(b *testing.B) {
	forEachSpoke(b, func(b *testing.B, h hv.Hypervisor, vcpus int) {
		st := uisr.SyntheticVM("restore", 1, vcpus, 64<<20, 7)
		st.HugePages = true
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vm, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
			if err != nil {
				b.Fatal(err)
			}
			if err := h.DestroyVM(vm.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRetag is the adoption retag of a warm hop: a huge-page space
// of 1 or 12 GiB on M1 re-tagged to a new VM id, its extents coalesced
// into frame runs the machine retags under one lock.
func BenchmarkRetag(b *testing.B) {
	for _, gib := range []uint64{1, 12} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			mem := hw.NewPhysMem(16 * hw.GiB)
			as, err := hv.AllocAddressSpace(mem, 1, gib*hw.GiB, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := as.Retag(hw.OwnerGuest, 2+i%2, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
