package core

import (
	"testing"
	"time"

	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/nova"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/vulndb"
)

// The VENOM scenario end to end: the flaw hits Xen and KVM at once (both
// embed QEMU), so the two-member pool has no safe target — but the
// microhypervisor, which embeds no QEMU, does. Transplant to it, verify
// guests, and come back once patched.
func TestVENOMEscapeToMicrohypervisor(t *testing.T) {
	db := vulndb.Load()
	const venom = "CVE-2015-3456"

	// The two-member pool fails, the three-member pool succeeds.
	if _, err := db.SelectTarget("xen", []string{venom}, []string{"xen", "kvm"}); err == nil {
		t.Fatal("two-member pool found a VENOM target")
	}
	target, err := db.SelectTarget("xen", []string{venom}, []string{"xen", "kvm", "nova"})
	if err != nil || target != "nova" {
		t.Fatalf("target = %q, %v", target, err)
	}

	// Execute the escape.
	b := newBench(t, hw.M1())
	src := b.bootWithVMs(t, hv.KindXen, 2, 1, 1)
	guests := map[string]interface{ Verify() error }{}
	for _, vm := range src.VMs() {
		vm.Guest.WriteWorkingSet(hw.GFN(int(vm.ID)*7), 128)
		guests[vm.Config.Name] = vm.Guest
	}
	onNova, rep, err := b.engine.InPlace(src, hv.KindNOVA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if onNova.Kind() != hv.KindNOVA {
		t.Fatal("not on the microhypervisor")
	}
	for name, g := range guests {
		if err := g.Verify(); err != nil {
			t.Fatalf("guest %s: %v", name, err)
		}
	}
	// The microhypervisor boots fast: Xen→NOVA downtime must undercut
	// Xen→KVM (0.62 s boot vs 1.52 s).
	if rep.Downtime >= 1500*time.Millisecond {
		t.Fatalf("Xen→NOVA downtime = %v, want < Xen→KVM's ~1.7s", rep.Downtime)
	}

	// QEMU is patched; transplant back to Xen.
	backOnXen, _, err := b.engine.InPlace(onNova, hv.KindXen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if backOnXen.Kind() != hv.KindXen {
		t.Fatal("not back on Xen")
	}
	for name, g := range guests {
		if err := g.Verify(); err != nil {
			t.Fatalf("guest %s after return: %v", name, err)
		}
	}
}

// All six transplant directions among the three pool members preserve
// guest state.
func TestAllSixTransplantDirections(t *testing.T) {
	kinds := []hv.Kind{hv.KindXen, hv.KindKVM, hv.KindNOVA}
	for _, from := range kinds {
		for _, to := range kinds {
			if from == to {
				continue
			}
			b := newBench(t, hw.M1())
			src := b.bootWithVMs(t, from, 1, 1, 1)
			vm := src.VMs()[0]
			vm.Guest.WriteWorkingSet(3, 80)
			g := vm.Guest
			dst, rep, err := b.engine.InPlace(src, to, DefaultOptions())
			if err != nil {
				t.Fatalf("%v→%v: %v", from, to, err)
			}
			if err := g.Verify(); err != nil {
				t.Fatalf("%v→%v: guest state lost: %v", from, to, err)
			}
			if !g.AllDriversRunning() {
				t.Fatalf("%v→%v: drivers not running", from, to)
			}
			if len(dst.VMs()) != 1 {
				t.Fatalf("%v→%v: VM lost", from, to)
			}
			if rep.Downtime <= 0 || rep.Downtime > 30*time.Second {
				t.Fatalf("%v→%v: downtime %v", from, to, rep.Downtime)
			}
		}
	}
}

// NOVA-bound VMs migrate too (MigrationTP with a microhypervisor
// destination is covered by the light finalize path).
func TestBootNOVAFromEngine(t *testing.T) {
	b := newBench(t, hw.M1())
	h, err := b.engine.BootHypervisor(hv.KindNOVA)
	if err != nil {
		t.Fatal(err)
	}
	if h.Kind() != hv.KindNOVA {
		t.Fatal("kind wrong")
	}
}

// The scheduling weight is VM_i State: each hypervisor rebuilds its own
// management representation from it (Xen credit weight, host cpu.shares,
// NOVA SC priority), and the neutral value survives every hop.
func TestSchedulingWeightSurvivesTransplants(t *testing.T) {
	const weight = 512
	b := newBench(t, hw.M1())
	src, err := b.engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(hv.Config{
		Name: "weighted", VCPUs: 1, MemBytes: 1 << 30, HugePages: true,
		Seed: 3, InPlaceCompatible: true, Weight: weight,
	})
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := xen.CreditWeight(src, vm.ID); w != weight {
		t.Fatalf("Xen credit weight = %d, want %d", w, weight)
	}

	onKVM, _, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	kvmVM := onKVM.VMs()[0]
	if kvmVM.Config.Weight != weight {
		t.Fatalf("config weight on KVM = %d", kvmVM.Config.Weight)
	}
	// KVM's own representation: cgroup shares at 4x scale.
	if s, _ := kvm.CPUShares(onKVM, kvmVM.ID); s != weight*4 {
		t.Fatalf("cpu.shares = %d, want %d", s, weight*4)
	}

	onNova, _, err := b.engine.InPlace(onKVM, hv.KindNOVA, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	novaVM := onNova.VMs()[0]
	if p, _ := nova.SCPriority(onNova, novaVM.ID); p != weight {
		t.Fatalf("SC priority = %d, want %d", p, weight)
	}

	backOnXen, _, err := b.engine.InPlace(onNova, hv.KindXen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	xenVM := backOnXen.VMs()[0]
	if w, _ := xen.CreditWeight(backOnXen, xenVM.ID); w != weight {
		t.Fatalf("credit weight after full journey = %d, want %d", w, weight)
	}
}
