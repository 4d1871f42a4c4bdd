package hypertp_test

import (
	"runtime/debug"
	"testing"
	"time"

	"hypertp"
	"hypertp/internal/par"
)

func TestFacadeQuickstartFlow(t *testing.T) {
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	if host.Kind() != hypertp.KindXen || host.HypervisorName() == "" {
		t.Fatal("host identity wrong")
	}
	vm, err := host.CreateVM(hypertp.VMConfig{
		Name: "web", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := vm.Guest.WriteWorkingSet(0, 64); err != nil {
		t.Fatal(err)
	}
	report, err := host.TransplantWith(hypertp.KindKVM, hypertp.Default())
	if err != nil {
		t.Fatal(err)
	}
	if host.Kind() != hypertp.KindKVM {
		t.Fatal("host not on KVM")
	}
	if report.Downtime < time.Second || report.Downtime > 2*time.Second {
		t.Fatalf("downtime = %v, want ~1.7s", report.Downtime)
	}
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}
	if sim.Now() == 0 {
		t.Fatal("virtual clock did not advance")
	}
}

func TestFacadeMigration(t *testing.T) {
	sim := hypertp.NewSimulation()
	src, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := sim.NewHost(hypertp.M1(), hypertp.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	link := sim.NewLink("pair", hypertp.Gbps(1), 100*time.Microsecond)
	vm, err := src.CreateVM(hypertp.VMConfig{
		Name: "db", VCPUs: 2, MemBytes: 1 << 30, HugePages: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := src.MigrateVM(vm, link, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Heterogeneous {
		t.Fatal("Xen→KVM migration not heterogeneous")
	}
	if rep.TotalTime < 8*time.Second || rep.TotalTime > 11*time.Second {
		t.Fatalf("migration time = %v", rep.TotalTime)
	}
	if len(dst.VMs()) != 1 || len(src.VMs()) != 0 {
		t.Fatal("VM did not move")
	}
}

func TestFacadeVulnPolicy(t *testing.T) {
	sim := hypertp.NewSimulation()
	host, _ := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	db := hypertp.LoadVulnDB()
	target, err := host.SelectTransplantTarget(db, "CVE-2016-6258")
	if err != nil || target != hypertp.KindKVM {
		t.Fatalf("target = %v, %v", target, err)
	}
	// VENOM hits both mainstream hypervisors; the default pool's
	// microhypervisor is the escape.
	target, err = host.SelectTransplantTarget(db, "CVE-2015-3456")
	if err != nil || target != hypertp.KindNOVA {
		t.Fatalf("VENOM target = %v, %v; want NOVA", target, err)
	}
}

// A pool member the policy picks but this build cannot run is an error,
// not silently KVM.
func TestSelectTransplantTargetUnknownPoolMember(t *testing.T) {
	defer func(pool []string) { hypertp.DefaultPool = pool }(hypertp.DefaultPool)
	hypertp.DefaultPool = []string{"hyperv", "kvm"}
	sim := hypertp.NewSimulation()
	host, _ := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if target, err := host.SelectTransplantTarget(hypertp.LoadVulnDB(), "CVE-2016-6258"); err == nil {
		t.Fatalf("unknown pool member became %v", target)
	}
}

func TestFacadeCluster(t *testing.T) {
	c, err := hypertp.NewCluster(hypertp.ClusterConfig{
		Hosts: 4, VMsPerHost: 5, StreamFrac: 0.3, CPUFrac: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.VMCount() != 20 {
		t.Fatal("cluster shape wrong")
	}
}

func TestGbps(t *testing.T) {
	if hypertp.Gbps(1) != 125000000 {
		t.Fatalf("Gbps(1) = %d", hypertp.Gbps(1))
	}
}

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
var raceEnabled bool

// TestFacadeAllocBudgets pins the public API's three transplant paths at
// one worker, host setup included, for one 1 vCPU / 1 GiB VM on M1: an
// InPlaceTP Xen→KVM, a MigrationTP Xen→KVM over 1 Gbps, and the VENOM
// escape Xen→NOVA→Xen with the guest's working set verified after the
// round trip. The collector is off while counting, so fmt's pooled
// buffers survive and the counts do not depend on when a collection lands.
func TestFacadeAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cfg := hypertp.VMConfig{Name: "budget", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1}
	newHost := func(sim *hypertp.Simulation, kind hypertp.Kind) *hypertp.Host {
		host, err := sim.NewHost(hypertp.M1(), kind)
		if err != nil {
			t.Fatal(err)
		}
		return host
	}
	for _, tc := range []struct {
		name   string
		budget float64
		run    func() error
	}{
		{"InPlaceTP", 187, func() error {
			host := newHost(hypertp.NewSimulation(), hypertp.KindXen)
			if _, err := host.CreateVM(cfg); err != nil {
				return err
			}
			_, err := host.TransplantWith(hypertp.KindKVM, hypertp.Default())
			return err
		}},
		{"MigrationTP", 110, func() error {
			sim := hypertp.NewSimulation()
			src, dst := newHost(sim, hypertp.KindXen), newHost(sim, hypertp.KindKVM)
			vm, err := src.CreateVM(cfg)
			if err != nil {
				return err
			}
			_, err = src.MigrateVM(vm, sim.NewLink("pair", hypertp.Gbps(1), 100*time.Microsecond), dst)
			return err
		}},
		{"VENOMEscape", 320, func() error {
			host := newHost(hypertp.NewSimulation(), hypertp.KindXen)
			vm, err := host.CreateVM(cfg)
			if err != nil {
				return err
			}
			if err := vm.Guest.WriteWorkingSet(0, 64); err != nil {
				return err
			}
			for _, kind := range []hypertp.Kind{hypertp.KindNOVA, hypertp.KindXen} {
				if _, err := host.TransplantWith(kind, hypertp.Default()); err != nil {
					return err
				}
			}
			for _, vm := range host.VMs() {
				if err := vm.Guest.Verify(); err != nil {
					return err
				}
			}
			return nil
		}},
	} {
		var err error
		run := func() { err = tc.run() }
		if n := testing.AllocsPerRun(2, run); n > tc.budget || err != nil {
			t.Errorf("%s allocated %v times, budget %v (err %v)", tc.name, n, tc.budget, err)
		}
	}
}

func TestFacadeCheckpointCycle(t *testing.T) {
	sim := hypertp.NewSimulation()
	src, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(hypertp.VMConfig{
		Name: "frozen", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 128)
	g := vm.Guest
	data, err := src.Checkpoint(vm)
	if err != nil {
		t.Fatal(err)
	}
	if len(src.VMs()) != 0 {
		t.Fatal("source VM survived checkpoint")
	}
	// Resume on a different host running a different hypervisor.
	dst, err := sim.NewHost(hypertp.M1(), hypertp.KindNOVA)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := dst.RestoreCheckpoint(data, g)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Paused() {
		t.Fatal("restored VM not running")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("state lost across checkpoint: %v", err)
	}
	// Corrupt image refused.
	data[len(data)/2] ^= 0xff
	if _, err := dst.RestoreCheckpoint(data, nil); err == nil {
		t.Fatal("corrupt checkpoint accepted")
	}
}
