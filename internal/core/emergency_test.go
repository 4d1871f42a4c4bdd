package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/par"
	"hypertp/internal/simtime"
)

// crashHost fail-stops a hypervisor.
func crashHost(t *testing.T, h hv.Hypervisor, reason string) {
	t.Helper()
	if !h.Crash(reason) {
		t.Fatal("crash was not the first failure")
	}
}

// TestEmergencyTransplant is the headline reactive-recovery property: a
// fail-stopped hypervisor's VMs are salvaged from their frozen state and
// land running on the other hypervisor with guest memory bit-identical.
func TestEmergencyTransplant(t *testing.T) {
	for _, target := range []hv.Kind{hv.KindKVM, hv.KindNOVA} {
		t.Run("xen-to-"+target.String(), func(t *testing.T) {
			b := newBench(t, hw.M1())
			rec, col := collecting(b.clock)
			b.engine.Obs = rec
			src := bootSmallVMs(t, b, hv.KindXen, 3)
			pre := checksumVMs(t, src.VMs())
			crashHost(t, src, "injected panic")
			for _, vm := range src.VMs() {
				if !vm.Paused() {
					t.Fatalf("VM %q still running after crash", vm.Config.Name)
				}
			}

			dst, rep, err := b.engine.Emergency(src, target, DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			if dst.Kind() != target {
				t.Fatalf("recovered onto %v, want %v", dst.Kind(), target)
			}
			if !rep.Emergency || rep.Outcome != hterr.OutcomeRecovered {
				t.Fatalf("report = %+v", rep)
			}
			if got := rep.Summary().Kind; got != "emergency" {
				t.Fatalf("summary kind = %q", got)
			}
			if len(dst.VMs()) != 3 {
				t.Fatalf("%d VMs recovered, want 3", len(dst.VMs()))
			}
			for _, vm := range dst.VMs() {
				if vm.Paused() {
					t.Fatalf("VM %q left paused after recovery", vm.Config.Name)
				}
				if vm.Guest != nil && !vm.Guest.AllDriversRunning() {
					t.Fatalf("VM %q drivers not running after recovery", vm.Config.Name)
				}
			}
			if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
				t.Fatal("guest checksums do not survive emergency recovery")
			}
			if rep.Downtime <= 0 || rep.Downtime != rep.Total {
				t.Fatalf("downtime = %v total = %v", rep.Downtime, rep.Total)
			}
			if spanNames(col)["emergency-tp"] != 1 {
				t.Fatal("no emergency-tp span recorded")
			}
			// An emergency run emits what a planned run emits for the
			// same work (TestMetricsMatchReport holds InPlace to these).
			m := rec.Metrics()
			if got := m.Counter("tp.pram_metadata_bytes", "bytes").Value(); got != int64(rep.PRAMMetadataBytes) || got == 0 {
				t.Errorf("tp.pram_metadata_bytes = %d, report says %d", got, rep.PRAMMetadataBytes)
			}
			for _, h := range []struct{ name, unit string }{
				{"tp.translate_virtual_s", "s"}, {"tp.restore_virtual_s", "s"},
			} {
				if n := m.Histogram(h.name, h.unit, nil).Count(); n != 3 {
					t.Errorf("%s count = %d, want one observation per VM", h.name, n)
				}
			}
			if names := phaseNames(t, col); len(names) == 0 || names[len(names)-1] != stepCleanup {
				t.Errorf("emergency phase spans %v do not end with %s", names, stepCleanup)
			}
		})
	}
}

// TestEmergencyFencesHungHypervisor: a hang is only suspected-dead; the
// emergency path must fence it into the fail-stopped state before
// salvage, and recovery proceeds identically from there.
func TestEmergencyFencesHungHypervisor(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindKVM, 2)
	pre := checksumVMs(t, src.VMs())
	if !src.Hang("scheduler wedge") {
		t.Fatal("hang was not the first failure")
	}

	dst, rep, err := b.engine.Emergency(src, hv.KindXen, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !src.Crashed() || src.Hung() {
		t.Fatal("hung hypervisor was not fenced into the crashed state")
	}
	if rep.Outcome != hterr.OutcomeRecovered {
		t.Fatalf("outcome = %s", rep.Outcome)
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("checksums changed across hang recovery")
	}
}

// TestEmergencyGuards: the emergency path refuses the cases that make no
// sense — a healthy source, a same-kind target, an empty host.
func TestEmergencyGuards(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindXen, 1)
	if _, _, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions()); !errors.Is(err, hterr.ErrIncompatibleTarget) {
		t.Fatalf("healthy source: err = %v, want incompatible", err)
	}
	crashHost(t, src, "panic")
	if _, _, err := b.engine.Emergency(src, hv.KindXen, DefaultOptions()); !errors.Is(err, hterr.ErrIncompatibleTarget) {
		t.Fatalf("same-kind target: err = %v, want incompatible", err)
	}

	empty, err := b.engine.BootHypervisor(hv.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	// Second hypervisor on the same machine is only for the guard check.
	empty.Crash("panic")
	if _, _, err := b.engine.Emergency(empty, hv.KindXen, DefaultOptions()); !errors.Is(err, hterr.ErrIncompatibleTarget) {
		t.Fatalf("empty host: err = %v, want incompatible", err)
	}
}

// TestEmergencySalvageExhaustionLeavesHostFrozen: when pre-kexec salvage
// faults exhaust the retry budget, the host must stay exactly as the
// crash left it — VMs frozen, memory intact, error classed "crash", not
// "lost" — and a later clean attempt must succeed.
func TestEmergencySalvageExhaustionLeavesHostFrozen(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindXen, 2)
	pre := checksumVMs(t, src.VMs())
	crashHost(t, src, "injected panic")

	// DefaultRetryPolicy allows 3 attempts; force all three PRAM builds
	// to fail so the salvage gives up.
	b.engine.Fault = fault.NewPlan(7, 0).
		ForceAt(fault.SitePRAMBuild, 1).
		ForceAt(fault.SitePRAMBuild, 2).
		ForceAt(fault.SitePRAMBuild, 3).
		SetClock(b.clock)
	dst, rep, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
	if !errors.Is(err, hterr.ErrHypervisorCrashed) || errors.Is(err, hterr.ErrVMLost) {
		t.Fatalf("err = %v, want crash class without VM loss", err)
	}
	if hterr.Label(hterr.Class(err)) != "crash" {
		t.Fatalf("error class = %v", hterr.Class(err))
	}
	if dst != nil {
		t.Fatal("failed salvage produced a hypervisor")
	}
	// Two absorbed retries plus the exhausting shot: three attempts.
	if rep == nil || rep.Outcome != hterr.OutcomeCrashed || rep.Faults != 2 || rep.Attempts != 3 {
		t.Fatalf("report = %+v", rep)
	}
	if len(src.VMs()) != 2 {
		t.Fatalf("%d VMs on frozen host, want 2", len(src.VMs()))
	}
	if got := checksumVMs(t, src.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("guest memory changed across failed salvage")
	}

	// The frozen host is still recoverable once the faults clear.
	b.engine.Fault = nil
	dst, rep, err = b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatalf("retry after failed salvage: %v", err)
	}
	if rep.Outcome != hterr.OutcomeRecovered || len(dst.VMs()) != 2 {
		t.Fatalf("retry report = %+v, %d VMs", rep, len(dst.VMs()))
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("checksums do not survive the retried recovery")
	}
}

// TestEmergencyAbsorbsPostKexecFaults: the forward-recovery loops carry
// over from the planned path — a boot crash during an emergency is
// absorbed and the recovery still lands.
func TestEmergencyAbsorbsPostKexecFaults(t *testing.T) {
	b := newBench(t, hw.M1())
	rec, col := collecting(b.clock)
	b.engine.Obs = rec
	src := bootSmallVMs(t, b, hv.KindXen, 2)
	pre := checksumVMs(t, src.VMs())
	crashHost(t, src, "injected panic")
	b.engine.Fault = fault.NewPlan(3, 0).
		ForceAt(fault.SiteHVBoot, 1).
		ForceAt(fault.SiteUISRRestore, 2).
		SetClock(b.clock).SetRecorder(rec)

	dst, rep, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Faults != 2 || rep.Attempts != 3 {
		t.Fatalf("faults = %d attempts = %d", rep.Faults, rep.Attempts)
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("checksums do not survive faulted emergency")
	}
	spans := spanNames(col)
	if spans["recovery:"+string(fault.SiteHVBoot)] == 0 ||
		spans["recovery:"+string(fault.SiteUISRRestore)] == 0 {
		t.Fatal("recovery spans missing from emergency trace")
	}
}

// TestEmergencyDeterminismAcrossWorkers: like the planned path, the
// emergency recovery schedule is a pure function of (seed, config) — the
// host worker count must not leak into the report or the shot list.
func TestEmergencyDeterminismAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	type run struct {
		report string
		shots  string
	}
	grab := func(workers int) run {
		par.SetWorkers(workers)
		b := newBench(t, hw.M1())
		src := bootSmallVMs(t, b, hv.KindXen, 4)
		crashHost(t, src, "injected panic")
		plan := fault.NewPlan(11, 0).
			ForceAt(fault.SitePRAMBuild, 1).
			ForceAt(fault.SiteHVBoot, 1).
			ForceAt(fault.SiteUISRRestore, 3).
			SetClock(b.clock)
		b.engine.Fault = plan
		_, rep, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return run{fmt.Sprintf("%+v", *rep), fmt.Sprintf("%v", plan.Shots())}
	}
	one := grab(1)
	eight := grab(8)
	if one.report != eight.report {
		t.Fatalf("reports differ between -workers 1 and 8:\n%s\nvs\n%s", one.report, eight.report)
	}
	if one.shots != eight.shots {
		t.Fatalf("fired shots differ between -workers 1 and 8:\n%s\nvs\n%s", one.shots, eight.shots)
	}
	again := grab(8)
	if eight.report != again.report || eight.shots != again.shots {
		t.Fatal("identical wide runs differ")
	}
}

// BenchmarkEmergencyTransplant measures the full crash-to-running cycle:
// boot, load, crash, salvage, micro-reboot, restore.
func BenchmarkEmergencyTransplant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		clock := simtime.NewClock()
		m := hw.NewMachine(clock, hw.M1())
		e := NewEngine(clock, m)
		src, err := e.BootHypervisor(hv.KindXen)
		if err != nil {
			b.Fatal(err)
		}
		for v := 0; v < 4; v++ {
			vm, err := src.CreateVM(hv.Config{
				Name: vmName(v), VCPUs: 1, MemBytes: 256 << 20,
				HugePages: true, Seed: uint64(v), InPlaceCompatible: true,
			})
			if err != nil {
				b.Fatal(err)
			}
			if err := vm.Guest.WriteWorkingSet(0, 64); err != nil {
				b.Fatal(err)
			}
		}
		src.Crash("bench")
		b.StartTimer()
		if _, _, err := e.Emergency(src, hv.KindKVM, DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
