package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// bootSmallVMs boots a hypervisor with n small (64 MiB) VMs: the matrix
// sweeps 20 transplants — and runs under -race in `make fault-matrix` —
// so what matters is the recovery state machine, not the copy volume.
func bootSmallVMs(t *testing.T, b *bench, kind hv.Kind, n int) hv.Hypervisor {
	t.Helper()
	h, err := b.engine.BootHypervisor(kind)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		vm, err := h.CreateVM(hv.Config{
			Name: vmName(i), VCPUs: 1, MemBytes: 64 << 20,
			HugePages: true, Seed: uint64(1000 + i), InPlaceCompatible: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := vm.Guest.WriteWorkingSet(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// checksumVMs captures every VM's full-space checksum keyed by name.
func checksumVMs(t *testing.T, vms []*hv.VM) map[string]uint64 {
	t.Helper()
	sums := make(map[string]uint64, len(vms))
	for _, vm := range vms {
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			t.Fatal(err)
		}
		sums[vm.Config.Name] = sum
	}
	return sums
}

// collecting returns a recorder whose ended span trees land, as
// records, in the returned collector.
func collecting(clock *simtime.Clock) (*obs.Recorder, *obs.Collector) {
	rec := obs.NewRecorder(clock)
	col := &obs.Collector{}
	rec.AddSink(col)
	return rec, col
}

// spanNames counts the collected span records by name.
func spanNames(col *obs.Collector) map[string]int {
	names := map[string]int{}
	for _, r := range col.Records() {
		names[r.Name]++
	}
	return names
}

// TestRecoveryMatrix is the paper's safety claim, mechanized: for every
// registered injection site, a fault forced at its first occurrence must
// end in either a verified full rollback (source checksums unchanged,
// nothing paused) or a verified full completion (target checksums match),
// never a half-state — for both transplant mechanisms and for the
// emergency entry into the in-place one. The recovery path
// must also be visible in the span tree.
func TestRecoveryMatrix(t *testing.T) {
	inplaceWant := map[fault.Site]hterr.Outcome{
		// Before the source-teardown row the engine can still roll back.
		fault.SiteKexecLoad:     hterr.OutcomeRolledBack,
		fault.SitePRAMBuild:     hterr.OutcomeRolledBack,
		fault.SiteUISRTranslate: hterr.OutcomeRolledBack,
		// Past the point of no return, recovery goes forward via PRAM.
		fault.SiteKexecHandover: hterr.OutcomeRecovered,
		fault.SiteHVBoot:        hterr.OutcomeRecovered,
		fault.SitePRAMParse:     hterr.OutcomeRecovered,
		fault.SiteUISRRestore:   hterr.OutcomeRecovered,
		// Never armed by InPlaceTP: the plan stays quiet.
		fault.SiteLinkAbort:   hterr.OutcomeCompleted,
		fault.SiteLinkLoss:    hterr.OutcomeCompleted,
		fault.SiteClusterHost: hterr.OutcomeCompleted,
		// Armed only on a cache hit; without a primed cache the plan
		// stays quiet. TestCacheStalePoisonFallback covers the armed
		// case.
		fault.SiteCacheStale: hterr.OutcomeCompleted,
		// A double fault — the source hypervisor dying mid-transplant —
		// can neither roll back nor complete: the transplant is
		// abandoned with the VMs frozen in place and the emergency path
		// finishes the job (verified below).
		fault.SiteHVCrashDuringTP: hterr.OutcomeCrashed,
		// Spontaneous crash/hang sites are armed by the reactive layer
		// (detector/chaos), never by a planned InPlaceTP.
		fault.SiteHVCrash: hterr.OutcomeCompleted,
		fault.SiteHVHang:  hterr.OutcomeCompleted,
	}
	for _, site := range fault.Sites() {
		site := site
		t.Run("inplace/"+string(site), func(t *testing.T) {
			want, ok := inplaceWant[site]
			if !ok {
				t.Fatalf("site %s missing from matrix expectations", site)
			}
			b := newBench(t, hw.M1())
			rec, col := collecting(b.clock)
			b.engine.Obs = rec
			src := bootSmallVMs(t, b, hv.KindXen, 2)
			pre := checksumVMs(t, src.VMs())
			b.engine.Fault = fault.NewPlan(1, 0).ForceAt(site, 1).
				SetClock(b.clock).SetRecorder(rec)

			dst, rep, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
			switch want {
			case hterr.OutcomeCrashed:
				if !errors.Is(err, hterr.ErrHypervisorCrashed) || !errors.Is(err, hterr.ErrInjected) {
					t.Fatalf("err = %v, want crash+injected", err)
				}
				if dst != nil {
					t.Fatal("crash abandon produced a target hypervisor")
				}
				if rep == nil || rep.Outcome != hterr.OutcomeCrashed {
					t.Fatalf("report = %+v", rep)
				}
				if !src.Crashed() {
					t.Fatal("source not marked crashed after double fault")
				}
				if len(src.VMs()) != 2 {
					t.Fatalf("%d VMs on source after crash, want 2 frozen", len(src.VMs()))
				}
				for _, vm := range src.VMs() {
					if !vm.Paused() {
						t.Fatalf("VM %q running on a crashed hypervisor", vm.Config.Name)
					}
				}
				if got := checksumVMs(t, src.VMs()); !reflect.DeepEqual(got, pre) {
					t.Fatal("guest memory changed across the crash")
				}
				if spanNames(col)["crash-abandon"] == 0 {
					t.Fatal("no crash-abandon span recorded")
				}
				// The emergency path must finish what the double fault
				// interrupted: salvage the frozen state and land every VM
				// on the other hypervisor, checksums intact.
				edst, erep, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
				if err != nil {
					t.Fatalf("emergency after double fault: %v", err)
				}
				if erep.Outcome != hterr.OutcomeRecovered || !erep.Emergency {
					t.Fatalf("emergency report = %+v", erep)
				}
				if len(edst.VMs()) != 2 {
					t.Fatalf("%d VMs after emergency, want 2", len(edst.VMs()))
				}
				for _, vm := range edst.VMs() {
					if vm.Paused() {
						t.Fatalf("VM %q left paused after emergency", vm.Config.Name)
					}
				}
				if got := checksumVMs(t, edst.VMs()); !reflect.DeepEqual(got, pre) {
					t.Fatal("checksums do not survive the emergency transplant")
				}
			case hterr.OutcomeRolledBack:
				if !errors.Is(err, hterr.ErrAborted) || !errors.Is(err, hterr.ErrInjected) {
					t.Fatalf("err = %v, want aborted+injected", err)
				}
				if dst != nil {
					t.Fatal("rollback produced a target hypervisor")
				}
				if rep == nil || rep.Outcome != hterr.OutcomeRolledBack {
					t.Fatalf("report = %+v", rep)
				}
				if len(src.VMs()) != 2 {
					t.Fatalf("%d VMs on source after rollback, want 2", len(src.VMs()))
				}
				for _, vm := range src.VMs() {
					if vm.Paused() {
						t.Fatalf("VM %q left paused after rollback", vm.Config.Name)
					}
				}
				if got := checksumVMs(t, src.VMs()); !reflect.DeepEqual(got, pre) {
					t.Fatal("source checksums changed across rollback")
				}
				if spanNames(col)["rollback"] == 0 {
					t.Fatal("no rollback span recorded")
				}
			default:
				if err != nil {
					t.Fatal(err)
				}
				if rep.Outcome != want {
					t.Fatalf("outcome = %s, want %s", rep.Outcome, want)
				}
				if len(dst.VMs()) != 2 {
					t.Fatalf("%d VMs on target, want 2", len(dst.VMs()))
				}
				for _, vm := range dst.VMs() {
					if vm.Paused() {
						t.Fatalf("VM %q left paused on target", vm.Config.Name)
					}
				}
				if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
					t.Fatal("target checksums do not match the source")
				}
				if want == hterr.OutcomeRecovered {
					if rep.Faults < 1 || rep.Attempts < 2 {
						t.Fatalf("faults = %d attempts = %d after recovery", rep.Faults, rep.Attempts)
					}
					if spanNames(col)["recovery:"+string(site)] == 0 {
						t.Fatalf("no recovery:%s span recorded", site)
					}
				}
			}
		})
	}

	// Emergency walks the same table from a crashed source: before the
	// kexec a shot is retried against the frozen host (exhaustion leaves
	// it frozen and retryable, never lost); after it recovery goes
	// forward exactly as in the planned rows above.
	const (
		quiet    = iota // never armed by Emergency
		salvage         // pre-kexec: bounded retry, then frozen
		goesOn          // post-kexec: bounded retry, then lost
		rebooted        // post-kexec, armed once per run: cannot exhaust
	)
	emergencyWant := map[fault.Site]int{
		fault.SiteKexecLoad:     salvage,
		fault.SitePRAMBuild:     salvage,
		fault.SiteUISRTranslate: salvage,
		fault.SiteKexecHandover: rebooted,
		fault.SiteHVBoot:        goesOn,
		fault.SitePRAMParse:     goesOn,
		fault.SiteUISRRestore:   goesOn,
		fault.SiteLinkAbort:     quiet,
		fault.SiteLinkLoss:      quiet,
		fault.SiteClusterHost:   quiet,
		// The translation memo is bypassed, and a dead source cannot die
		// again mid-transplant.
		fault.SiteCacheStale:      quiet,
		fault.SiteHVCrashDuringTP: quiet,
		fault.SiteHVCrash:         quiet,
		fault.SiteHVHang:          quiet,
	}
	for _, site := range fault.Sites() {
		site := site
		t.Run("emergency/"+string(site), func(t *testing.T) {
			want, ok := emergencyWant[site]
			if !ok {
				t.Fatalf("site %s missing from matrix expectations", site)
			}
			// salvageWith crashes a fresh two-VM host and runs Emergency
			// under the given plan.
			type attempt struct {
				b    *bench
				col  *obs.Collector
				src  hv.Hypervisor
				pre  map[string]uint64
				plan *fault.Plan
			}
			salvageWith := func(plan *fault.Plan) (attempt, hv.Hypervisor, *InPlaceReport, error) {
				b := newBench(t, hw.M1())
				rec, col := collecting(b.clock)
				b.engine.Obs = rec
				src := bootSmallVMs(t, b, hv.KindXen, 2)
				pre := checksumVMs(t, src.VMs())
				crashHost(t, src, "injected panic")
				b.engine.Fault = plan.SetClock(b.clock).SetRecorder(rec)
				dst, rep, err := b.engine.Emergency(src, hv.KindKVM, DefaultOptions())
				return attempt{b, col, src, pre, plan}, dst, rep, err
			}
			landed := func(a attempt, dst hv.Hypervisor, rep *InPlaceReport, err error) {
				t.Helper()
				if err != nil {
					t.Fatal(err)
				}
				if rep.Outcome != hterr.OutcomeRecovered || len(dst.VMs()) != 2 {
					t.Fatalf("report = %+v, %d VMs", rep, len(dst.VMs()))
				}
				if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, a.pre) {
					t.Fatal("guest checksums do not survive the emergency")
				}
			}

			// One forced shot is always absorbed.
			a, dst, rep, err := salvageWith(fault.NewPlan(1, 0).ForceAt(site, 1))
			landed(a, dst, rep, err)
			if want == quiet {
				if len(a.plan.Shots()) != 0 || rep.Faults != 0 {
					t.Fatalf("site %s fired during an emergency: %v", site, a.plan.Shots())
				}
				return
			}
			if rep.Faults != 1 || rep.Attempts != 2 || spanNames(a.col)["recovery:"+string(site)] != 1 {
				t.Fatalf("faults = %d attempts = %d spans = %v", rep.Faults, rep.Attempts, spanNames(a.col))
			}

			// Every arm firing exhausts the retry budget.
			a, dst, rep, err = salvageWith(fault.NewPlan(1, 1).Restrict(site))
			switch want {
			case rebooted:
				landed(a, dst, rep, err)
			case goesOn:
				if !errors.Is(err, hterr.ErrVMLost) || dst != nil {
					t.Fatalf("dst = %v err = %v, want VM loss", dst, err)
				}
			case salvage:
				if !errors.Is(err, hterr.ErrHypervisorCrashed) || errors.Is(err, hterr.ErrVMLost) ||
					hterr.Label(hterr.Class(err)) != "crash" || dst != nil {
					t.Fatalf("dst = %v err = %v, want crash class without VM loss", dst, err)
				}
				if rep == nil || rep.Outcome != hterr.OutcomeCrashed || spanNames(a.col)["frozen"] != 1 {
					t.Fatalf("report = %+v spans = %v", rep, spanNames(a.col))
				}
				for _, vm := range a.src.VMs() {
					if !vm.Paused() {
						t.Fatalf("VM %q running on the frozen host", vm.Config.Name)
					}
				}
				if got := checksumVMs(t, a.src.VMs()); len(got) != 2 || !reflect.DeepEqual(got, a.pre) {
					t.Fatal("guest memory changed across failed salvage")
				}
				// The frozen host is still recoverable once the faults clear.
				a.b.engine.Fault = nil
				dst, rep, err = a.b.engine.Emergency(a.src, hv.KindKVM, DefaultOptions())
				landed(a, dst, rep, err)
			}
		})
	}

	for _, site := range fault.Sites() {
		site := site
		t.Run("migration/"+string(site), func(t *testing.T) {
			clock := simtime.NewClock()
			srcE := NewEngine(clock, hw.NewMachine(clock, hw.M1()))
			src, err := srcE.BootHypervisor(hv.KindXen)
			if err != nil {
				t.Fatal(err)
			}
			vm, err := src.CreateVM(hv.Config{
				Name: "mx", VCPUs: 1, MemBytes: 64 << 20, HugePages: true,
				Seed: 9, InPlaceCompatible: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := vm.Guest.WriteWorkingSet(0, 64); err != nil {
				t.Fatal(err)
			}
			pre, err := vm.Space.ChecksumAll()
			if err != nil {
				t.Fatal(err)
			}
			dstE := NewEngine(clock, hw.NewMachine(clock, hw.M1()))
			dst, err := dstE.BootHypervisor(hv.KindKVM)
			if err != nil {
				t.Fatal(err)
			}
			link := simnet.NewLink(clock, "pair", simnet.Gbps1, 100*time.Microsecond)
			rec, col := collecting(clock)
			plan := fault.NewPlan(1, 0).ForceAt(site, 1).SetClock(clock).SetRecorder(rec)

			rep, err := MigrationTP(clock, migration.Params{
				Link: link, Source: src, Dest: migration.NewReceiver(clock, dst, 1),
				VMID: vm.ID, Obs: rec, Retry: fault.DefaultRetryPolicy(),
			}, plan)
			// A single forced shot is always recoverable under the
			// default policy: full completion, never a half-state.
			if err != nil {
				t.Fatal(err)
			}
			if len(dst.VMs()) != 1 || len(src.VMs()) != 0 {
				t.Fatalf("half-state: %d VMs on dest, %d on source", len(dst.VMs()), len(src.VMs()))
			}
			sum, err := dst.VMs()[0].Space.ChecksumAll()
			if err != nil {
				t.Fatal(err)
			}
			if sum != pre {
				t.Fatal("dest checksum does not match pre-migration source")
			}
			switch site {
			case fault.SiteLinkAbort:
				if rep.Outcome != hterr.OutcomeRecovered || rep.Attempts != 2 {
					t.Fatalf("outcome = %s attempts = %d, want recovered/2", rep.Outcome, rep.Attempts)
				}
				if spanNames(col)["rollback"] == 0 {
					t.Fatal("no rollback span between attempts")
				}
			case fault.SiteLinkLoss:
				// Lossy, not severed: one (slower) attempt completes.
				if rep.Attempts != 1 || len(plan.Shots()) != 1 {
					t.Fatalf("attempts = %d shots = %v", rep.Attempts, plan.Shots())
				}
			default:
				if rep.Outcome != hterr.OutcomeCompleted {
					t.Fatalf("outcome = %s, want completed", rep.Outcome)
				}
				if len(plan.Shots()) != 0 {
					t.Fatalf("site %s unexpectedly fired during migration: %v", site, plan.Shots())
				}
			}
		})
	}
}

// TestFaultDeterminismAcrossWorkers: the same fault seed must yield
// byte-identical reports and shot lists regardless of the -workers
// count — faults are armed only from single-threaded simulation code,
// so host scheduling must not leak into what fires or when.
func TestFaultDeterminismAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	type run struct {
		report string
		shots  string
	}
	grab := func(workers int) run {
		par.SetWorkers(workers)
		b := newBench(t, hw.M1())
		clock, e := b.clock, b.engine
		src := bootSmallVMs(t, b, hv.KindXen, 4)
		plan := fault.NewPlan(9, 0).
			ForceAt(fault.SiteKexecHandover, 1).
			ForceAt(fault.SiteUISRRestore, 2).
			SetClock(clock)
		e.Fault = plan
		_, rep, err := e.InPlace(src, hv.KindKVM, DefaultOptions())
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
