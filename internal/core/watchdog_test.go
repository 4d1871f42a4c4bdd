package core

import (
	"errors"
	"testing"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/migration"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// TestBootLivelockHitsWatchdog: an "infinite retry" misconfiguration —
// huge attempt budget, every target boot failing — must terminate with
// ErrWatchdogExpired inside the virtual-time budget instead of spinning.
func TestBootLivelockHitsWatchdog(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindXen, 1)
	b.engine.Fault = fault.NewPlan(1, 1).Restrict(fault.SiteHVBoot).SetClock(b.clock)
	budget := 5 * time.Second
	b.engine.Retry = fault.RetryPolicy{MaxAttempts: 1 << 30, MaxElapsed: budget}
	start := b.clock.Now()
	_, _, err := b.engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err == nil {
		t.Fatal("livelocked boot loop returned nil")
	}
	if !errors.Is(err, hterr.ErrWatchdogExpired) {
		t.Fatalf("err = %v, want ErrWatchdogExpired", err)
	}
	// Past the kexec point a boot livelock is a lost host — the class
	// must say so, not hide it behind the watchdog.
	if !errors.Is(err, hterr.ErrVMLost) {
		t.Fatalf("err = %v, want ErrVMLost composition", err)
	}
	// Each failed boot charges a full boot of virtual time, so the loop
	// must die within budget + one boot, not after 2^30 attempts.
	if elapsed := b.clock.Now() - start; elapsed > budget+30*time.Second {
		t.Fatalf("livelock consumed %v of virtual time, budget %v", elapsed, budget)
	}
}

// TestMigrationLivelockHitsWatchdog: same property for the migration
// retry layer — a link that severs every attempt under an effectively
// unbounded attempt budget ends in a watchdog-classified abort, with the
// VM still running on the source.
func TestMigrationLivelockHitsWatchdog(t *testing.T) {
	clock := simtime.NewClock()
	srcB := hw.NewMachine(clock, hw.M1())
	dstB := hw.NewMachine(clock, hw.M1())
	src, err := NewEngine(clock, srcB).BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewEngine(clock, dstB).BootHypervisor(hv.KindKVM)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(hv.Config{
		Name: "stuck", VCPUs: 1, MemBytes: 64 << 20, HugePages: true,
		Seed: 3, InPlaceCompatible: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	link := simnet.NewLink(clock, "flaky", simnet.Gbps1, 0)
	plan := fault.NewPlan(2, 1).Restrict(fault.SiteLinkAbort).SetClock(clock)
	link.SetFaults(plan)
	recv := migration.NewReceiver(clock, dst, 1)
	rep, err := MigrationTP(clock, migration.Params{
		Link: link, Source: src, Dest: recv, VMID: vm.ID,
		Retry: fault.RetryPolicy{MaxAttempts: 1 << 30, BaseBackoff: time.Millisecond, MaxElapsed: 30 * time.Second},
	}, plan)
	if err == nil {
		t.Fatalf("livelocked migration returned nil (report %+v)", rep)
	}
	if !errors.Is(err, hterr.ErrWatchdogExpired) {
		t.Fatalf("err = %v, want ErrWatchdogExpired", err)
	}
	if !errors.Is(err, hterr.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted (rolled back, not lost)", err)
	}
	got, ok := src.LookupVM(vm.ID)
	if !ok || got.Paused() {
		t.Fatal("VM not running on the source after watchdog abort")
	}
}
