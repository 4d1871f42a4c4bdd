package migration

import (
	"errors"
	"slices"
	"testing"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hv/kvm"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
)

// rig is a two-machine migration testbed: Xen source, configurable
// destination, 1 Gbps link — the paper's M1 pair.
type rig struct {
	clock *simtime.Clock
	link  *simnet.Link
	src   hv.Hypervisor
	destX hv.Hypervisor
	destK hv.Hypervisor
}

func newRig(t *testing.T) *rig {
	t.Helper()
	clock := simtime.NewClock()
	srcM := hw.NewMachine(clock, hw.M1())
	dstM1 := hw.NewMachine(clock, hw.M1())
	dstM2 := hw.NewMachine(clock, hw.M1())
	src, err := xen.Boot(srcM)
	if err != nil {
		t.Fatal(err)
	}
	dx, err := xen.Boot(dstM1)
	if err != nil {
		t.Fatal(err)
	}
	dk, err := kvm.Boot(dstM2)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		clock: clock,
		link:  simnet.NewLink(clock, "m1-m1", simnet.Gbps1, 100*time.Microsecond),
		src:   src,
		destX: dx,
		destK: dk,
	}
}

func (r *rig) createVM(t *testing.T, name string, vcpus int, memGiB int) *hv.VM {
	t.Helper()
	vm, err := r.src.CreateVM(hv.Config{
		Name: name, VCPUs: vcpus, MemBytes: uint64(memGiB) << 30,
		HugePages: true, Seed: 42,
	})
	if err != nil {
		t.Fatal(err)
	}
	return vm
}

func migrate(t *testing.T, r *rig, dest *Receiver, vmid hv.VMID, dirtyRate float64) *Report {
	t.Helper()
	var report *Report
	var gotErr error
	Run(r.clock, Params{
		Link: r.link, Source: r.src, Dest: dest, VMID: vmid,
		DirtyRatePagesPerSec: dirtyRate,
	}, func(rep *Report, err error) { report, gotErr = rep, err })
	r.clock.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if report == nil {
		t.Fatal("migration never completed")
	}
	return report
}

// Table 4 anchor: a 1 vCPU / 1 GB idle VM takes ~9.5 s to migrate;
// Xen→Xen downtime is ~134 ms while MigrationTP (→kvmtool) is ~5 ms,
// roughly 27x lower.
func TestTable4Anchors(t *testing.T) {
	r := newRig(t)
	vmA := r.createVM(t, "idle-a", 1, 1)
	repXen := migrate(t, r, NewReceiver(r.clock, r.destX, 1), vmA.ID, 0)

	vmB := r.createVM(t, "idle-b", 1, 1)
	repTP := migrate(t, r, NewReceiver(r.clock, r.destK, 1), vmB.ID, 0)

	for _, rep := range []*Report{repXen, repTP} {
		if rep.TotalTime < 8*time.Second || rep.TotalTime > 11*time.Second {
			t.Fatalf("%s migration time = %v, want ~9.5s", rep.VMName, rep.TotalTime)
		}
	}
	if repXen.Downtime < 100*time.Millisecond || repXen.Downtime > 200*time.Millisecond {
		t.Fatalf("Xen→Xen downtime = %v, want ~134ms", repXen.Downtime)
	}
	if repTP.Downtime < 3*time.Millisecond || repTP.Downtime > 10*time.Millisecond {
		t.Fatalf("MigrationTP downtime = %v, want ~5ms", repTP.Downtime)
	}
	if ratio := float64(repXen.Downtime) / float64(repTP.Downtime); ratio < 10 {
		t.Fatalf("downtime ratio = %.1f, want ≫ 10 (paper: 27x)", ratio)
	}
	if repXen.Heterogeneous {
		t.Fatal("Xen→Xen flagged heterogeneous")
	}
	if !repTP.Heterogeneous {
		t.Fatal("Xen→KVM not flagged heterogeneous")
	}
}

func TestMigrationTimeScalesWithMemory(t *testing.T) {
	r := newRig(t)
	vm1 := r.createVM(t, "small", 1, 1)
	rep1 := migrate(t, r, NewReceiver(r.clock, r.destK, 1), vm1.ID, 0)
	vm4 := r.createVM(t, "big", 1, 4)
	rep4 := migrate(t, r, NewReceiver(r.clock, r.destK, 2), vm4.ID, 0)
	ratio := float64(rep4.TotalTime) / float64(rep1.TotalTime)
	if ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("4 GB / 1 GB time ratio = %.2f, want ~4 (Fig. 9 linearity)", ratio)
	}
}

func TestVCPUCountDoesNotAffectMigrationTime(t *testing.T) {
	r := newRig(t)
	vm1 := r.createVM(t, "one", 1, 1)
	rep1 := migrate(t, r, NewReceiver(r.clock, r.destK, 1), vm1.ID, 0)
	vm8 := r.createVM(t, "eight", 8, 1)
	rep8 := migrate(t, r, NewReceiver(r.clock, r.destK, 2), vm8.ID, 0)
	diff := rep8.TotalTime - rep1.TotalTime
	if diff < 0 {
		diff = -diff
	}
	if diff > 500*time.Millisecond {
		t.Fatalf("migration time varies %v with vCPUs, want ~flat (Fig. 9)", diff)
	}
	// Downtime grows slightly with vCPUs (more state in the stop phase).
	if rep8.Downtime <= rep1.Downtime {
		t.Fatalf("downtime did not grow with vCPUs: %v vs %v", rep1.Downtime, rep8.Downtime)
	}
}

func TestDirtyWorkloadAddsRounds(t *testing.T) {
	r := newRig(t)
	idle := r.createVM(t, "idle", 1, 1)
	repIdle := migrate(t, r, NewReceiver(r.clock, r.destK, 1), idle.ID, 0)
	busy := r.createVM(t, "busy", 1, 1)
	repBusy := migrate(t, r, NewReceiver(r.clock, r.destK, 2), busy.ID, 4000)
	if repIdle.Rounds != 1 {
		t.Fatalf("idle VM rounds = %d, want 1", repIdle.Rounds)
	}
	if repBusy.Rounds <= repIdle.Rounds {
		t.Fatalf("busy VM rounds = %d, want > 1", repBusy.Rounds)
	}
	if repBusy.BytesSent <= repIdle.BytesSent {
		t.Fatal("busy VM sent no extra traffic")
	}
	if repBusy.TotalTime <= repIdle.TotalTime {
		t.Fatal("busy VM migration not longer")
	}
}

func TestGuestStatePreservedAcrossMigration(t *testing.T) {
	r := newRig(t)
	vm := r.createVM(t, "data", 2, 1)
	if err := vm.Guest.WriteWorkingSet(100, 200); err != nil {
		t.Fatal(err)
	}
	g := vm.Guest
	sumBefore, err := vm.Space.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	rep := migrate(t, r, NewReceiver(r.clock, r.destK, 1), vm.ID, 0)
	if err := g.Verify(); err != nil {
		t.Fatalf("guest state lost: %v", err)
	}
	sumAfter, err := rep.DestVM.Space.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	if sumBefore != sumAfter {
		t.Fatal("destination image differs from source")
	}
	// Source side is gone.
	if len(r.src.VMs()) != 0 {
		t.Fatal("source VM still present")
	}
	if rep.DestVM.Paused() {
		t.Fatal("destination VM not resumed")
	}
}

func TestConcurrentMigrationsShareLinkAndQueueOnXen(t *testing.T) {
	r := newRig(t)
	recv := NewReceiver(r.clock, r.destX, 7)
	const n = 4
	reports := make([]*Report, 0, n)
	for i := 0; i < n; i++ {
		vm := r.createVM(t, "vm", 1, 1)
		Run(r.clock, Params{Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID},
			func(rep *Report, err error) {
				if err != nil {
					t.Error(err)
					return
				}
				reports = append(reports, rep)
			})
	}
	r.clock.Run()
	if len(reports) != n {
		t.Fatalf("%d migrations completed, want %d", len(reports), n)
	}
	// Total wall time ≈ n * solo time (bandwidth shared).
	if r.clock.Now() < 30*time.Second || r.clock.Now() > 50*time.Second {
		t.Fatalf("4 concurrent 1 GB migrations took %v, want ~38s", r.clock.Now())
	}
	// Xen's sequential receive spreads downtimes: max ≫ min.
	var min, max time.Duration
	for i, rep := range reports {
		if i == 0 || rep.Downtime < min {
			min = rep.Downtime
		}
		if rep.Downtime > max {
			max = rep.Downtime
		}
	}
	if max < 2*min {
		t.Fatalf("Xen receive downtime spread too small: min %v max %v", min, max)
	}
}

// Equal migrations started together finish their transfers at one
// virtual instant; which VM then takes which slot of Xen's sequential
// restore queue is the same on every run, never Go's map order.
func TestConcurrentMigrationsQueueInOneOrder(t *testing.T) {
	var first []time.Duration
	for run := 0; run < 20; run++ {
		r := newRig(t)
		recv := NewReceiver(r.clock, r.destX, 7)
		downtimes := make([]time.Duration, 3)
		for i := range downtimes {
			vm := r.createVM(t, "vm"+string(rune('0'+i)), 1, 1)
			Run(r.clock, Params{Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID},
				func(rep *Report, err error) {
					if err != nil {
						t.Fatal(err)
					}
					downtimes[i] = rep.Downtime
				})
		}
		r.clock.Run()
		if run == 0 {
			first = downtimes
		} else if !slices.Equal(downtimes, first) {
			t.Fatalf("run %d: per-VM downtimes %v, first run %v", run, downtimes, first)
		}
	}
	if !slices.IsSorted(first) {
		t.Fatalf("per-VM downtimes %v: the queue is not served in start order", first)
	}
}

func TestKVMToolReceiverConstantDowntime(t *testing.T) {
	r := newRig(t)
	recv := NewReceiver(r.clock, r.destK, 7)
	const n = 4
	var downtimes []time.Duration
	for i := 0; i < n; i++ {
		vm := r.createVM(t, "vm", 1, 1)
		Run(r.clock, Params{Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID},
			func(rep *Report, err error) {
				if err != nil {
					t.Error(err)
					return
				}
				downtimes = append(downtimes, rep.Downtime)
			})
	}
	r.clock.Run()
	for _, d := range downtimes {
		if d > 20*time.Millisecond {
			t.Fatalf("kvmtool downtime = %v, want constant ~5ms", d)
		}
	}
}

func TestRunErrors(t *testing.T) {
	r := newRig(t)
	gotErr := func(p Params) error {
		var err error
		Run(r.clock, p, func(_ *Report, e error) { err = e })
		r.clock.Run()
		return err
	}
	recv := NewReceiver(r.clock, r.destK, 1)
	if err := gotErr(Params{Link: r.link, Source: r.src, Dest: recv, VMID: 99}); err == nil {
		t.Fatal("unknown VM accepted")
	}
	vm := r.createVM(t, "paused", 1, 1)
	r.src.Pause(vm.ID)
	if err := gotErr(Params{Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID}); err == nil {
		t.Fatal("paused VM accepted")
	}
}

func TestDriversSurviveMigration(t *testing.T) {
	r := newRig(t)
	vm := r.createVM(t, "drv", 1, 1)
	g := vm.Guest
	// Migration does not use the unplug protocol; drivers stay running.
	rep := migrate(t, r, NewReceiver(r.clock, r.destK, 1), vm.ID, 0)
	if !g.AllDriversRunning() {
		t.Fatal("drivers not running after migration")
	}
	if rep.DestVM.Guest != g {
		t.Fatal("guest not attached to destination VM")
	}
}

// §4.2.3: pass-through devices forbid live migration; only InPlaceTP can
// transplant such VMs.
func TestPassthroughVMRefusesMigration(t *testing.T) {
	r := newRig(t)
	vm, err := r.src.CreateVM(hv.Config{
		Name: "gpu-vm", VCPUs: 1, MemBytes: 1 << 30, HugePages: true,
		Seed: 3, PassthroughDevices: []string{"gpu0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	var gotErr error
	Run(r.clock, Params{
		Link: r.link, Source: r.src,
		Dest: NewReceiver(r.clock, r.destK, 1), VMID: vm.ID,
	}, func(_ *Report, e error) { gotErr = e })
	r.clock.Run()
	if gotErr == nil {
		t.Fatal("migration of pass-through VM accepted")
	}
	// The VM is untouched: still present and running on the source.
	if got, ok := r.src.LookupVM(vm.ID); !ok || got.Paused() {
		t.Fatal("refused migration disturbed the VM")
	}
}

// A link failure mid-migration surfaces as an error and leaves the source
// VM intact (paused at worst, never destroyed).
func TestLinkAbortFailsMigrationCleanly(t *testing.T) {
	r := newRig(t)
	vm := r.createVM(t, "doomed", 1, 1)
	var gotErr error
	var report *Report
	Run(r.clock, Params{
		Link: r.link, Source: r.src,
		Dest: NewReceiver(r.clock, r.destK, 1), VMID: vm.ID,
	}, func(rep *Report, err error) { report, gotErr = rep, err })
	// Let the first round get underway, then cut the link by aborting
	// all of its in-flight transfers.
	r.clock.RunUntil(2 * time.Second)
	abortAllTransfers(t, r)
	r.clock.Run()
	if gotErr == nil {
		t.Fatal("aborted migration reported success")
	}
	if report != nil {
		t.Fatal("aborted migration produced a report")
	}
	// Source VM still exists.
	if _, ok := r.src.LookupVM(vm.ID); !ok {
		t.Fatal("source VM destroyed by failed migration")
	}
}

// abortAllTransfers models a link failure: every in-flight transfer is
// severed.
func abortAllTransfers(t *testing.T, r *rig) {
	t.Helper()
	if r.link.ActiveTransfers() == 0 {
		t.Fatal("no transfer to abort")
	}
	r.link.AbortAll()
}

// Auto-converge: a guest dirtying pages near the link rate would blow the
// downtime budget; throttling it shrinks the final stop-and-copy set.
func TestAutoConvergeShrinksDowntime(t *testing.T) {
	// ~30500 pages/s on a ~30500 pages/s link: barely divergent.
	const hotRate = 31000

	run := func(auto bool, seed uint64) *Report {
		r := newRig(t)
		vm := r.createVM(t, "hot", 1, 1)
		var report *Report
		var gotErr error
		Run(r.clock, Params{
			Link: r.link, Source: r.src,
			Dest:                 NewReceiver(r.clock, r.destK, seed),
			VMID:                 vm.ID,
			DirtyRatePagesPerSec: hotRate,
			AutoConverge:         auto,
		}, func(rep *Report, err error) { report, gotErr = rep, err })
		r.clock.Run()
		if gotErr != nil {
			t.Fatal(gotErr)
		}
		return report
	}

	plain := run(false, 1)
	throttled := run(true, 2)
	if throttled.ThrottleLevel == 0 {
		t.Fatal("auto-converge never escalated")
	}
	if plain.ThrottleLevel != 0 {
		t.Fatal("throttle applied without AutoConverge")
	}
	if throttled.Downtime >= plain.Downtime {
		t.Fatalf("auto-converge did not shrink downtime: %v vs %v",
			throttled.Downtime, plain.Downtime)
	}
	// The throttled migration pays with more rounds/time, not more
	// downtime.
	if throttled.Rounds <= plain.Rounds {
		t.Fatal("auto-converge did not buy extra rounds")
	}
}

// An injected link sever mid-stream must be absorbed by the retry layer:
// the attempt rolls back (source resumed, partial destination destroyed)
// and the restarted pre-copy completes with the guest image intact.
func TestRetryRecoversFromSeveredLink(t *testing.T) {
	r := newRig(t)
	vm := r.createVM(t, "flaky", 2, 1)
	sumBefore, err := vm.Space.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	r.link.SetFaults(fault.NewPlan(1, 0).ForceAt(fault.SiteLinkAbort, 1).SetClock(r.clock))
	recv := NewReceiver(r.clock, r.destK, 7)
	var rep *Report
	var gotErr error
	Run(r.clock, Params{
		Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID,
		Retry: fault.DefaultRetryPolicy(),
	}, func(rr *Report, e error) { rep, gotErr = rr, e })
	r.clock.Run()
	if gotErr != nil {
		t.Fatal(gotErr)
	}
	if rep.Attempts != 2 || rep.Outcome != hterr.OutcomeRecovered {
		t.Fatalf("attempts=%d outcome=%q, want 2/recovered", rep.Attempts, rep.Outcome)
	}
	sumAfter, err := rep.DestVM.Space.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	if sumAfter != sumBefore {
		t.Fatal("guest image changed across fault + retry")
	}
	if _, ok := r.src.LookupVM(vm.ID); ok {
		t.Fatal("source VM still present after completed migration")
	}
	if s := rep.Summary(); s.Kind != "migration" || s.Attempts != 2 || s.Faults != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

// When every attempt's stream is severed, the migration aborts to
// source: the error wraps ErrAborted, and the VM still runs on the
// source, unpaused, with its memory untouched.
func TestExhaustedRetriesAbortToSource(t *testing.T) {
	r := newRig(t)
	vm := r.createVM(t, "doomed", 2, 1)
	sumBefore, _ := vm.Space.ChecksumAll()
	plan := fault.NewPlan(1, 0).
		ForceAt(fault.SiteLinkAbort, 1).
		ForceAt(fault.SiteLinkAbort, 2).
		SetClock(r.clock)
	r.link.SetFaults(plan)
	recv := NewReceiver(r.clock, r.destK, 7)
	var gotErr error
	Run(r.clock, Params{
		Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID,
		Retry: fault.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond, Multiplier: 2},
	}, func(_ *Report, e error) { gotErr = e })
	r.clock.Run()
	if !errors.Is(gotErr, hterr.ErrAborted) || !errors.Is(gotErr, hterr.ErrInjected) {
		t.Fatalf("err = %v, want aborted+injected", gotErr)
	}
	got, ok := r.src.LookupVM(vm.ID)
	if !ok || got.Paused() {
		t.Fatalf("source VM not running after abort (ok=%v)", ok)
	}
	sumAfter, _ := vm.Space.ChecksumAll()
	if sumAfter != sumBefore {
		t.Fatal("source memory changed by aborted migration")
	}
	if n := len(r.destK.VMs()); n != 0 {
		t.Fatalf("%d orphan VMs left on destination after abort", n)
	}
}

// Precondition failures are classified incompatible, not retryable.
func TestPassthroughClassifiedIncompatible(t *testing.T) {
	r := newRig(t)
	vm, err := r.src.CreateVM(hv.Config{
		Name: "pinned", VCPUs: 1, MemBytes: 1 << 30,
		HugePages: true, Seed: 42, PassthroughDevices: []string{"nic0"},
	})
	if err != nil {
		t.Fatal(err)
	}
	recv := NewReceiver(r.clock, r.destK, 7)
	var gotErr error
	Run(r.clock, Params{Link: r.link, Source: r.src, Dest: recv, VMID: vm.ID},
		func(_ *Report, e error) { gotErr = e })
	r.clock.Run()
	if !errors.Is(gotErr, hterr.ErrIncompatibleTarget) {
		t.Fatalf("err = %v, want ErrIncompatibleTarget", gotErr)
	}
	if hterr.IsRetryable(gotErr) {
		t.Fatal("incompatible target must not be retryable")
	}
}
