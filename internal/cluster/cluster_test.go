package cluster

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/sched"
	"hypertp/internal/simtime"
)

func paperCluster(t *testing.T) *Cluster {
	t.Helper()
	c, err := New(Config{Hosts: 10, VMsPerHost: 10, StreamFrac: 0.3, CPUFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewClusterShape(t *testing.T) {
	c := paperCluster(t)
	if len(c.Hosts()) != 10 || c.VMCount() != 100 {
		t.Fatalf("cluster shape %d hosts / %d VMs", len(c.Hosts()), c.VMCount())
	}
	classes := map[WorkloadClass]int{}
	for id := 0; id < c.VMCount(); id++ {
		vm, ok := c.VM(id)
		if !ok {
			t.Fatalf("VM %d missing", id)
		}
		classes[vm.Class]++
		if vm.MemBytes != 4<<30 || vm.VCPUs != 1 {
			t.Fatal("VM size not 1 vCPU / 4 GB")
		}
	}
	if classes[WorkStream] != 30 || classes[WorkCPU] != 30 || classes[WorkIdle] != 40 {
		t.Fatalf("workload mix = %v, want 30/30/40", classes)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestNewClusterErrors(t *testing.T) {
	if _, err := New(Config{Hosts: 1, VMsPerHost: 10}); err == nil {
		t.Fatal("single-host cluster accepted")
	}
	if _, err := New(Config{Hosts: 10, VMsPerHost: 0}); err == nil {
		t.Fatal("empty hosts accepted")
	}
	// Overloaded host.
	if _, err := New(Config{Hosts: 2, VMsPerHost: 50, VMRam: 4 << 30, VMVCPUs: 1}); err == nil {
		t.Fatal("over-capacity build accepted")
	}
}

func TestSetInPlaceCompatibleFraction(t *testing.T) {
	c := paperCluster(t)
	c.SetInPlaceCompatibleFraction(0.8, 1)
	n := 0
	for id := 0; id < c.VMCount(); id++ {
		vm, _ := c.VM(id)
		if vm.InPlaceCompatible {
			n++
		}
	}
	if n != 80 {
		t.Fatalf("compatible VMs = %d, want 80", n)
	}
}

// Fig. 13 anchor: the all-migration plan needs ~154 migrations (>100: the
// re-migration cascade), and rising InPlaceTP fractions shrink both the
// count and the time, by ~80% at 80% compatibility.
func TestFig13Shape(t *testing.T) {
	run := func(frac float64) Result {
		c := paperCluster(t)
		c.SetInPlaceCompatibleFraction(frac, 42)
		plan, err := c.PlanUpgrade(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
		return serial(t, plan, nil)
	}
	base := run(0)
	if base.Migrations < 120 || base.Migrations > 185 {
		t.Fatalf("0%% compatible migrations = %d, want ~154", base.Migrations)
	}
	// Every VM migrated at least once; the excess is the cascade.
	if base.Migrations <= 100 {
		t.Fatal("no re-migration cascade")
	}
	// Paper: total pure-migration upgrade takes up to ~19 min.
	if base.TotalTime < 12*time.Minute || base.TotalTime > 26*time.Minute {
		t.Fatalf("0%% total time = %v, want ~19min", base.TotalTime)
	}

	r20 := run(0.2)
	r60 := run(0.6)
	r80 := run(0.8)
	if !(r20.Migrations < base.Migrations && r60.Migrations < r20.Migrations && r80.Migrations < r60.Migrations) {
		t.Fatalf("migration counts not decreasing: %d %d %d %d",
			base.Migrations, r20.Migrations, r60.Migrations, r80.Migrations)
	}
	if r80.Migrations < 15 || r80.Migrations > 40 {
		t.Fatalf("80%% compatible migrations = %d, want ~25", r80.Migrations)
	}
	gain := func(r Result) float64 {
		return 1 - float64(r.TotalTime)/float64(base.TotalTime)
	}
	if g := gain(r20); g < 0.08 || g > 0.30 {
		t.Fatalf("20%% time gain = %.2f, want ~0.17", g)
	}
	if g := gain(r60); g < 0.50 || g > 0.80 {
		t.Fatalf("60%% time gain = %.2f, want ~0.68", g)
	}
	if g := gain(r80); g < 0.70 || g > 0.92 {
		t.Fatalf("80%% time gain = %.2f, want ~0.80", g)
	}
	// Paper headline: 80% compatible upgrade ≈ 3 min 54 s.
	if r80.TotalTime < 2*time.Minute || r80.TotalTime > 6*time.Minute {
		t.Fatalf("80%% total time = %v, want ~3m54s", r80.TotalTime)
	}
}

func TestPlanUpgradeGroupSizes(t *testing.T) {
	for _, gs := range []int{1, 2, 5} {
		c := paperCluster(t)
		plan, err := c.PlanUpgrade(gs, nil)
		if err != nil {
			t.Fatalf("group size %d: %v", gs, err)
		}
		wantGroups := (10 + gs - 1) / gs
		if len(plan.Groups) != wantGroups {
			t.Fatalf("group size %d: %d groups, want %d", gs, len(plan.Groups), wantGroups)
		}
		for _, h := range c.Hosts() {
			if !h.Upgraded {
				t.Fatalf("host %d not upgraded", h.ID)
			}
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPlanUpgradeBadGroupSize(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.PlanUpgrade(0, nil); err == nil {
		t.Fatal("group size 0 accepted")
	}
	if _, err := c.PlanUpgrade(10, nil); err == nil {
		t.Fatal("group size = cluster accepted")
	}
}

func TestInPlaceCompatibleVMsNeverMigrate(t *testing.T) {
	c := paperCluster(t)
	c.SetInPlaceCompatibleFraction(0.5, 7)
	if _, err := c.PlanUpgrade(1, nil); err != nil {
		t.Fatal(err)
	}
	for id := 0; id < c.VMCount(); id++ {
		vm, _ := c.VM(id)
		if vm.InPlaceCompatible && vm.Migrations != 0 {
			t.Fatalf("compatible VM %d migrated %d times", id, vm.Migrations)
		}
	}
}

func TestOfflineGroupsEndEmptyOfMigratableVMs(t *testing.T) {
	c := paperCluster(t)
	plan, err := c.PlanUpgrade(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With 0% compatible, every group's hosts must be empty right after
	// their group is processed — since later groups only add VMs to
	// online hosts, we check migrations never target offline hosts.
	for _, g := range plan.Groups {
		inGroup := map[int]bool{}
		for _, h := range g.Hosts {
			inGroup[h] = true
		}
		for _, m := range g.Migrations {
			if inGroup[m.To] {
				t.Fatalf("migration into offline host %d", m.To)
			}
			if !inGroup[m.From] {
				t.Fatalf("migration from host %d outside the offline group", m.From)
			}
		}
	}
}

func TestExecuteModelAccounting(t *testing.T) {
	p := &Plan{Groups: []GroupPlan{
		{Migrations: []Migration{{Bytes: 4 << 30}}, InPlaceVMs: 0},
		{InPlaceVMs: 3},
	}}
	m := DefaultExecutionModel()
	res := serial(t, p, nil)
	if res.Migrations != 1 {
		t.Fatalf("migrations = %d", res.Migrations)
	}
	wantMig := time.Duration(float64(4<<30)/float64(m.LinkByteRate)*float64(time.Second)) + m.PerMigrationOverhead
	if res.MigrationTime != wantMig {
		t.Fatalf("migration time = %v, want %v", res.MigrationTime, wantMig)
	}
	if res.InPlaceTime != 2*m.InPlaceHostTime {
		t.Fatalf("inplace time = %v", res.InPlaceTime)
	}
	if res.TotalTime != res.MigrationTime+res.InPlaceTime {
		t.Fatal("total != sum")
	}
}

func TestMigrationCountPerVM(t *testing.T) {
	c := paperCluster(t)
	plan, _ := c.PlanUpgrade(1, nil)
	perVM := map[int]int{}
	for _, g := range plan.Groups {
		for _, m := range g.Migrations {
			perVM[m.VMID]++
		}
	}
	for id := 0; id < c.VMCount(); id++ {
		vm, _ := c.VM(id)
		if vm.Migrations != perVM[id] {
			t.Fatalf("VM %d migration count mismatch", id)
		}
		if vm.Migrations < 1 {
			t.Fatalf("VM %d never migrated in a 0%%-compatible upgrade", id)
		}
	}
}

// raceEnabled is set by race_test.go. The race detector drops fmt's
// pooled buffers at random, so allocation counts are not exact under it.
// The budget below counts with the collector off for the same reason: a
// collection empties those pools, and when one lands is not a count.
var raceEnabled bool

// TestUpgradeAllocBudget pins one Fig. 13 upgrade at one worker, the
// cluster build included: the paper's 10 x 10 cluster at 40 %
// InPlaceTP-compatible, planned in groups of one and executed serially.
// The count is exact in every process: a host's VMs are a sorted slice,
// not a map whose growth under the plan's deletes followed its hash seed
// (1848 to 1851 allocations from one launch to the next).
func TestUpgradeAllocBudget(t *testing.T) {
	const budget = 1806
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	upgrade := func() {
		c := paperCluster(t)
		c.SetInPlaceCompatibleFraction(0.4, 20210426)
		plan, err := c.PlanUpgrade(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		serial(t, plan, nil)
	}
	upgrade()
	if n := testing.AllocsPerRun(2, upgrade); n > budget {
		t.Errorf("upgrade allocated %v times, budget %v", n, budget)
	}
}

// serial times plan on the sequential schedule, recording spans into rec
// (nil: untraced).
func serial(t *testing.T, plan *Plan, rec *obs.Recorder) Result {
	t.Helper()
	res, err := plan.Execute(DefaultExecutionModel(), rec, sched.Serial())
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Concurrent scheduling compresses the upgrade makespan without
// changing the plan's migration count or in-place accounting, and the
// emitted span tree stays well-nested.
func TestExecuteCompressesMakespan(t *testing.T) {
	c := paperCluster(t)
	c.SetInPlaceCompatibleFraction(0.5, 42)
	plan, err := c.PlanUpgrade(2, nil)
	if err != nil {
		t.Fatal(err)
	}
	m := DefaultExecutionModel()
	ser := serial(t, plan, nil)

	rec := obs.NewRecorder(simtime.NewClock())
	aud := &obs.Auditor{}
	rec.AddSink(aud)
	conc, err := plan.Execute(m, rec, sched.Limits{LinkStreams: 8, MaxKexecs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if conc.Migrations != ser.Migrations {
		t.Fatalf("migrations %d != %d", conc.Migrations, ser.Migrations)
	}
	if conc.InPlaceTime != ser.InPlaceTime {
		t.Fatalf("inplace time %v != %v", conc.InPlaceTime, ser.InPlaceTime)
	}
	if conc.TotalTime >= ser.TotalTime {
		t.Fatalf("concurrent %v not faster than serial %v", conc.TotalTime, ser.TotalTime)
	}
	if vs := aud.Violations(); vs != nil {
		t.Fatalf("span violations: %v", vs)
	}
}

// A kexec budget below the group size can never admit the group's
// parallel in-place window: Execute reports starvation rather than
// hanging or silently serializing the kexecs.
func TestExecuteStarvedKexecBudget(t *testing.T) {
	c := paperCluster(t)
	c.SetInPlaceCompatibleFraction(1.0, 42)
	plan, err := c.PlanUpgrade(4, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, err = plan.Execute(DefaultExecutionModel(), nil, sched.Limits{MaxKexecs: 2})
	if !errors.Is(err, sched.ErrStarved) {
		t.Fatalf("err = %v, want ErrStarved", err)
	}
}

// An injected host failure quarantines the host and re-plans its VMs;
// the fleet upgrade completes degraded with every VM still placed.
func TestRollingUpgradeQuarantinesFailedHost(t *testing.T) {
	c, err := New(Config{Hosts: 8, VMsPerHost: 6, StreamFrac: 0.3, CPUFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c.SetInPlaceCompatibleFraction(0.5, 1)
	total := c.VMCount()
	plan, err := c.PlanUpgrade(2, fault.NewPlan(3, 0).ForceAt(fault.SiteClusterHost, 3))
	if err != nil {
		t.Fatal(err)
	}
	res := serial(t, plan, nil)
	if res.Outcome != "degraded" || res.Faults != 1 || len(res.FailedHosts) != 1 {
		t.Fatalf("result = %+v", res)
	}
	failed := res.FailedHosts[0]
	var quarantined *Host
	upgraded := 0
	for _, h := range c.Hosts() {
		if h.ID == failed {
			quarantined = h
		}
		if h.Upgraded {
			upgraded++
		}
	}
	if quarantined == nil || !quarantined.Quarantined || quarantined.Upgraded {
		t.Fatalf("failed host %d not quarantined", failed)
	}
	if upgraded != len(c.Hosts())-1 {
		t.Fatalf("%d hosts upgraded, want %d", upgraded, len(c.Hosts())-1)
	}
	if res.ReplannedVMs == 0 {
		t.Fatal("no VMs re-planned off the quarantined host")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Every VM is still placed exactly once: none lost.
	placed := 0
	for _, h := range c.Hosts() {
		placed += len(h.VMs())
	}
	if placed != total {
		t.Fatalf("%d VMs placed, want %d", placed, total)
	}
	if s := res.Summary(); s.Kind != "cluster" || s.Outcome != "degraded" || s.Faults != 1 {
		t.Fatalf("summary = %+v", s)
	}
}

// spanSink collects every streamed span record.
type spanSink struct{ recs []obs.SpanRecord }

func (s *spanSink) Consume(root []obs.SpanRecord) { s.recs = append(s.recs, root...) }

// rollingUpgrade plans and times one rolling upgrade of an 8-host x
// 6-VM cluster with cluster.host failing at rate 0.3 under seed (seed 0:
// fault-free), and returns the result with the streamed span records.
func rollingUpgrade(t *testing.T, group int, frac float64, seed uint64, limits sched.Limits) (Result, []obs.SpanRecord) {
	t.Helper()
	c, err := New(Config{Hosts: 8, VMsPerHost: 6, StreamFrac: 0.3, CPUFrac: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	c.SetInPlaceCompatibleFraction(frac, 1)
	var faults *fault.Plan
	if seed != 0 {
		faults = fault.NewPlan(seed, 0.3).Restrict(fault.SiteClusterHost)
	}
	plan, err := c.PlanUpgrade(group, faults)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	rec := obs.NewRecorder(nil)
	sink := &spanSink{}
	aud := &obs.Auditor{}
	rec.AddSink(sink)
	rec.AddSink(aud)
	res, err := plan.Execute(DefaultExecutionModel(), rec, limits)
	if err != nil {
		t.Fatal(err)
	}
	if vs := aud.Violations(); vs != nil {
		t.Fatalf("group %d, %.1f compatible, seed %d: span violations: %v", group, frac, seed, vs)
	}
	if root := sink.recs[0]; root.Name != "rolling-upgrade" || root.End != res.TotalTime {
		t.Fatalf("root %q ends at %v, result total %v", root.Name, root.End, res.TotalTime)
	}
	return res, sink.recs
}

// The degraded upgrade's span tree is well-nested and re-plans sit where
// Result charges them: after the in-place window in which their host
// failed. The fault-free plan of the same cluster completes clean.
func TestRollingUpgradeSpansAudit(t *testing.T) {
	replans := 0
	for _, group := range []int{1, 2, 3} {
		for _, frac := range []float64{0.5, 0.8} {
			clean, _ := rollingUpgrade(t, group, frac, 0, sched.Serial())
			if clean.Outcome != "completed" || len(clean.FailedHosts) != 0 || clean.ReplannedVMs != 0 {
				t.Fatalf("fault-free upgrade reported %+v", clean)
			}
			for seed := uint64(1); seed <= 40; seed++ {
				res, recs := rollingUpgrade(t, group, frac, seed, sched.Serial())
				windowEnd := map[int]time.Duration{} // group span id -> in-place end
				for _, r := range recs {
					switch {
					case r.Name == "inplace-upgrade":
						windowEnd[r.Parent] = r.End
					case strings.HasPrefix(r.Name, "replan:"):
						replans++
						if end, ok := windowEnd[r.Parent]; !ok || r.Start < end {
							t.Fatalf("group %d, %.1f compatible, seed %d: %s starts at %v, before its window ends at %v",
								group, frac, seed, r.Name, r.Start, end)
						}
					}
				}
				if (res.Faults > 0) != (res.Outcome == "degraded") {
					t.Fatalf("seed %d: %d faults but outcome %q", seed, res.Faults, res.Outcome)
				}
			}
		}
	}
	if replans == 0 {
		t.Fatal("no seed re-planned a VM: the audit checked nothing")
	}
}

// Under concurrent limits the rolling gate holds: no VM moves again
// before its previous move — a re-plan included — has landed, and the
// schedule is deterministic.
func TestRollingUpgradeConcurrentGate(t *testing.T) {
	limits := sched.Limits{LinkStreams: 8, MaxKexecs: 4}
	movedAfterReplan := 0
	for _, group := range []int{1, 2, 3} {
		for _, frac := range []float64{0.5, 0.8} {
			for seed := uint64(1); seed <= 40; seed++ {
				res, recs := rollingUpgrade(t, group, frac, seed, limits)
				again, _ := rollingUpgrade(t, group, frac, seed, limits)
				if fmt.Sprintf("%+v", res) != fmt.Sprintf("%+v", again) {
					t.Fatalf("concurrent schedule not deterministic: %+v vs %+v", res, again)
				}
				landed := map[string]time.Duration{} // VM -> end of its last move
				replanned := map[string]bool{}
				for _, r := range recs {
					kind, vm, ok := strings.Cut(r.Name, ":vm-")
					if !ok {
						continue
					}
					if end, moved := landed[vm]; moved && r.Start < end {
						t.Fatalf("group %d, %.1f compatible, seed %d: vm-%s %s starts at %v before its previous move lands at %v",
							group, frac, seed, vm, kind, r.Start, end)
					}
					if replanned[vm] {
						movedAfterReplan++
					}
					landed[vm] = r.End
					replanned[vm] = kind == "replan"
				}
			}
		}
	}
	if movedAfterReplan == 0 {
		t.Fatal("no re-planned VM moved again: the gate was never exercised")
	}
}
