package hypertp_test

import (
	"errors"
	"testing"
	"time"

	"hypertp"
	"hypertp/internal/cluster"
	"hypertp/internal/core"
)

// A forced pre-kexec fault rolls the transplant back: the host keeps
// its source hypervisor, every VM survives with state intact, and the
// error is classified through the public taxonomy.
func TestTransplantWithRollsBackOnInjectedFault(t *testing.T) {
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(hypertp.VMConfig{
		Name: "web", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 64)

	cfg := hypertp.NewConfig(hypertp.WithForcedFault(hypertp.SitePRAMBuild, 1))
	report, err := host.TransplantWith(hypertp.KindKVM, cfg)
	if !errors.Is(err, hypertp.ErrAborted) || !errors.Is(err, hypertp.ErrInjected) {
		t.Fatalf("err = %v, want aborted+injected classification", err)
	}
	if hypertp.IsRetryable(err) {
		t.Fatal("rolled-back transplant classified retryable")
	}
	if report == nil || report.Outcome != hypertp.OutcomeRolledBack {
		t.Fatalf("report = %+v, want rolled-back outcome", report)
	}
	if host.Kind() != hypertp.KindXen {
		t.Fatal("host left its source hypervisor on rollback")
	}
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatalf("guest state lost on rollback: %v", err)
		}
	}
}

// A post-handover crash is recovered forward: the transplant completes
// on the target and the report says it recovered.
func TestTransplantWithRecoversPastPointOfNoReturn(t *testing.T) {
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := host.CreateVM(hypertp.VMConfig{
		Name: "db", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	cfg := hypertp.NewConfig(hypertp.WithForcedFault(hypertp.SiteKexecHandover, 1))
	report, err := host.TransplantWith(hypertp.KindKVM, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report.Outcome != hypertp.OutcomeRecovered || report.Faults != 1 {
		t.Fatalf("outcome = %s faults = %d, want recovered/1", report.Outcome, report.Faults)
	}
	if host.Kind() != hypertp.KindKVM {
		t.Fatal("host not on target after recovery")
	}
	s := report.Summary()
	if s.Kind != "inplace" || s.Outcome != hypertp.OutcomeRecovered || s.Attempts < 2 {
		t.Fatalf("summary = %+v", s)
	}
}

// A severed migration stream retries under the config's policy and the
// unified Report view agrees with the concrete report.
func TestMigrateVMWithRetriesSeveredStream(t *testing.T) {
	sim := hypertp.NewSimulation()
	src, _ := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	dst, _ := sim.NewHost(hypertp.M1(), hypertp.KindKVM)
	link := sim.NewLink("pair", hypertp.Gbps(1), 100*time.Microsecond)
	vm, err := src.CreateVM(hypertp.VMConfig{
		Name: "db", VCPUs: 2, MemBytes: 1 << 30, HugePages: true, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypertp.NewConfig(hypertp.WithForcedFault(hypertp.SiteLinkAbort, 1))
	rep, err := src.MigrateVMWith(vm, link, dst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Attempts != 2 || rep.Outcome != hypertp.OutcomeRecovered {
		t.Fatalf("attempts = %d outcome = %s", rep.Attempts, rep.Outcome)
	}
	var r hypertp.Report = rep
	if s := r.Summary(); s.Kind != "migration" || s.Faults != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(dst.VMs()) != 1 || len(src.VMs()) != 0 {
		t.Fatal("VM did not move")
	}
}

// An exhausted retry budget aborts to the source through the public
// taxonomy, and the VM keeps running where it was.
func TestMigrateVMWithAbortsToSourceWhenExhausted(t *testing.T) {
	sim := hypertp.NewSimulation()
	src, _ := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	dst, _ := sim.NewHost(hypertp.M1(), hypertp.KindKVM)
	link := sim.NewLink("pair", hypertp.Gbps(1), 100*time.Microsecond)
	vm, err := src.CreateVM(hypertp.VMConfig{
		Name: "db", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := hypertp.NewConfig(
		hypertp.WithForcedFault(hypertp.SiteLinkAbort, 1),
		hypertp.WithForcedFault(hypertp.SiteLinkAbort, 2),
		hypertp.WithRetry(hypertp.RetryPolicy{MaxAttempts: 2, BaseBackoff: 10 * time.Millisecond}))
	if _, err := src.MigrateVMWith(vm, link, dst, cfg); !errors.Is(err, hypertp.ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
	if len(src.VMs()) != 1 || len(dst.VMs()) != 0 {
		t.Fatal("VM not back on source after abort")
	}
	if src.VMs()[0].Paused() {
		t.Fatal("source VM left paused after abort")
	}
}

// The config surface: defaults match the internal engine and cluster
// defaults the deprecated aliases mirror, overrides compose, and the
// site list round-trips through the parser.
func TestConfigSurface(t *testing.T) {
	cfg := hypertp.Default()
	if cfg.ClusterModel() != cluster.DefaultExecutionModel() {
		t.Fatal("Default() disagrees with cluster.DefaultExecutionModel()")
	}
	legacy := core.DefaultOptions()
	if cfg.Parallel != legacy.Parallel || cfg.HugePages != legacy.HugePages ||
		cfg.PrepareBeforePause != legacy.PrepareBeforePause ||
		cfg.EarlyRestoration != legacy.EarlyRestoration {
		t.Fatal("Default() disagrees with DefaultOptions()")
	}
	deopt := hypertp.NewConfig(hypertp.WithoutOptimizations())
	if deopt.Parallel || deopt.HugePages || deopt.PrepareBeforePause || deopt.EarlyRestoration {
		t.Fatal("WithoutOptimizations left a toggle on")
	}
	if !cfg.TranslationCache {
		t.Fatalf("cache defaults wrong: %+v", cfg)
	}
	cached := hypertp.NewConfig(hypertp.WithTranslationCache(false))
	if cached.TranslationCache {
		t.Fatalf("cache options did not apply: %+v", cached)
	}
	faulty := hypertp.NewConfig(hypertp.WithFaults(42, 0.25, hypertp.SiteHVBoot))
	if faulty.FaultSeed != 42 || faulty.FaultRate != 0.25 || len(faulty.FaultSites) != 1 {
		t.Fatalf("WithFaults config = %+v", faulty)
	}
	sites, err := hypertp.ParseFaultSites("hv.boot,link.abort")
	if err != nil || len(sites) != 2 || sites[0] != hypertp.SiteHVBoot {
		t.Fatalf("ParseFaultSites = %v, %v", sites, err)
	}
	if _, err := hypertp.ParseFaultSites("no.such.site"); err == nil {
		t.Fatal("unknown site accepted")
	}
	if len(hypertp.AllFaultSites()) < 10 {
		t.Fatal("site registry too small")
	}
	if hypertp.DefaultRetryPolicy().Attempts() < 2 {
		t.Fatal("default retry policy does not retry")
	}
}

// The simulation-wide transplant cache: repeat transplants through the
// default Config converge to cache hits, the per-report Summary carries
// the counts, and Simulation.CacheStats sees the same traffic.
// Disabling the cache keeps the stats untouched.
func TestSimulationCacheStats(t *testing.T) {
	sim := hypertp.NewSimulation()
	host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(hypertp.VMConfig{
		Name: "web", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 64)

	var hitSummaries int
	target := hypertp.KindKVM
	for hop := 0; hop < 10; hop++ {
		rep, err := host.TransplantWith(target, hypertp.Default())
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if s := rep.Summary(); s.CacheHits > 0 {
			hitSummaries++
		}
		if target == hypertp.KindKVM {
			target = hypertp.KindXen
		} else {
			target = hypertp.KindKVM
		}
	}
	st := sim.CacheStats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("cache never converged over 10 hops: %+v", st)
	}
	if hitSummaries == 0 {
		t.Fatal("no report summary carried cache hits")
	}
	for _, vm := range host.VMs() {
		if err := vm.Guest.Verify(); err != nil {
			t.Fatal(err)
		}
	}

	// A cache-disabled simulation reports zeros.
	cold := hypertp.NewSimulation()
	ch, err := cold.NewHost(hypertp.M1(), hypertp.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ch.CreateVM(hypertp.VMConfig{
		Name: "db", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := ch.TransplantWith(hypertp.KindKVM,
		hypertp.NewConfig(hypertp.WithTranslationCache(false))); err != nil {
		t.Fatal(err)
	}
	if st := cold.CacheStats(); st != (hypertp.CacheStats{}) {
		t.Fatalf("cache-disabled simulation recorded stats: %+v", st)
	}
}
