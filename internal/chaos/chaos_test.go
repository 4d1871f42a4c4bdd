package chaos

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hypertp/internal/par"
)

// soakConfig is the shared short-soak shape: enough ops to hit every op
// kind and plenty of injected faults, small enough for tier-1.
func soakConfig() Config {
	return Config{Seed: 20210426, Ops: 110, Hosts: 4, VMs: 6, FaultRate: 0.15}
}

// TestChaosSoakShort is the tier-1 soak: a randomized scenario under
// fault injection must end with every invariant intact.
func TestChaosSoakShort(t *testing.T) {
	res, err := Run(soakConfig())
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("invariant violated:\n%s", res.Summary())
	}
	if res.Executed != res.Config.Ops {
		t.Fatalf("executed %d of %d ops", res.Executed, res.Config.Ops)
	}
	if res.OpErrors == 0 {
		t.Fatal("soak with fault injection recorded no op errors — injection is not reaching the stack")
	}
	if res.Faulted == 0 {
		t.Fatal("no op carried a fault plan")
	}
	kinds := map[string]bool{}
	for _, op := range res.Ops {
		kinds[op.Kind] = true
	}
	for _, k := range []string{OpWorkload, OpMigrate, OpUpgrade, OpRespond, OpRespondFleet, OpQuarantine, OpReturn, OpLinkDown, OpLinkUp, OpSweep, OpWarmPoolRefill} {
		if !kinds[k] {
			t.Errorf("generated stream never produced op kind %q", k)
		}
	}
}

// TestChaosSoakCached: the same soak with the transplant cache and warm
// pool enabled must hold every invariant — caching shares page-level
// state between transplants, so this is the auditor's check that shared
// cache entries never leak frames or corrupt guest memory — and stay
// deterministic across worker counts.
func TestChaosSoakCached(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := soakConfig()
	cfg.Cache = true
	var traces [][]string
	var stats []string
	for _, w := range []int{1, 8} {
		par.SetWorkers(w)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure != nil {
			t.Fatalf("invariant violated with caching enabled:\n%s", res.Summary())
		}
		if res.Executed != cfg.Ops {
			t.Fatalf("executed %d of %d ops", res.Executed, cfg.Ops)
		}
		if res.CacheStats.Hits+res.CacheStats.Misses == 0 {
			t.Fatal("cached soak never consulted the cache")
		}
		traces = append(traces, res.Trace)
		stats = append(stats, res.CacheStats.String())
	}
	for j := range traces[0] {
		if traces[1][j] != traces[0][j] {
			t.Fatalf("cached trace line %d differs across worker counts:\n%s\nvs\n%s",
				j, traces[0][j], traces[1][j])
		}
	}
	t.Logf("cache stats: %s / %s", stats[0], stats[1])
}

// TestChaosCrashSoak is the reactive-recovery acceptance soak: 500 ops
// with the crash vocabulary enabled — fail-stops, hangs, fleet-wide
// crash storms and mid-transplant double faults — must end with every
// invariant intact (frame ownership, guest checksums, Nova bookkeeping
// survive every emergency recovery) and the whole run byte-identical
// at any worker count.
func TestChaosCrashSoak(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := Config{Seed: 20210426, Ops: 500, Hosts: 6, VMs: 8, FaultRate: 0.15, Crash: true}
	workers := []int{1, 4, 8}
	if testing.Short() {
		workers = []int{8}
	}
	var summaries []string
	var traces [][]string
	for _, w := range workers {
		par.SetWorkers(w)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure != nil {
			t.Fatalf("invariant violated on crash soak:\n%s", res.Summary())
		}
		if res.Executed != cfg.Ops {
			t.Fatalf("executed %d of %d ops", res.Executed, cfg.Ops)
		}
		kinds := map[string]int{}
		for _, op := range res.Ops {
			kinds[op.Kind]++
		}
		for _, k := range []string{OpCrashHV, OpCrashStorm, OpCrashDuringTransplant} {
			if kinds[k] == 0 {
				t.Errorf("crash soak never produced op kind %q", k)
			}
		}
		recovered := 0
		for _, line := range res.Trace {
			if strings.Contains(line, "recovered") {
				recovered++
			}
		}
		if recovered == 0 {
			t.Fatal("no crash completed an emergency recovery")
		}
		summaries = append(summaries, res.Summary())
		traces = append(traces, res.Trace)
	}
	for i := 1; i < len(summaries); i++ {
		if summaries[i] != summaries[0] {
			t.Fatalf("crash-soak summary differs between workers=%d and workers=%d:\n%s\nvs\n%s",
				workers[0], workers[i], summaries[0], summaries[i])
		}
		for j := range traces[0] {
			if traces[i][j] != traces[0][j] {
				t.Fatalf("crash-soak trace line %d differs across worker counts:\n%s\nvs\n%s",
					j, traces[0][j], traces[i][j])
			}
		}
	}
}

// TestGenerateCrashGatedStream: with Crash unset the generator must emit
// the exact same stream it always has — the crash vocabulary is carved
// out without disturbing pinned seeds — and with Crash set the stream
// includes all three crash kinds.
func TestGenerateCrashGatedStream(t *testing.T) {
	base := soakConfig()
	withCrash := base
	withCrash.Crash = true
	plain, crash := Generate(base), Generate(withCrash)
	crashKinds := map[string]bool{OpCrashHV: true, OpCrashStorm: true, OpCrashDuringTransplant: true}
	for i := range plain {
		if crashKinds[plain[i].Kind] {
			t.Fatalf("op %d: crash kind %q generated with Config.Crash off", i, plain[i].Kind)
		}
		// Up to the first substituted crash op the two streams draw the
		// same randomness, so they must agree op for op. (Past it the
		// draws diverge by design.)
		if crashKinds[crash[i].Kind] {
			break
		}
		if crash[i] != plain[i] {
			t.Fatalf("op %d drifted before any crash op was generated: %+v vs %+v", i, plain[i], crash[i])
		}
	}
	seen := map[string]bool{}
	for _, op := range crash {
		seen[op.Kind] = true
	}
	for k := range crashKinds {
		if !seen[k] {
			t.Errorf("crash-enabled stream never produced %q", k)
		}
	}
}

// TestGenerateDeterministic: the op stream is a pure function of the
// seed — and independent of the fault rate, so a fault-free replay of a
// faulty run executes the same operations.
func TestGenerateDeterministic(t *testing.T) {
	cfg := soakConfig()
	a, b := Generate(cfg), Generate(cfg)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("op %d differs across identical generations: %+v vs %+v", i, a[i], b[i])
		}
	}
	noFaults := cfg
	noFaults.FaultRate = 0
	c := Generate(noFaults)
	for i := range a {
		ac := a[i]
		ac.Fault = 0
		if ac != c[i] {
			t.Fatalf("op %d depends on the fault rate: %+v vs %+v", i, a[i], c[i])
		}
		if c[i].Fault != 0 {
			t.Fatalf("op %d carries a fault seed at rate 0", i)
		}
	}
	other := Generate(Config{Seed: cfg.Seed + 1, Ops: cfg.Ops, Hosts: cfg.Hosts, VMs: cfg.VMs})
	same := 0
	for i := range a {
		if a[i].Kind == other[i].Kind {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds generated identical op streams")
	}
}

// TestRunDeterministicAcrossWorkers: the whole run — trace, summary,
// virtual time — must be identical at any worker-pool size.
func TestRunDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	var summaries []string
	var traces [][]string
	for _, w := range []int{1, 4, 8} {
		par.SetWorkers(w)
		res, err := Run(soakConfig())
		if err != nil {
			t.Fatal(err)
		}
		summaries = append(summaries, res.Summary())
		traces = append(traces, res.Trace)
	}
	for i := 1; i < len(summaries); i++ {
		if summaries[i] != summaries[0] {
			t.Fatalf("summary differs between workers=1 and workers=%d:\n%s\nvs\n%s",
				[]int{1, 4, 8}[i], summaries[0], summaries[i])
		}
		for j := range traces[0] {
			if traces[i][j] != traces[0][j] {
				t.Fatalf("trace line %d differs across worker counts:\n%s\nvs\n%s",
					j, traces[0][j], traces[i][j])
			}
		}
	}
}

// TestChaosStreamingBounded: a soak must hold every invariant while
// keeping span memory bounded — the forest is released as roots end,
// and the flight recorder never holds more than pinned+ring records —
// and stay deterministic across worker counts.
func TestChaosStreamingBounded(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := soakConfig()
	cfg.Ops = 400 // enough spans to wrap the flight recorder's ring
	var summaries []string
	for _, w := range []int{1, 8} {
		par.SetWorkers(w)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure != nil {
			t.Fatalf("invariant violated on a bounded run:\n%s", res.Summary())
		}
		if res.Flight == nil {
			t.Fatal("run carried no flight recorder")
		}
		if res.Flight.Total() <= uint64(res.Flight.Cap()) {
			t.Fatalf("soak streamed only %d records through a cap-%d ring — not exercising eviction",
				res.Flight.Total(), res.Flight.Cap())
		}
		if got, max := res.Flight.Len(), 2*res.Flight.Cap(); got > max {
			t.Fatalf("flight recorder holds %d records, bound is %d", got, max)
		}
		// The forest must not accumulate: ended roots are released, so
		// only spans still open at run end may remain.
		if n := len(res.Obs.Roots()); n > 8 {
			t.Fatalf("run retained %d roots; forest is not being released", n)
		}
		summaries = append(summaries, res.Summary())
	}
	if summaries[1] != summaries[0] {
		t.Fatalf("summary differs between workers=1 and workers=8:\n%s\nvs\n%s",
			summaries[0], summaries[1])
	}
}

// brokenRun runs a soak with the given deliberate breaker armed and
// returns the run; it fails the test if no violation is caught.
func brokenRun(t *testing.T, breaker, wantInvariant string) *Result {
	t.Helper()
	cfg := soakConfig()
	cfg.FaultRate = 0 // keep the breaker's trigger ops error-free
	cfg.Break = breaker
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil {
		t.Fatalf("breaker %q not caught by any audit", breaker)
	}
	if res.Failure.Invariant != wantInvariant {
		t.Fatalf("breaker %q flagged as %q, want %q (%s)",
			breaker, res.Failure.Invariant, wantInvariant, res.Failure.Detail)
	}
	return res
}

// TestBreakerLeakFrameCaughtShrunkReplayed is the end-to-end negative
// path: a planted frame leak is caught, shrunk to a handful of ops, and
// the bundle replays to the same violation.
func TestBreakerLeakFrameCaughtShrunkReplayed(t *testing.T) {
	cfg := soakConfig()
	cfg.FaultRate = 0
	cfg.Break = "leak-frame"
	res := brokenRun(t, "leak-frame", "frame-ownership")

	ops, fail := Shrink(cfg, res.Ops, res.Failure)
	if len(ops) > 10 {
		t.Fatalf("shrunk reproduction has %d ops, want <= 10", len(ops))
	}
	if fail.Invariant != "frame-ownership" {
		t.Fatalf("shrinking drifted to invariant %q", fail.Invariant)
	}

	b := NewBundle(cfg, ops, fail, nil)
	data, err := b.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	replay, err := parsed.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if replay.Failure == nil || replay.Failure.Invariant != "frame-ownership" {
		t.Fatalf("replayed bundle did not reproduce the violation: %+v", replay.Failure)
	}
}

// TestBreakerCorruptMemoryCaught: a byte flipped behind the guest's
// write journal trips the memory-integrity audit.
func TestBreakerCorruptMemoryCaught(t *testing.T) {
	brokenRun(t, "corrupt-memory", "memory-integrity")
}

// TestShrinkerDeterministicAcrossWorkers: acceptance criterion — same
// seed and violation shrink to a byte-identical bundle at any
// worker-pool size.
func TestShrinkerDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	cfg := soakConfig()
	cfg.Ops = 40
	cfg.FaultRate = 0
	cfg.Break = "leak-frame"
	var bundles [][]byte
	for _, w := range []int{1, 4, 8} {
		par.SetWorkers(w)
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failure == nil {
			t.Fatal("breaker not caught")
		}
		ops, fail := Shrink(cfg, res.Ops, res.Failure)
		data, err := NewBundle(cfg, ops, fail, nil).Marshal()
		if err != nil {
			t.Fatal(err)
		}
		bundles = append(bundles, data)
	}
	for i := 1; i < len(bundles); i++ {
		if !bytes.Equal(bundles[i], bundles[0]) {
			t.Fatalf("bundle differs between workers=1 and workers=%d:\n%s\nvs\n%s",
				[]int{1, 4, 8}[i], bundles[0], bundles[i])
		}
	}
}

// TestWatchdogBudgetViolation: an op that charges more virtual time
// than the per-op budget is flagged as a livelock by the audit.
func TestWatchdogBudgetViolation(t *testing.T) {
	cfg := soakConfig()
	cfg.OpBudget = 1 // nanosecond budget: the first real op blows it
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure == nil || res.Failure.Invariant != "watchdog" {
		t.Fatalf("watchdog budget not enforced: %+v", res.Failure)
	}
	if err := res.Failure.Err(); err == nil {
		t.Fatal("watchdog failure renders a nil error")
	}
}

// TestSpanStructureViolationCaught: a malformed span tree is reported
// by the next audit once its root ends — the span auditor is wired into
// every run — and a tree still open is not judged.
func TestSpanStructureViolationCaught(t *testing.T) {
	h, err := newHarness(soakConfig().withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	op := Op{Kind: OpWorkload}
	root := h.rec.StartAt(nil, "planted", time.Second)
	root.ChildAt("early", time.Millisecond)
	if fail := h.audit(0, op); fail != nil {
		t.Fatalf("open tree judged: %+v", fail)
	}
	root.EndAt(2 * time.Second)
	fail := h.audit(1, op)
	if fail == nil || fail.Invariant != "span-structure" || !strings.Contains(fail.Detail, `child-early: span "early"`) {
		t.Fatalf("planted child-early not caught: %+v", fail)
	}
}

// TestBundleParseRejects covers the bundle validation paths.
func TestBundleParseRejects(t *testing.T) {
	if _, err := ParseBundle([]byte("not json")); err == nil {
		t.Fatal("accepted malformed JSON")
	}
	if _, err := ParseBundle([]byte(`{"version": 99, "ops": [{"kind":"workload"}]}`)); err == nil {
		t.Fatal("accepted unknown version")
	}
	if _, err := ParseBundle([]byte(`{"version": 1, "ops": []}`)); err == nil {
		t.Fatal("accepted empty op list")
	}
}
