package experiments

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/par"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// TestWarmHostHeapReachesFixedPoint soaks one M1 host through 500 warm
// KVM<->Xen hops. Every hop stages an image and a resident set at the
// bump cursor, which sweeps the whole machine over the run; what the host
// keeps between hops — chunk tables, cache and snapshot entries — must
// stay what it needs at once, so the heap at hop 500 is the heap at hop
// 10, not that plus a table for every chunk the cursor has crossed.
func TestWarmHostHeapReachesFixedPoint(t *testing.T) {
	const hops, settled = 500, 10
	tb, err := newTestbed(hw.M1(), hv.KindKVM, 1, 1, GiBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = tpcache.New()
	pt := &warmPoint{tb: tb, cur: tb.hyp, opts: opts}
	heapInuse := func() uint64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	var base uint64
	for hop := 1; hop <= hops; hop++ {
		if _, err := pt.hop(); err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if hop == settled {
			base = heapInuse()
		}
	}
	if grown := int64(heapInuse()) - int64(base); grown >= 1<<20 {
		t.Fatalf("heap in use grew %d KiB from hop %d to hop %d, want < 1 MiB", grown>>10, settled, hops)
	}
	if vs := tb.mach.Mem.AuditOwners(map[int]bool{int(pt.cur.VMs()[0].ID): true}); vs != nil {
		t.Fatalf("audit after %d hops: %v", hops, vs)
	}
}

// TestWarmHopAllocBudget pins the warm payoff on one Figure 10 point (M1,
// one 1 vCPU / 1 GiB VM) by counts, which host load cannot move, through
// the mechanisms it rests on: a fingerprint chain that converges, so
// every warm hop misses the translation cache 0 times; a PRAM snapshot
// that replays, so every warm hop hits it twice, misses it never, and
// answers the target's parse from its memo once; and a captured blob
// image, so every warm hop installs the VM's blob once and answers its
// decode from the memo once. A warm KVM→Xen→KVM round trip then
// allocates a pinned count, below what a cold one allocates on the same
// testbed.
func TestWarmHopAllocBudget(t *testing.T) {
	const trips = 8
	const coldBudget, warmBudget = 238, 116
	const pramHitsPerHop, parseHitsPerHop = 2, 1
	const installsPerHop, decodeHitsPerHop = 1, 1
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	tb, err := newTestbed(hw.M1(), hv.KindKVM, 1, 1, GiBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	pt := &warmPoint{tb: tb, cur: tb.hyp, opts: core.DefaultOptions()}
	roundTrip := func() {
		for i := 0; i < 2; i++ {
			if _, err := pt.hop(); err != nil {
				t.Fatal(err)
			}
		}
	}
	cold := testing.AllocsPerRun(trips, roundTrip)

	cache := tpcache.New()
	pt.opts.Cache = cache
	for hop := 0; ; hop += 2 {
		if hop == primeHops {
			t.Fatalf("no miss-free round trip in %d hops: %+v", primeHops, cache.Stats())
		}
		before := cache.Stats()
		roundTrip()
		if cache.Stats().Sub(before).Misses == 0 {
			break
		}
	}
	before := cache.Stats()
	warm := testing.AllocsPerRun(trips, roundTrip)
	d := cache.Stats().Sub(before)
	if d.Misses != 0 {
		t.Fatalf("warm hops missed the translation cache %d times", d.Misses)
	}
	// AllocsPerRun makes one warm-up call before the counted ones.
	hops := uint64(2 * (trips + 1))
	if d.PRAMHits != pramHitsPerHop*hops || d.PRAMMisses != 0 {
		t.Errorf("PRAM snapshot over %d warm hops: %d hits, %d misses; want %d, 0",
			hops, d.PRAMHits, d.PRAMMisses, pramHitsPerHop*hops)
	}
	if d.PRAMParseHits != parseHitsPerHop*hops {
		t.Errorf("PRAM parse memo over %d warm hops: %d hits, want %d", hops, d.PRAMParseHits, parseHitsPerHop*hops)
	}
	if d.BlobInstalls != installsPerHop*hops || d.BlobDecodeHits != decodeHitsPerHop*hops {
		t.Errorf("blob memo over %d warm hops: %d installs, %d decode hits; want %d, %d",
			hops, d.BlobInstalls, d.BlobDecodeHits, installsPerHop*hops, decodeHitsPerHop*hops)
	}
	if raceEnabled {
		return
	}
	if cold > coldBudget || warm > warmBudget || warm >= cold {
		t.Errorf("round trip allocated %v times cold, %v warm; budgets %v, %v", cold, warm, coldBudget, warmBudget)
	}
}

// TestWarmHopReadsNoGuestExtent: a primed warm hop hands every guest its
// memory map by reference, end to end. Each PRAM build finds its snapshot
// entry by the maps' fingerprints and proves its fileset is the entry's
// by map identity, reading no extent; the target adopts the parse memo's
// map, which is the one the source built from, so after a round trip
// every VM holds the very map it held before.
func TestWarmHopReadsNoGuestExtent(t *testing.T) {
	tb, err := newTestbed(hw.M1(), hv.KindKVM, 3, 1, GiBytes(1))
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Cache = tpcache.New()
	pt := &warmPoint{tb: tb, cur: tb.hyp, opts: opts}
	maps := func() []uisr.MemMap {
		var out []uisr.MemMap
		for _, vm := range pt.cur.VMs() {
			out = append(out, vm.Space.Extents())
		}
		return out
	}
	roundTrip := func() tpcache.Stats {
		before := opts.Cache.Stats()
		for range 2 {
			if _, err := pt.hop(); err != nil {
				t.Fatal(err)
			}
		}
		return opts.Cache.Stats().Sub(before)
	}
	for hop := 0; ; hop += 2 {
		if hop == primeHops {
			t.Fatalf("no miss-free round trip in %d hops: %+v", primeHops, opts.Cache.Stats())
		}
		if d := roundTrip(); d.Misses == 0 && d.PRAMMisses == 0 {
			break
		}
	}
	held, snap := maps(), opts.Cache.PRAMSnapshot(tb.mach)
	reads := snap.ExtentReads()
	if d := roundTrip(); d.PRAMParseHits != 2 || snap.ExtentReads() != reads {
		t.Errorf("warm round trip: %d parse memo hits, %d extents read to match filesets; want 2, 0",
			d.PRAMParseHits, snap.ExtentReads()-reads)
	}
	for i, m := range maps() {
		if !m.Same(held[i]) {
			t.Errorf("VM %d holds a map born in the round trip, not the one it held before", i)
		}
	}
}

// TestWarmHopAllocBudgetFlatInMemory: a primed warm hop hands guest
// memory over by reference — the PRAM metadata pages and the UISR blob
// image are installed, not rewritten, their parse and decode are
// memoized, and the adopted memory map is kept as parsed — so its heap
// cost does not grow with the guest. One 1 vCPU VM on M1 at 1, 4 and
// 8 GiB must allocate the same bytes and the same pinned number of times
// per warm hop.
func TestWarmHopAllocBudgetFlatInMemory(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not exact under the race detector")
	}
	const trips, hopBudget = 4, 61
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	type cost struct{ bytes, allocs uint64 }
	var costs []cost
	for _, gib := range []int{1, 4, 8} {
		tb, err := newTestbed(hw.M1(), hv.KindKVM, 1, 1, GiBytes(gib))
		if err != nil {
			t.Fatal(err)
		}
		opts := core.DefaultOptions()
		opts.Cache = tpcache.New()
		pt := &warmPoint{tb: tb, cur: tb.hyp, opts: opts}
		hops := func(n int) {
			for i := 0; i < n; i++ {
				if _, err := pt.hop(); err != nil {
					t.Fatalf("%d GiB: %v", gib, err)
				}
			}
		}
		for hop := 0; ; hop += 2 {
			if hop == primeHops {
				t.Fatalf("%d GiB: no miss-free round trip in %d hops: %+v", gib, primeHops, opts.Cache.Stats())
			}
			before := opts.Cache.Stats()
			hops(2)
			if opts.Cache.Stats().Sub(before).Misses == 0 {
				break
			}
		}
		// The least of three trials: a one-off runtime allocation landing
		// in a trial is not a cost of the hop.
		least := cost{^uint64(0), ^uint64(0)}
		for range 3 {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			hops(2 * trips)
			runtime.ReadMemStats(&ms1)
			least.bytes = min(least.bytes, (ms1.TotalAlloc-ms0.TotalAlloc)/(2*trips))
			least.allocs = min(least.allocs, (ms1.Mallocs-ms0.Mallocs)/(2*trips))
		}
		costs = append(costs, least)
	}
	if costs[1] != costs[0] || costs[2] != costs[0] {
		t.Errorf("warm hop at 1, 4, 8 GiB allocated %+v per hop, want one cost for every size", costs)
	}
	if costs[0].allocs > hopBudget {
		t.Errorf("warm hop allocated %d times, budget %d", costs[0].allocs, hopBudget)
	}
}

// BenchmarkFigure10Warm times one fully warm pass of the Figure 10 grid:
// the same 36-point KVM<->Xen grid as Figure10, but the testbeds persist
// and every transplant cache is primed before the timer starts, so each
// iteration is one warm hop per point (translation lookups all hit, PRAM
// replayed from the snapshot). The profiling entry point of the warm
// path.
//
// The primed grid is cached across b.N trials: rebuilding its 36
// testbeds per trial would leave gigabytes of dead heap behind and tax
// the timed loop with the GC debt of setup instead of the cost of the
// warm hops.
func BenchmarkFigure10Warm(b *testing.B) {
	if warmGrid == nil {
		var err error
		if warmGrid, err = NewFigure10WarmGrid(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := warmGrid.Hop()
		if err != nil {
			b.Fatal(err)
		}
		if hits == 0 {
			b.Fatal("warm grid pass reported no cache hits")
		}
	}
}

// warmGrid is BenchmarkFigure10Warm's primed grid, built once and shared
// across the harness's b.N ramp-up trials.
var warmGrid *Figure10WarmGrid

// warmPoint is one primed grid point of the warm repeat-transplant
// benchmark: a Figure 10 testbed whose transplant cache has reached its
// fixed point, plus the hypervisor currently running on it.
type warmPoint struct {
	tb   *testbed
	cur  hv.Hypervisor
	opts core.Options
}

// hop transplants the point to the opposite hypervisor and returns the
// report.
func (p *warmPoint) hop() (*core.InPlaceReport, error) {
	target := hv.KindKVM
	if p.cur.Kind() == hv.KindKVM {
		target = hv.KindXen
	}
	dst, rep, err := p.tb.engine.InPlace(p.cur, target, p.opts)
	if err != nil {
		return nil, err
	}
	p.cur = dst
	return rep, nil
}

// Figure10WarmGrid is the warm twin of Figure10: the same 2-machine x
// 3-dimension KVM<->Xen grid, but the testbeds persist across transplants
// and each carries a transplant cache primed until every lookup hits. One
// Hop is then the grid-wide repeat-transplant pass — the steady-state
// cost a fleet pays once its caches are warm, with machine construction
// and the cold first runs excluded.
type Figure10WarmGrid struct {
	points []*warmPoint
}

// primeHops bounds the ping-pong priming loop. The fingerprint chain
// converges within a few KVM<->Xen cycles (see core's
// TestCacheConvergesToHits); a point still missing after this many hops
// means the cache is broken, and the constructor fails loudly rather
// than hand the benchmark a half-cold grid.
const primeHops = 16

// NewFigure10WarmGrid builds and primes the grid. Each point ping-pongs
// on its own testbed until one full KVM->Xen->KVM cycle completes with
// zero cache misses, so every transplant a subsequent Hop runs is warm.
func NewFigure10WarmGrid() (*Figure10WarmGrid, error) {
	profiles := []*hw.Profile{hw.M1(), hw.M2()}
	dims := []SweepDim{SweepVCPUs, SweepMemory, SweepVMs}
	type job struct {
		profile *hw.Profile
		dim     SweepDim
		x       int
	}
	var jobs []job
	for _, p := range profiles {
		for _, dim := range dims {
			for _, x := range sweepValues[dim] {
				jobs = append(jobs, job{p, dim, x})
			}
		}
	}
	points, err := par.Map(jobs, func(_ int, j job) (*warmPoint, error) {
		n, vcpus, mem := 1, 1, GiBytes(1)
		switch j.dim {
		case SweepVCPUs:
			vcpus = j.x
		case SweepMemory:
			mem = GiBytes(j.x)
		case SweepVMs:
			n = j.x
		}
		tb, err := newTestbed(j.profile, hv.KindKVM, n, vcpus, mem)
		if err != nil {
			return nil, fmt.Errorf("%s/%s x=%d: %w", j.profile.Name, j.dim, j.x, err)
		}
		opts := core.DefaultOptions()
		opts.Cache = tpcache.New()
		pt := &warmPoint{tb: tb, cur: tb.hyp, opts: opts}
		for hop := 0; hop < primeHops; hop += 2 {
			there, err := pt.hop()
			if err != nil {
				return nil, err
			}
			back, err := pt.hop()
			if err != nil {
				return nil, err
			}
			if there.CacheMisses == 0 && back.CacheMisses == 0 {
				return pt, nil
			}
		}
		return nil, fmt.Errorf("experiments: %s/%s x=%d never converged to cache hits after %d hops: %+v",
			j.profile.Name, j.dim, j.x, primeHops, opts.Cache.Stats())
	})
	if err != nil {
		return nil, err
	}
	return &Figure10WarmGrid{points: points}, nil
}

// Hop runs one warm transplant on every grid point (the direction
// alternates on each call, KVM->Xen first) and returns the total cache
// hits of the pass. Any miss is an error: the measured path must be
// fully warm, or the benchmark would silently re-time the cold path.
func (g *Figure10WarmGrid) Hop() (uint64, error) {
	reps, err := par.Map(g.points, func(_ int, p *warmPoint) (*core.InPlaceReport, error) {
		return p.hop()
	})
	if err != nil {
		return 0, err
	}
	var hits uint64
	for _, rep := range reps {
		if rep.CacheMisses != 0 {
			return 0, fmt.Errorf("experiments: warm grid hop missed the cache (%d misses)", rep.CacheMisses)
		}
		hits += rep.CacheHits
	}
	return hits, nil
}
