package experiments

import (
	"runtime"
	"runtime/debug"
	"testing"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/par"
	"hypertp/internal/tpcache"
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
// the two mechanisms it rests on: a fingerprint chain that converges, so
// every warm hop misses the translation cache 0 times, and a PRAM
// snapshot that replays, so every warm hop hits it twice and misses it
// never. A warm KVM→Xen→KVM round trip then allocates a pinned count,
// below what a cold one allocates on the same testbed.
func TestWarmHopAllocBudget(t *testing.T) {
	const trips = 8
	const coldBudget, warmBudget = 297, 264
	const pramHitsPerHop = 2
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
	if hops := uint64(2 * (trips + 1)); d.PRAMHits != pramHitsPerHop*hops || d.PRAMMisses != 0 {
		t.Errorf("PRAM snapshot over %d warm hops: %d hits, %d misses; want %d, 0",
			hops, d.PRAMHits, d.PRAMMisses, pramHitsPerHop*hops)
	}
	if raceEnabled {
		return
	}
	if cold > coldBudget || warm > warmBudget || warm >= cold {
		t.Errorf("round trip allocated %v times cold, %v warm; budgets %v, %v", cold, warm, coldBudget, warmBudget)
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
