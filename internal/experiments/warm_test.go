package experiments

import (
	"runtime"
	"testing"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
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
