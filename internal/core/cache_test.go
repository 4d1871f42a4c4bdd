package core

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/kexec"
	"hypertp/internal/par"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// pingPong runs n InPlace transplants alternating KVM↔Xen on one bench,
// verifying guest checksums survive every hop, and returns the final
// hypervisor plus the per-hop report strings.
func pingPong(t *testing.T, b *bench, src hv.Hypervisor, n int, opts Options) (hv.Hypervisor, []string) {
	t.Helper()
	pre := checksumVMs(t, src.VMs())
	reports := make([]string, 0, n)
	cur := src
	for hop := 0; hop < n; hop++ {
		dst, rep, err := b.engine.InPlace(cur, otherKind(cur), opts)
		if err != nil {
			t.Fatalf("hop %d: %v", hop, err)
		}
		if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
			t.Fatalf("hop %d: guest checksums diverged", hop)
		}
		// The cache counters are the one part of a report allowed to
		// differ between cold and cached runs — zero them so the identity
		// comparison covers everything else.
		flat := *rep
		flat.CacheHits, flat.CacheMisses = 0, 0
		reports = append(reports, fmt.Sprintf("%+v", flat))
		cur = dst
	}
	return cur, reports
}

// TestCacheConvergesToHits: the fingerprint chain must reach its fixed
// point under steady-state ping-pong — after a few cycles every
// translation lookup hits, so the warm benchmark's 10x claim rests on
// real cache behavior, not on first-run misses forever.
func TestCacheConvergesToHits(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindXen, 2)
	opts := DefaultOptions()
	opts.Cache = tpcache.New()

	pingPong(t, b, src, 10, opts)

	st := opts.Cache.Stats()
	t.Logf("cache stats after 10 hops: %+v (hit ratio %.2f)", st, st.HitRatio())
	if st.Hits == 0 {
		t.Fatalf("no translation-cache hits after 10 ping-pong hops: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatalf("cold path never ran: %+v", st)
	}
	if st.Stale != 0 {
		t.Fatalf("unexpected stale counter without faults: %+v", st)
	}
}

// TestCachedTransplantByteIdentity is the determinism gate for the whole
// cache subsystem: a cached run must be indistinguishable from a cold
// run in everything the simulation can observe — reports, guest
// checksums, span trees — at any worker count. Only wall-clock time and
// the cache counters may differ.
func TestCachedTransplantByteIdentity(t *testing.T) {
	defer par.SetWorkers(0)
	type run struct {
		reports []string
		sums    map[string]uint64
		spans   map[string]int
	}
	grab := func(workers int, cached bool) run {
		par.SetWorkers(workers)
		b := newBench(t, hw.M1())
		rec, col := collecting(b.clock)
		b.engine.Obs = rec
		src := bootSmallVMs(t, b, hv.KindXen, 2)
		opts := DefaultOptions()
		if cached {
			opts.Cache = tpcache.New()
		}
		final, reports := pingPong(t, b, src, 8, opts)
		if cached && opts.Cache.Stats().Hits == 0 {
			t.Fatal("cached run never hit: identity check would be vacuous")
		}
		return run{reports, checksumVMs(t, final.VMs()), spanNames(col)}
	}
	cold := grab(1, false)
	for _, workers := range []int{1, 8} {
		warm := grab(workers, true)
		if !reflect.DeepEqual(cold.reports, warm.reports) {
			t.Fatalf("-workers %d: cached reports differ from cold:\n%v\nvs\n%v",
				workers, cold.reports, warm.reports)
		}
		if !reflect.DeepEqual(cold.sums, warm.sums) {
			t.Fatalf("-workers %d: cached guest checksums differ from cold", workers)
		}
		if !reflect.DeepEqual(cold.spans, warm.spans) {
			t.Fatalf("-workers %d: cached span tree differs from cold:\n%v\nvs\n%v",
				workers, cold.spans, warm.spans)
		}
	}
}

// TestCacheStalePoisonFallback: fault injection at cache.stale poisons a
// hit, and the engine must fall back to the cold path — absorbing the
// fault, preserving every guest byte, and leaving the cache to self-heal
// on the next cold store. A stale cache can cost time, never
// correctness.
func TestCacheStalePoisonFallback(t *testing.T) {
	b := newBench(t, hw.M1())
	src := bootSmallVMs(t, b, hv.KindXen, 2)
	opts := DefaultOptions()
	opts.Cache = tpcache.New()

	// Prime until lookups hit, so the next hop is guaranteed to arm the
	// cache.stale site.
	cur := src
	primed := false
	for hop := 0; hop < 12; hop++ {
		cur, _ = pingPong(t, b, cur, 1, opts)
		if opts.Cache.Stats().Hits > 0 {
			primed = true
			break
		}
	}
	if !primed {
		t.Fatalf("cache never converged to a hit: %+v", opts.Cache.Stats())
	}
	pre := checksumVMs(t, cur.VMs())

	target := hv.KindKVM
	if cur.Kind() == hv.KindKVM {
		target = hv.KindXen
	}
	plan := fault.NewPlan(1, 0).ForceAt(fault.SiteCacheStale, 1).SetClock(b.clock)
	b.engine.Fault = plan
	dst, rep, err := b.engine.InPlace(cur, target, opts)
	if err != nil {
		t.Fatalf("poisoned transplant failed outright: %v", err)
	}
	if rep.Outcome != hterr.OutcomeRecovered || rep.Faults < 1 {
		t.Fatalf("outcome = %s faults = %d, want recovered with >=1 absorbed fault", rep.Outcome, rep.Faults)
	}
	if len(plan.Shots()) != 1 {
		t.Fatalf("shots = %v, want exactly one cache.stale shot", plan.Shots())
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("guest checksums diverged across poisoned-cache fallback")
	}
	st := opts.Cache.Stats()
	if st.Stale != 1 {
		t.Fatalf("stale count = %d, want 1: %+v", st.Stale, st)
	}

	// Self-heal: with the fault disarmed, the cold store from the
	// poisoned hop re-populated the entry, so hits resume.
	b.engine.Fault = fault.NewPlan(1, 0).SetClock(b.clock)
	preHits := st.Hits
	if _, _ = pingPong(t, b, dst, 2, opts); opts.Cache.Stats().Hits <= preHits {
		t.Fatalf("cache did not self-heal after poison: %+v", opts.Cache.Stats())
	}
}

// TestParseMemoMissesCorruptedPRAM: the target answers its PRAM parse
// from the snapshot's memo only while the metadata frames hold the pages
// the snapshot captured. Between boot and parse, a hook parses the
// handover structure once, which fills the memo, and then writes one byte
// into its root page: the write unshares the page, the memo misses, and
// the cold parse rejects the structure by name. The same hop left alone
// hits the memo. Planned, on a primed host, the structure is a replay;
// Emergency re-encodes its blobs at fresh frames, so its structure is a
// cold build whose pages the snapshot captured — shared the same way.
func TestParseMemoMissesCorruptedPRAM(t *testing.T) {
	boot := slices.IndexFunc(phases, func(p phase) bool { return p.step == stepBoot })
	orig := phases[boot].run
	defer func() { phases[boot].run = orig }()
	for _, emergency := range []bool{false, true} {
		for _, corrupt := range []bool{false, true} {
			name := fmt.Sprintf("emergency=%v/corrupt=%v", emergency, corrupt)
			phases[boot].run = orig
			b := newBench(t, hw.M1())
			opts := DefaultOptions()
			opts.Cache = tpcache.New()
			src, _ := pingPong(t, b, bootSmallVMs(t, b, hv.KindXen, 2), 4, opts)
			snap := opts.Cache.PRAMSnapshot(b.m)
			replays, _ := snap.Stats()
			var filled uint64
			phases[boot].run = func(tp *transplant) error {
				if err := orig(tp); err != nil {
					return err
				}
				ptr, err := kexec.ParseCmdline(tp.e.Machine.Cmdline)
				if err != nil {
					return err
				}
				if _, err := snap.Parse(tp.e.Machine.Mem, ptr); err != nil {
					return err
				}
				filled = snap.ParseHits()
				if corrupt {
					return tp.e.Machine.Mem.Write(ptr, 0, []byte{0xff})
				}
				return nil
			}
			var err error
			if emergency {
				crashHost(t, src, "memo test")
				_, _, err = b.engine.Emergency(src, hv.KindKVM, opts)
			} else {
				_, _, err = b.engine.InPlace(src, hv.KindKVM, opts)
			}
			if hits, _ := snap.Stats(); !emergency && hits == replays {
				t.Fatalf("%s: the handover structure was not replayed", name)
			}
			memoHits := snap.ParseHits() - filled
			switch {
			case corrupt && (memoHits != 0 || err == nil || !strings.Contains(err.Error(), "bad root magic")):
				t.Errorf("%s: %d memo hits, err %v; want 0 and a bad root magic", name, memoHits, err)
			case !corrupt && (memoHits != 1 || err != nil):
				t.Errorf("%s: %d memo hits, err %v; want 1 and no error", name, memoHits, err)
			}
		}
	}
}

// withBootHook runs hook on every transplant between the target's boot
// and its PRAM parse — after translate has landed every blob and the
// kexec preserved them — for the rest of the test.
func withBootHook(t *testing.T, hook func(*transplant) error) {
	boot := slices.IndexFunc(phases, func(p phase) bool { return p.step == stepBoot })
	orig := phases[boot].run
	t.Cleanup(func() { phases[boot].run = orig })
	phases[boot].run = func(tp *transplant) error {
		if err := orig(tp); err != nil {
			return err
		}
		return hook(tp)
	}
}

// otherKind is the hypervisor kind a KVM<->Xen ping-pong moves h to.
func otherKind(h hv.Hypervisor) hv.Kind {
	if h.Kind() == hv.KindKVM {
		return hv.KindXen
	}
	return hv.KindKVM
}

// primedBlobMemo returns a bench whose two VMs ping-ponged until a hop
// installs both blobs and answers both decodes from the memo, and the
// hypervisor they run on.
func primedBlobMemo(t *testing.T) (*bench, hv.Hypervisor, Options) {
	b := newBench(t, hw.M1())
	opts := DefaultOptions()
	opts.Cache = tpcache.New()
	cur := bootSmallVMs(t, b, hv.KindXen, 2)
	for hop := 0; ; hop++ {
		if hop == 16 {
			t.Fatalf("blob memo never primed: %+v", opts.Cache.Stats())
		}
		before := opts.Cache.Stats()
		cur, _ = pingPong(t, b, cur, 1, opts)
		if d := opts.Cache.Stats().Sub(before); d.BlobInstalls == 2 && d.BlobDecodeHits == 2 {
			return b, cur, opts
		}
	}
}

// TestBlobMemoMissesCorruptedBlob: the target takes a VM's state from the
// decode memo only while the blob's frames hold the image the cache
// captured. One byte written into the first VM's blob — its UISR magic —
// unshares the page, so its decode misses and the cold decode rejects
// the blob by name. A frame freed and rewritten with the very same bytes
// breaks page identity too: the decode misses, succeeds cold, and leaves
// the memo as it was. The second VM's blob is untouched and hits.
func TestBlobMemoMissesCorruptedBlob(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(mem *hw.PhysMem, frames []hw.FrameRange) error
		hits    uint64
		want    string
	}{
		{"untouched", func(*hw.PhysMem, []hw.FrameRange) error { return nil }, 2, ""},
		{"bit-flip", func(mem *hw.PhysMem, frames []hw.FrameRange) error {
			// The image is an 8-byte length, then the blob, magic first.
			return mem.Write(frames[0].Start, 8, []byte{0xff})
		}, 0, fmt.Sprintf("UISR blob for %q corrupt: uisr: bad magic", vmName(0))},
		{"rewritten", func(mem *hw.PhysMem, frames []hw.FrameRange) error {
			image, err := mem.ReadRanges(frames)
			if err != nil {
				return err
			}
			if err := mem.FreeRanges(frames); err != nil {
				return err
			}
			if err := mem.ClaimRanges(frames, hw.OwnerPRAM, -1); err != nil {
				return err
			}
			return mem.WriteRanges(frames, image)
		}, 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, src, opts := primedBlobMemo(t)
			pre := checksumVMs(t, src.VMs())
			armed := true // this hop only
			withBootHook(t, func(tp *transplant) error {
				if !armed {
					return nil
				}
				armed = false
				return tc.corrupt(tp.e.Machine.Mem, tp.saved[0].frames)
			})
			before := opts.Cache.Stats()
			dst, _, err := b.engine.InPlace(src, otherKind(src), opts)
			d := opts.Cache.Stats().Sub(before)
			if d.BlobInstalls != 2 || d.BlobDecodeHits != tc.hits {
				t.Fatalf("%d installs, %d decode hits; want 2, %d", d.BlobInstalls, d.BlobDecodeHits, tc.hits)
			}
			if tc.want != "" {
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("corrupted blob restored with error %v, want one naming %q", err, tc.want)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
				t.Fatal("guest checksums diverged")
			}
			// The rewritten frames never held the capture, so the cold
			// decode was not memoized in its place: the blob's next
			// landing, a round trip on, installs the capture again and
			// the memo answers as before.
			back, _ := pingPong(t, b, dst, 1, opts)
			before = opts.Cache.Stats()
			pingPong(t, b, back, 1, opts)
			if d := opts.Cache.Stats().Sub(before); d.BlobInstalls != 2 || d.BlobDecodeHits != 2 {
				t.Fatalf("round trip on: %d installs, %d decode hits; want 2, 2", d.BlobInstalls, d.BlobDecodeHits)
			}
		})
	}
}

// TestBlobMemoHitMatchesColdDecode: on a primed host a decode-memo hit is
// exactly what a cold read and decode of the same frames returns, and
// whatever the caller does to the top-level fields of the state a hit
// returns — restore sets its memory map — never reaches the memo.
func TestBlobMemoHitMatchesColdDecode(t *testing.T) {
	b, src, opts := primedBlobMemo(t)
	checked := 0
	withBootHook(t, func(tp *transplant) error {
		m := tp.e.Machine
		for i := range tp.saved {
			s := &tp.saved[i]
			blob, err := readBlob(m.Mem, "", s.frames)
			if err != nil {
				return err
			}
			cold, err := uisr.Decode(blob)
			if err != nil {
				return err
			}
			hit, held := opts.Cache.DecodedBlob(m, s.hash, s.frames)
			if hit == nil || !held || !reflect.DeepEqual(hit, cold) {
				t.Errorf("%s: memo hit %+v (held %v) differs from a cold decode %+v", s.res.Name, hit, held, cold)
				continue
			}
			hit.Name, hit.Weight, hit.HasPIT = "mutated", hit.Weight+1, !hit.HasPIT
			hit.IOAPIC.Redir[0]++
			hit.RTC.CMOS[0]++
			hit.MemMap = uisr.NewMemMap([]uisr.PageExtent{{GFN: 1, MFN: 2}})
			hit.VCPUs, hit.Devices = nil, nil
			if again, _ := opts.Cache.DecodedBlob(m, s.hash, s.frames); !reflect.DeepEqual(again, cold) {
				t.Errorf("%s: mutating a hit reached the memo: %+v", s.res.Name, again)
			}
			checked++
		}
		return nil
	})
	pre := checksumVMs(t, src.VMs())
	dst, _, err := b.engine.InPlace(src, otherKind(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if checked != 2 {
		t.Fatalf("compared %d hits, want 2", checked)
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("guest checksums diverged")
	}
}

// TestEmergencyBypassesBlobMemo: salvage off a crashed hypervisor lands
// and decodes every blob cold, even on a host whose blob memo is primed.
func TestEmergencyBypassesBlobMemo(t *testing.T) {
	b, src, opts := primedBlobMemo(t)
	pre := checksumVMs(t, src.VMs())
	crashHost(t, src, "blob memo test")
	before := opts.Cache.Stats()
	dst, _, err := b.engine.Emergency(src, otherKind(src), opts)
	if err != nil {
		t.Fatal(err)
	}
	if d := opts.Cache.Stats().Sub(before); d.BlobInstalls != 0 || d.BlobDecodeHits != 0 {
		t.Fatalf("emergency used the blob memo: %d installs, %d decode hits", d.BlobInstalls, d.BlobDecodeHits)
	}
	if got := checksumVMs(t, dst.VMs()); !reflect.DeepEqual(got, pre) {
		t.Fatal("guest checksums diverged")
	}
}
