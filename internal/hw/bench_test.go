package hw

import (
	"fmt"
	"runtime"
	"testing"
)

// The steady-state PhysMem operations, at the machine sizes the figures
// use (M1 16 GiB, M2 64 GiB) and guest sizes at the ends of the Fig. 7-10
// memory axis (1 and 12 GiB, and 4 for the ownership walks), with the
// 64- and 256-page working sets the benchmark guests write.
// BenchmarkPhysMem times each op; TestPhysMemAllocBudgets pins what one
// call allocates once the machine has settled.

var (
	benchSink uint64
	benchMem  *PhysMem
)

// newPhysMemBytes is what NewPhysMem allocates on every profile's machine
// (≤ 96 GiB), whatever its size: one PhysMem, its first leaf embedded, in
// the 6 KiB size class.
const newPhysMemBytes = 6144

// physMemOp is one operation: setup builds its machine once and returns
// the call, which must leave the machine as it found it.
type physMemOp struct {
	name   string
	budget float64 // allocations per call
	bytes  uint64  // heap bytes per call; 0: counted only
	setup  func(tb testing.TB) func() error
}

func physMemOps() []physMemOp {
	ops := []physMemOp{
		// Allocates and releases a hypervisor resident set (4096 frames)
		// from a cursor that starts mid-chunk: the result slice.
		{"AllocRanges", 1, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			if _, err := pm.AllocRanges(100, OwnerHV, -1); err != nil {
				tb.Fatal(err)
			}
			return func() error {
				rs, err := pm.AllocRanges(4096, OwnerHV, -1)
				if err != nil {
					return err
				}
				return pm.FreeRanges(rs)
			}
		}},
		// Re-claims and frees 40 PRAM frames inside a chunk: the
		// snapshot-replay path of a repeat transplant.
		{"ClaimRange", 0, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			return func() error {
				if err := pm.ClaimRange(1000, 40, OwnerPRAM, -1); err != nil {
					return err
				}
				return pm.FreeRange(1000, 40)
			}
		}},
	}
	// A 5-page blob image — the cold hop's UISR blob — filled into the
	// frames it is allocated, then read back into the reader's buffer:
	// the fill allocates the frames' ranges, the image and a page per
	// frame, the read nothing.
	const blobBytes = 4*PageSize4K + 1000
	fillBlob := func(b []byte) { b[0], b[len(b)-1] = 1, 2 }
	ops = append(ops, physMemOp{"FillRanges", 7, 0, func(testing.TB) func() error {
		pm := NewPhysMem(16 * GiB)
		return func() error {
			rs, err := pm.AllocRanges(5, OwnerPRAM, -1)
			if err == nil {
				err = pm.FillRanges(rs, blobBytes, fillBlob)
			}
			if err != nil {
				return err
			}
			return pm.FreeRanges(rs)
		}
	}}, physMemOp{"ReadRanges", 0, 0, func(tb testing.TB) func() error {
		pm := NewPhysMem(16 * GiB)
		rs, err := pm.AllocRanges(5, OwnerPRAM, -1)
		if err == nil {
			err = pm.FillRanges(rs, blobBytes, fillBlob)
		}
		if err != nil {
			tb.Fatal(err)
		}
		buf := make([]byte, 5*PageSize4K)
		return func() error {
			out, err := pm.ReadRanges(rs, buf)
			if err == nil && out[blobBytes-1] != 2 {
				err = fmt.Errorf("read back %d", out[blobBytes-1])
			}
			return err
		}
	}})
	// A machine escapes to the heap, as NewMachine's does; its leaves are
	// built by the allocations into it, so M1 and M2 cost the same.
	for _, gib := range []uint64{16, 64} {
		ops = append(ops, physMemOp{fmt.Sprintf("NewPhysMem/%dGiB", gib), 1, newPhysMemBytes, func(testing.TB) func() error {
			return func() error {
				benchMem = NewPhysMem(gib * GiB)
				return nil
			}
		}})
	}
	// One micro-reboot of M2: the guest is kept, the hypervisor's resident
	// set goes and is allocated again. The M1 case keeps the 1 GiB guest on
	// a machine a quarter the size: the wipe walks the built leaves' runs
	// only, so the two should cost about the same, and 12 GiB about what
	// 1 GiB does.
	for _, tc := range []struct {
		name         string
		machine, gib uint64
	}{{"1GiB", 64, 1}, {"4GiB", 64, 4}, {"12GiB", 64, 12}, {"1GiB-on-M1", 16, 1}} {
		ops = append(ops, physMemOp{"WipeRanges/" + tc.name, 1, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(tc.machine * GiB)
			keep := []FrameRange{benchGuest(tb, pm, tc.gib)}
			return func() error {
				if _, err := pm.AllocRanges(4096, OwnerHV, -1); err != nil {
					return err
				}
				if wiped := pm.WipeRanges(keep); wiped != 4096 {
					return fmt.Errorf("wiped %d frames", wiped)
				}
				return nil
			}
		}})
	}
	// The adopted guest's retag, there and back, and a resident set
	// allocated and freed beside the guest: each walks the guest's runs,
	// one per leaf, so 12 GiB should cost about what 1 GiB does.
	for _, gib := range []uint64{1, 4, 12} {
		ops = append(ops, physMemOp{fmt.Sprintf("SetOwnerRanges/%dGiB", gib), 0, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(64 * GiB)
			guest := []FrameRange{benchGuest(tb, pm, gib)}
			return func() error {
				if err := pm.SetOwnerRanges(guest, OwnerGuest, 2); err != nil {
					return err
				}
				return pm.SetOwnerRanges(guest, OwnerGuest, 1)
			}
		}}, physMemOp{fmt.Sprintf("AllocRanges/%dGiB", gib), 1, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(64 * GiB)
			benchGuest(tb, pm, gib)
			return func() error {
				rs, err := pm.AllocRanges(4096, OwnerHV, -1)
				if err != nil {
					return err
				}
				return pm.FreeRanges(rs)
			}
		}})
	}
	// A huge-page guest allocated and freed: in one AllocHuge call, which
	// takes the lock once, and as one Alloc2M call, and lock, per 2 MiB
	// page.
	for _, gib := range []uint64{1, 12} {
		pages := int(gib * GiB / PageSize2M)
		ops = append(ops, physMemOp{fmt.Sprintf("AllocHuge/%dGiB", gib), 0, 0, func(testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			buf := make([]FrameRange, 0, 64)
			return func() error {
				rs, err := pm.AllocHuge(pages, OwnerGuest, 1, buf[:0])
				if err != nil {
					return err
				}
				return pm.FreeRanges(rs)
			}
		}}, physMemOp{fmt.Sprintf("Alloc2M/%dGiB", gib), 0, 0, func(testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			rs := make([]FrameRange, 0, 64)
			return func() error {
				rs = rs[:0]
				for range pages {
					base, err := pm.Alloc2M(OwnerGuest, 1)
					if err != nil {
						return err
					}
					rs = AppendRange(rs, FrameRange{Start: base, Count: FramesPer2M})
				}
				return pm.FreeRanges(rs)
			}
		}})
	}
	// The worst case for runs: a 4 KiB-page guest whose frames alternate
	// with another's, as a guest allocated after a cursor wrap fills the
	// holes freed in one — 32,768 runs in one leaf. Its retag, a wipe of a
	// resident set beside it, and a resident set allocated from a cursor
	// that must step over every run.
	ops = append(ops, physMemOp{"Fragmented/SetOwnerRanges", 0, 0, func(tb testing.TB) func() error {
		pm, guest := fragmentedGuests(tb)
		return func() error {
			if err := pm.SetOwnerRanges(guest, OwnerGuest, 3); err != nil {
				return err
			}
			return pm.SetOwnerRanges(guest, OwnerGuest, 2)
		}
	}}, physMemOp{"Fragmented/WipeRanges", 1, 0, func(tb testing.TB) func() error {
		pm, guest := fragmentedGuests(tb)
		keep := []FrameRange{{Count: 2 * CountFrames(guest)}}
		return func() error {
			if _, err := pm.AllocRanges(4096, OwnerHV, -1); err != nil {
				return err
			}
			if wiped := pm.WipeRanges(keep); wiped != 4096 {
				return fmt.Errorf("wiped %d frames", wiped)
			}
			return nil
		}
	}}, physMemOp{"Fragmented/AllocRanges", 1, 0, func(tb testing.TB) func() error {
		pm, _ := fragmentedGuests(tb)
		return func() error {
			pm.next = 0
			rs, err := pm.AllocRanges(4096, OwnerHV, -1)
			if err != nil {
				return err
			}
			return pm.FreeRanges(rs)
		}
	}})
	// ForEachTouched walks a 256-page working set — a migrating guest's —
	// as AddressSpace drives it, one call over the guest's runs: written
	// chunks only, so 12 GiB should cost about what 1 GiB does. The
	// checksum sweep runs per 2 MiB extent.
	for _, gib := range []uint64{1, 12} {
		ops = append(ops, physMemOp{fmt.Sprintf("ForEachTouched/%dGiB", gib), 1, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			guest := []FrameRange{benchGuest(tb, pm, gib)}
			for p := MFN(64); p < 256; p++ {
				if err := pm.Write(guest[0].Start+p, int(p), []byte{byte(p), 1}); err != nil {
					tb.Fatal(err)
				}
			}
			touched := 0
			visit := func(uint64, int, []byte) error { touched++; return nil }
			return func() error {
				touched = 0
				if err := pm.ForEachTouched(guest, visit); err != nil {
					return err
				}
				if touched != 256 {
					return fmt.Errorf("visited %d pages", touched)
				}
				return nil
			}
		}}, physMemOp{fmt.Sprintf("ChecksumRange/%dGiB", gib), 0, 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			guest := benchGuest(tb, pm, gib)
			return func() error {
				for off := uint64(0); off < guest.Count; off += FramesPer2M {
					sum, err := pm.ChecksumRange(guest.Start+MFN(off), FramesPer2M, GFN(off))
					if err != nil {
						return err
					}
					benchSink += sum
				}
				return nil
			}
		}})
	}
	// A bulk write of 256 working-set records into fresh frames: the
	// fresh pages and their windows are one allocation each — 256 40-byte
	// pages and their malloc header in the 10,880-byte size class, 256
	// 64-byte windows — and the page table comes off the spare list the
	// free left it on.
	ops = append(ops, physMemOp{"WriteFrames/256", 2, 10880 + 256*64, func(tb testing.TB) func() error {
		pm := NewPhysMem(16 * GiB)
		rs := []FrameRange{{Start: 4 * FramesPer2M, Count: 256}}
		rec := make([]byte, 64)
		for k := range rec {
			rec[k] = byte(k + 1)
		}
		ws := make([]FrameWrite, 256)
		for k := range ws {
			ws[k] = FrameWrite{Index: uint64(k), Off: 1 + k*15, Data: rec}
		}
		return func() error {
			if err := pm.ClaimRanges(rs, OwnerGuest, 1); err != nil {
				return err
			}
			if n, err := pm.WriteFrames(rs, ws); err != nil || n != len(ws) {
				return fmt.Errorf("wrote %d of %d: %v", n, len(ws), err)
			}
			return pm.FreeRanges(rs)
		}
	}})
	return ops
}

// benchGuest allocates a huge-page guest of gib GiB and touches 64 pages.
func benchGuest(tb testing.TB, pm *PhysMem, gib uint64) FrameRange {
	tb.Helper()
	var guest FrameRange
	for i := uint64(0); i < gib*GiB/PageSize2M; i++ {
		base, err := pm.Alloc2M(OwnerGuest, 1)
		if err != nil {
			tb.Fatal(err)
		}
		if i == 0 {
			guest.Start = base
		}
		guest.Count += FramesPer2M
	}
	for p := MFN(0); p < 64; p++ {
		if err := pm.Write(guest.Start+p, int(p), []byte{byte(p), 1}); err != nil {
			tb.Fatal(err)
		}
	}
	return guest
}

// fragmentedGuests builds two 4 KiB-page guests of 16,384 frames each on
// M1 whose frames alternate: guest 1 takes [0, 32768), frees every second
// frame, and guest 2, allocated once the cursor wraps, takes those. It
// returns guest 2's frames, one range each.
func fragmentedGuests(tb testing.TB) (*PhysMem, []FrameRange) {
	tb.Helper()
	const n = 16384
	pm := NewPhysMem(16 * GiB)
	if err := pm.ClaimRange(0, 2*n, OwnerGuest, 1); err != nil {
		tb.Fatal(err)
	}
	for m := MFN(1); m < 2*n; m += 2 {
		if err := pm.FreeRange(m, 1); err != nil {
			tb.Fatal(err)
		}
	}
	pm.next = 0 // the wrap
	guest, err := pm.AllocRanges(n, OwnerGuest, 2)
	if err != nil || len(guest) != n {
		tb.Fatalf("guest 2 took %d ranges, %v; want %d", len(guest), err, n)
	}
	return pm, guest
}

func BenchmarkPhysMem(b *testing.B) {
	for _, op := range physMemOps() {
		b.Run(op.name, func(b *testing.B) {
			call := op.setup(b)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := call(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// raceEnabled is set by race_test.go. A race build allocates once more
// per ForEachTouched call, so the budgets are those of the plain build.
var raceEnabled bool

// TestPhysMemAllocBudgets: in steady state the range operations allocate
// their result and nothing per frame, chunk or run: AllocRanges its
// ranges, a wipe the resident set it reallocates, ForEachTouched the hit
// list of the working set, a bulk write its two slabs, a retag nothing, the fragmented guests'
// 32,768 runs included. AllocsPerRun's warm-up call absorbs the first
// call's page tables and run-list growth. A row with a byte budget is
// pinned in heap bytes per call too.
func TestPhysMemAllocBudgets(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	for _, op := range physMemOps() {
		call := op.setup(t)
		var err error
		if n := testing.AllocsPerRun(20, func() { err = call() }); n > op.budget || err != nil {
			t.Errorf("%s allocated %v times per call, budget %v (err %v)", op.name, n, op.budget, err)
		}
		if op.bytes == 0 {
			continue
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		for range 20 {
			err = call()
		}
		runtime.ReadMemStats(&ms1)
		if n := (ms1.TotalAlloc - ms0.TotalAlloc) / 20; n > op.bytes || err != nil {
			t.Errorf("%s allocated %d B per call, budget %d (err %v)", op.name, n, op.bytes, err)
		}
	}
}
