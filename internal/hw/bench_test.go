package hw

import (
	"fmt"
	"testing"
)

// The steady-state PhysMem operations, at the machine sizes the figures
// use (M1 16 GiB, M2 64 GiB) and guest sizes at the ends of the Fig. 7-10
// memory axis (1 and 12 GiB), with the 64-page working set the benchmark
// guests write. BenchmarkPhysMem times each op; TestPhysMemAllocBudgets
// pins what one call allocates once the machine has settled.

var benchSink uint64

// physMemOp is one operation: setup builds its machine once and returns
// the call, which must leave the machine as it found it.
type physMemOp struct {
	name   string
	budget float64 // allocations per call
	setup  func(tb testing.TB) func() error
}

func physMemOps() []physMemOp {
	ops := []physMemOp{
		// Allocates and releases a hypervisor resident set (4096 frames)
		// from a cursor that starts mid-chunk: the result slice.
		{"AllocRanges", 1, func(tb testing.TB) func() error {
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
		{"ClaimRange", 0, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			return func() error {
				if err := pm.ClaimRange(1000, 40, OwnerPRAM, -1); err != nil {
					return err
				}
				return pm.FreeRange(1000, 40)
			}
		}},
	}
	for _, gib := range []uint64{16, 64} {
		ops = append(ops, physMemOp{fmt.Sprintf("NewPhysMem/%dGiB", gib), 1, func(testing.TB) func() error {
			return func() error {
				benchSink += NewPhysMem(gib * GiB).TotalFrames()
				return nil
			}
		}})
	}
	// One micro-reboot of M2: the guest is kept, the hypervisor's resident
	// set goes and is allocated again. The M1 case keeps the 1 GiB guest on
	// a machine a quarter the size: the wipe walks occupied chunks only, so
	// the two should cost about the same.
	for _, tc := range []struct {
		name         string
		machine, gib uint64
	}{{"1GiB", 64, 1}, {"12GiB", 64, 12}, {"1GiB-on-M1", 16, 1}} {
		ops = append(ops, physMemOp{"WipeRanges/" + tc.name, 1, func(tb testing.TB) func() error {
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
	// The two content sweeps run per 2 MiB extent, as AddressSpace drives
	// them.
	for _, gib := range []uint64{1, 12} {
		ops = append(ops, physMemOp{fmt.Sprintf("ForEachTouched/%dGiB", gib), 1, func(tb testing.TB) func() error {
			pm := NewPhysMem(16 * GiB)
			guest := benchGuest(tb, pm, gib)
			touched := 0
			visit := func(MFN, []byte) error { touched++; return nil }
			return func() error {
				touched = 0
				for off := uint64(0); off < guest.Count; off += FramesPer2M {
					if err := pm.ForEachTouched(guest.Start+MFN(off), FramesPer2M, visit); err != nil {
						return err
					}
				}
				if touched != 64 {
					return fmt.Errorf("visited %d pages", touched)
				}
				return nil
			}
		}}, physMemOp{fmt.Sprintf("ChecksumRange/%dGiB", gib), 0, func(tb testing.TB) func() error {
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
// their result and nothing per frame or chunk: AllocRanges its ranges, a
// wipe the resident set it reallocates, ForEachTouched the hit list of the
// one written extent. AllocsPerRun's warm-up
// call absorbs the first call's chunk tables.
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
	}
}
