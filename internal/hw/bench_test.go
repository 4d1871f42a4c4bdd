package hw

import (
	"fmt"
	"testing"
)

// Layer benchmarks for PhysMem at the machine sizes the figures use (M1
// 16 GiB, M2 64 GiB) and guest sizes at the ends of the Fig. 7-10 memory
// axis (1 and 12 GiB), with the 64-page working set the benchmark guests
// write.

var benchSink uint64

func BenchmarkNewPhysMem(b *testing.B) {
	for _, gib := range []uint64{16, 64} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += NewPhysMem(gib * GiB).TotalFrames()
			}
		})
	}
}

// BenchmarkAllocRanges allocates and releases a hypervisor resident set
// (4096 frames) from a cursor that starts mid-chunk.
func BenchmarkAllocRanges(b *testing.B) {
	pm := NewPhysMem(16 * GiB)
	if _, err := pm.AllocRanges(100, OwnerHV, -1); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rs, err := pm.AllocRanges(4096, OwnerHV, -1)
		if err != nil {
			b.Fatal(err)
		}
		if err := pm.FreeRanges(rs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClaimRange re-claims and frees 40 PRAM frames inside a chunk:
// the snapshot-replay path of a repeat transplant.
func BenchmarkClaimRange(b *testing.B) {
	pm := NewPhysMem(16 * GiB)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := pm.ClaimRange(1000, 40, OwnerPRAM, -1); err != nil {
			b.Fatal(err)
		}
		if err := pm.FreeRange(1000, 40); err != nil {
			b.Fatal(err)
		}
	}
}

// benchGuest allocates a huge-page guest of gib GiB and touches 64 pages.
func benchGuest(b *testing.B, pm *PhysMem, gib uint64) FrameRange {
	b.Helper()
	var guest FrameRange
	for i := uint64(0); i < gib*GiB/PageSize2M; i++ {
		base, err := pm.Alloc2M(OwnerGuest, 1)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			guest.Start = base
		}
		guest.Count += FramesPer2M
	}
	for p := MFN(0); p < 64; p++ {
		if err := pm.Write(guest.Start+p, int(p), []byte{byte(p), 1}); err != nil {
			b.Fatal(err)
		}
	}
	return guest
}

// BenchmarkWipeRanges is one micro-reboot of M2: the guest is kept, the
// hypervisor's resident set goes and is allocated again. The M1 case keeps
// the 1 GiB guest on a machine a quarter the size: the wipe walks occupied
// chunks only, so the two should cost about the same.
func BenchmarkWipeRanges(b *testing.B) {
	for _, tc := range []struct {
		name         string
		machine, gib uint64
	}{{"1GiB", 64, 1}, {"12GiB", 64, 12}, {"1GiB-on-M1", 16, 1}} {
		b.Run(tc.name, func(b *testing.B) {
			pm := NewPhysMem(tc.machine * GiB)
			keep := []FrameRange{benchGuest(b, pm, tc.gib)}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := pm.AllocRanges(4096, OwnerHV, -1); err != nil {
					b.Fatal(err)
				}
				if wiped := pm.WipeRanges(keep); wiped != 4096 {
					b.Fatalf("wiped %d frames", wiped)
				}
			}
		})
	}
}

// The two content sweeps run per 2 MiB extent, as AddressSpace drives
// them.

func BenchmarkForEachTouched(b *testing.B) {
	for _, gib := range []uint64{1, 12} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			pm := NewPhysMem(16 * GiB)
			guest := benchGuest(b, pm, gib)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				touched := 0
				for off := uint64(0); off < guest.Count; off += FramesPer2M {
					err := pm.ForEachTouched(guest.Start+MFN(off), FramesPer2M, func(MFN, []byte) error {
						touched++
						return nil
					})
					if err != nil {
						b.Fatal(err)
					}
				}
				if touched != 64 {
					b.Fatalf("visited %d pages", touched)
				}
			}
		})
	}
}

func BenchmarkChecksumRange(b *testing.B) {
	for _, gib := range []uint64{1, 12} {
		b.Run(fmt.Sprintf("%dGiB", gib), func(b *testing.B) {
			pm := NewPhysMem(16 * GiB)
			guest := benchGuest(b, pm, gib)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for off := uint64(0); off < guest.Count; off += FramesPer2M {
					sum, err := pm.ChecksumRange(guest.Start+MFN(off), FramesPer2M, GFN(off))
					if err != nil {
						b.Fatal(err)
					}
					benchSink += sum
				}
			}
		})
	}
}
