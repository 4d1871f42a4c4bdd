package hw

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// leafB is the first frame of leaf 1: every op below straddles it.
const leafB = MFN(leafFrames)

// leafMem is a machine of two whole leaves and four chunks of a third.
func leafMem() *PhysMem { return NewPhysMem(2*GiB + 4*PageSize2M) }

// straddle claims [leafB-100, leafB+200) for PRAM and writes a page on
// either side of the boundary: leafB-1 holds 1s, leafB holds 2s.
func straddle(pm *PhysMem) error {
	if err := pm.ClaimRange(leafB-100, 300, OwnerPRAM, -1); err != nil {
		return err
	}
	for k, m := range []MFN{leafB - 1, leafB} {
		if err := pm.Write(m, 0, bytes.Repeat([]byte{byte(k + 1)}, PageSize4K)); err != nil {
			return err
		}
	}
	return nil
}

// straddleFrames is what ReadRanges reads of [leafB-2, leafB+2) after
// straddle: a zero frame, the two written ones, a zero frame.
func straddleFrames() []byte {
	want := make([]byte, 4*PageSize4K)
	copy(want[PageSize4K:], bytes.Repeat([]byte{1}, PageSize4K))
	copy(want[2*PageSize4K:], bytes.Repeat([]byte{2}, PageSize4K))
	return want
}

// owners checks the (owner, vm) tag of each frame of want.
func owners(pm *PhysMem, want map[MFN][2]int) error {
	for m, ov := range want {
		if o, vm := pm.OwnerOf(m); o != Owner(ov[0]) || (o != OwnerFree && vm != ov[1]) {
			return fmt.Errorf("frame %#x is %v/%d, want %v/%d", uint64(m), o, vm, Owner(ov[0]), ov[1])
		}
	}
	return nil
}

// TestLeafBoundary runs every PhysMem operation across the boundary of
// leaves 0 and 1, each on a fresh machine, auditing it after every step.
func TestLeafBoundary(t *testing.T) {
	pram, guest, free := [2]int{int(OwnerPRAM), -1}, [2]int{int(OwnerGuest), 1}, [2]int{}
	for _, tc := range []struct {
		name  string
		setup func(*PhysMem) error // nil: straddle
		op    func(*PhysMem) error
	}{
		{"AllocRanges", func(pm *PhysMem) error { return pm.ClaimRange(0, uint64(leafB-50), OwnerHV, -1) },
			func(pm *PhysMem) error {
				rs, err := pm.AllocRanges(100, OwnerGuest, 1)
				if want := []FrameRange{{Start: leafB - 50, Count: 100}}; err != nil || !slices.Equal(rs, want) {
					return fmt.Errorf("allocated %v, %v; want %v", rs, err, want)
				}
				return nil
			}},
		{"Alloc2M", func(pm *PhysMem) error { return pm.ClaimRange(0, uint64(leafB-50), OwnerHV, -1) },
			func(pm *PhysMem) error {
				// Every chunk of leaf 0 holds a frame: the scan crosses into
				// leaf 1, not built, and takes its first chunk.
				if base, err := pm.Alloc2M(OwnerGuest, 1); err != nil || base != leafB {
					return fmt.Errorf("Alloc2M = %#x, %v; want leaf 1's first chunk %#x", uint64(base), err, uint64(leafB))
				}
				return owners(pm, map[MFN][2]int{leafB: guest, leafB + FramesPer2M - 1: guest, leafB - 1: free})
			}},
		{"ClaimRange", func(*PhysMem) error { return nil }, func(pm *PhysMem) error {
			if err := pm.ClaimRange(leafB-100, 300, OwnerPRAM, -1); err != nil {
				return err
			}
			if err := pm.ClaimRange(leafB+199, 2, OwnerHV, -1); err == nil {
				return fmt.Errorf("claim over a claimed frame succeeded")
			}
			return owners(pm, map[MFN][2]int{leafB - 101: free, leafB - 100: pram, leafB + 199: pram, leafB + 200: free})
		}},
		{"FreeRange", nil, func(pm *PhysMem) error {
			if err := pm.FreeRange(leafB-100, 300); err != nil {
				return err
			}
			if pm.dir[0] != nil || pm.dir[1] != nil || pm.AllocatedFrames() != 0 {
				return fmt.Errorf("drained leaves still built, %d frames allocated", pm.AllocatedFrames())
			}
			if err := pm.FreeRange(leafB-1, 2); err == nil {
				return fmt.Errorf("double free across the boundary succeeded")
			}
			return nil
		}},
		{"SetOwnerRanges", nil, func(pm *PhysMem) error {
			if err := pm.SetOwnerRanges([]FrameRange{{Start: leafB - 100, Count: 300}}, OwnerGuest, 1); err != nil {
				return err
			}
			if err := pm.SetOwnerRanges([]FrameRange{{Start: leafB + 150, Count: 100}}, OwnerHV, -1); err == nil {
				return fmt.Errorf("retag over a free frame succeeded")
			}
			return owners(pm, map[MFN][2]int{leafB - 100: guest, leafB: guest, leafB + 149: guest, leafB + 150: {int(OwnerHV), -1}})
		}},
		{"WipeRanges", nil, func(pm *PhysMem) error {
			// A keep run across the boundary: both sides of it are wiped.
			if wiped := pm.WipeRanges([]FrameRange{{Start: leafB - 10, Count: 20}}); wiped != 280 {
				return fmt.Errorf("wiped %d frames, want 280", wiped)
			}
			if got, err := pm.ReadRanges([]FrameRange{{Start: leafB - 2, Count: 4}}, nil); err != nil || !bytes.Equal(got, straddleFrames()) {
				return fmt.Errorf("kept frames read back wrong (err %v)", err)
			}
			return owners(pm, map[MFN][2]int{leafB - 11: free, leafB - 10: pram, leafB + 9: pram, leafB + 10: free})
		}},
		{"FillRanges", func(pm *PhysMem) error { return pm.ClaimRange(leafB-100, 300, OwnerPRAM, -1) },
			func(pm *PhysMem) error {
				rs := []FrameRange{{Start: leafB - 2, Count: 4}}
				img := bytes.Repeat([]byte{9}, 4*PageSize4K-100)
				if err := pm.FillRanges(rs, len(img), func(b []byte) { copy(b, img) }); err != nil {
					return err
				}
				got, err := pm.ReadRanges(rs, nil)
				if err != nil || !bytes.Equal(got[:len(img)], img) || !isZero(got[len(img):]) {
					return fmt.Errorf("filled frames read back wrong (err %v)", err)
				}
				return nil
			}},
		{"ReadRanges", nil, func(pm *PhysMem) error {
			got, err := pm.ReadRanges([]FrameRange{{Start: leafB - 2, Count: 4}}, nil)
			if err != nil || !bytes.Equal(got, straddleFrames()) {
				return fmt.Errorf("read back wrong (err %v)", err)
			}
			return nil
		}},
		{"ForEachTouched", nil, func(pm *PhysMem) error {
			var seen []MFN
			err := pm.ForEachTouched([]FrameRange{{Start: leafB - 100, Count: 300}}, func(i uint64, off int, data []byte) error {
				m := leafB - 100 + MFN(i)
				if off != 0 || len(data) != PageSize4K || data[0] != byte(m-leafB+2) {
					return fmt.Errorf("frame %#x window [%d,+%d) holds %d", uint64(m), off, len(data), data[0])
				}
				seen = append(seen, m)
				return nil
			})
			if want := []MFN{leafB - 1, leafB}; err != nil || !slices.Equal(seen, want) {
				return fmt.Errorf("visited %v, %v; want %v", seen, err, want)
			}
			return nil
		}},
		{"ChecksumRange", nil, func(pm *PhysMem) error {
			var want uint64
			for k := MFN(0); k < 300; k++ {
				sum, err := pm.Checksum(leafB - 100 + k)
				if err != nil {
					return err
				}
				want += sum * checksumKey(7+uint64(k))
			}
			if got, err := pm.ChecksumRange(leafB-100, 300, 7); err != nil || got != want {
				return fmt.Errorf("ChecksumRange = %#x, %v; per-frame sum %#x", got, err, want)
			}
			return nil
		}},
		{"SharePages/InstallPages", nil, func(pm *PhysMem) error {
			rs := []FrameRange{{Start: leafB - 2, Count: 4}}
			p, err := pm.SharePages(rs)
			if err != nil {
				return err
			}
			defer p.Release()
			// Free and reclaim the frames: unwritten again, they take the
			// captured pages back by reference.
			if err := pm.FreeRanges(rs); err != nil {
				return err
			}
			if err := pm.ClaimRanges(rs, OwnerPRAM, -1); err != nil {
				return err
			}
			if err := pm.InstallPages(rs, p); err != nil {
				return err
			}
			got, err := pm.ReadRanges(rs, nil)
			if !pm.Holds(rs, p) || err != nil || !bytes.Equal(got, straddleFrames()) {
				return fmt.Errorf("installed frames do not hold the capture (err %v)", err)
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pm := leafMem()
			step := func(what string, fn func(*PhysMem) error) {
				t.Helper()
				if err := fn(pm); err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if vs := pm.AuditOwners(map[int]bool{1: true}); vs != nil {
					t.Fatalf("audit after %s: %v", what, vs)
				}
			}
			if tc.setup == nil {
				tc.setup = straddle
			}
			step("setup", tc.setup)
			step(tc.name, tc.op)
		})
	}
}

// TestLeafRecycledByIdentity: a leaf stays built while it holds a frame;
// once it drains it goes on the spare list, all zero, and the next leaf
// built is that very leaf; the first leaf
// built is the one NewPhysMem embeds. Recycling allocates nothing.
func TestLeafRecycledByIdentity(t *testing.T) {
	pm := leafMem()
	audit := func(what string) {
		t.Helper()
		if vs := pm.AuditOwners(nil); vs != nil {
			t.Fatalf("audit after %s: %v", what, vs)
		}
	}
	if err := pm.ClaimRange(leafB-100, 300, OwnerPRAM, -1); err != nil {
		t.Fatal(err)
	}
	audit("claim")
	l1 := pm.dir[1]
	if pm.dir[0] != &pm.first || l1 == nil || pm.spareLeaves != nil {
		t.Fatal("the claim did not build the embedded leaf and one new one")
	}
	// A leaf stays built while any of its chunks holds a frame.
	if err := pm.ClaimRange(leafB+FramesPer2M, 1, OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeRange(leafB, 200); err != nil {
		t.Fatal(err)
	}
	audit("drain of one chunk of leaf 1")
	if pm.dir[1] != l1 {
		t.Fatal("leaf 1 released with a chunk still occupied")
	}
	if err := pm.FreeRange(leafB+FramesPer2M, 1); err != nil {
		t.Fatal(err)
	}
	audit("drain of leaf 1")
	if pm.dir[1] != nil || pm.spareLeaves != l1 || l1.next != nil {
		t.Fatal("drained leaf 1 is not the one spare leaf")
	}
	if err := pm.ClaimRange(2*leafB, 10, OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	audit("claim in leaf 2")
	if pm.dir[2] != l1 || pm.spareLeaves != nil {
		t.Fatal("leaf 2 was not built from the spare leaf")
	}
	cycle := func() {
		if err := pm.FreeRange(2*leafB, 10); err != nil {
			t.Fatal(err)
		}
		if err := pm.ClaimRange(leafB+5, 10, OwnerHV, -1); err != nil {
			t.Fatal(err)
		}
		if err := pm.FreeRange(leafB+5, 10); err != nil {
			t.Fatal(err)
		}
		if err := pm.ClaimRange(2*leafB, 10, OwnerHV, -1); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(20, cycle); n != 0 {
		t.Fatalf("moving a leaf's worth of frames between GiBs allocated %v times, want 0", n)
	}
	if pm.dir[2] != l1 || pm.dir[1] != nil || pm.spareLeaves != nil {
		t.Fatal("recycled leaf changed identity")
	}
	audit("recycling")
}

// TestRunsMeetAtLeafBoundary: a run never crosses a leaf, so frames of one
// tag on both sides of a leaf boundary are two runs, one in each leaf.
// Every call treats them as one range, and either side drains on its own.
func TestRunsMeetAtLeafBoundary(t *testing.T) {
	pm := leafMem()
	const edge = leafFrames // leafB as a leaf offset: one past leaf 0's last frame
	hv, guest := run{owner: OwnerHV, vm: -1}, run{owner: OwnerGuest, vm: 1}
	at := func(r run, start, count uint32) run { r.start, r.count = start, count; return r }
	step := func(what string, err error, want0, want1 []run) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for li, want := range [][]run{want0, want1} {
			var got []run
			if l := pm.dir[li]; l != nil {
				got = l.runs
			} else if want != nil {
				t.Fatalf("%s: leaf %d not built, want runs %v", what, li, want)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: leaf %d runs %v, want %v", what, li, got, want)
			}
		}
		if vs := pm.AuditOwners(map[int]bool{1: true}); vs != nil {
			t.Fatalf("audit after %s: %v", what, vs)
		}
	}
	err := pm.ClaimRange(leafB-100, 100, OwnerHV, -1)
	if err == nil {
		err = pm.ClaimRange(leafB, 100, OwnerHV, -1)
	}
	step("two claims meeting at the boundary", err, []run{at(hv, edge-100, 100)}, []run{at(hv, 0, 100)})
	if err := owners(pm, map[MFN][2]int{leafB - 1: {int(OwnerHV), -1}, leafB: {int(OwnerHV), -1}}); err != nil {
		t.Fatal(err)
	}
	step("retag across the boundary", pm.SetOwnerRanges([]FrameRange{{Start: leafB - 50, Count: 100}}, OwnerGuest, 1),
		[]run{at(hv, edge-100, 50), at(guest, edge-50, 50)}, []run{at(guest, 0, 50), at(hv, 50, 50)})
	step("free across the boundary", pm.FreeRange(leafB-50, 100),
		[]run{at(hv, edge-100, 50)}, []run{at(hv, 50, 50)})
	pm.next = leafB - 50
	rs, err := pm.AllocRanges(100, OwnerGuest, 1)
	if want := []FrameRange{{Start: leafB - 50, Count: 100}}; err == nil && !slices.Equal(rs, want) {
		err = fmt.Errorf("allocated %v, want %v", rs, want)
	}
	step("allocation across the boundary", err,
		[]run{at(hv, edge-100, 50), at(guest, edge-50, 50)}, []run{at(guest, 0, 50), at(hv, 50, 50)})
	if wiped := pm.WipeRanges([]FrameRange{{Start: leafB - 100, Count: 50}}); wiped != 150 {
		t.Fatalf("wiped %d frames, want 150", wiped)
	}
	step("wipe keeping leaf 0's first run", nil, []run{at(hv, edge-100, 50)}, nil)
}

// TestAllocHugeMatchesAlloc2M: AllocHuge of n takes the frames n Alloc2M
// calls take, in order, as coalesced runs, across leaf boundaries and the
// cursor's wrap; a request the free chunks cannot meet takes nothing and
// leaves the cursor where it was, though the scan crossed three leaves.
func TestAllocHugeMatchesAlloc2M(t *testing.T) {
	// Leaf 0 full but its last two chunks; one frame held in leaf 1's
	// third chunk and in each chunk of leaf 2: 513 free chunks.
	setup := func() *PhysMem {
		pm := leafMem()
		err := pm.ClaimRange(0, uint64(leafB-2*FramesPer2M), OwnerHV, -1)
		held := []MFN{leafB + 2*FramesPer2M + 7}
		for k := MFN(0); k < 4; k++ {
			held = append(held, 2*leafB+k*FramesPer2M+9)
		}
		for _, m := range held {
			if err == nil {
				err = pm.ClaimRange(m, 1, OwnerHV, -1)
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		return pm
	}
	huge, loop := setup(), setup()
	alloc2M := func(n int) []FrameRange {
		var rs []FrameRange
		for range n {
			base, err := loop.Alloc2M(OwnerGuest, 1)
			if err != nil {
				t.Fatal(err)
			}
			rs = AppendRange(rs, FrameRange{Start: base, Count: FramesPer2M})
		}
		return rs
	}
	check := func(what string, rs []FrameRange, err error, want []FrameRange) {
		t.Helper()
		if err != nil || !slices.Equal(rs, want) {
			t.Fatalf("%s = %v, %v; Alloc2M calls took %v", what, rs, err, want)
		}
		if huge.next != loop.next || huge.FreeFrames() != loop.FreeFrames() {
			t.Fatalf("%s: cursor %d, %d free; Alloc2M calls leave %d, %d", what, huge.next, huge.FreeFrames(), loop.next, loop.FreeFrames())
		}
		for li := range huge.dir {
			if (huge.dir[li] == nil) != (loop.dir[li] == nil) || huge.dir[li] != nil && !slices.Equal(huge.dir[li].runs, loop.dir[li].runs) {
				t.Fatalf("%s: leaf %d differs from the Alloc2M calls'", what, li)
			}
		}
		if vs := huge.AuditOwners(map[int]bool{1: true}); vs != nil {
			t.Fatalf("audit after %s: %v", what, vs)
		}
	}
	rs, err := huge.AllocHuge(5, OwnerGuest, 1, nil)
	want := []FrameRange{{Start: leafB - 2*FramesPer2M, Count: 4 * FramesPer2M}, {Start: leafB + 3*FramesPer2M, Count: FramesPer2M}}
	if got := alloc2M(5); !slices.Equal(got, want) {
		t.Fatalf("Alloc2M calls took %v, want %v", got, want)
	}
	check("AllocHuge(5)", rs, err, want)

	// 508 free chunks left and frames for 512: the scan runs out of chunks.
	if _, err := huge.AllocHuge(509, OwnerGuest, 1, nil); err == nil || !strings.Contains(err.Error(), "fragmentation") {
		t.Fatalf("AllocHuge(509) = %v, want a fragmentation error", err)
	}
	check("failed AllocHuge(509)", nil, nil, nil)

	// From a cursor in leaf 1's last chunks: the scan wraps to leaf 0,
	// full, and on to leaf 1's first free chunks.
	huge.next, loop.next = 2*leafB-2*FramesPer2M, 2*leafB-2*FramesPer2M
	buf := make([]FrameRange, 1, 8)
	rs, err = huge.AllocHuge(4, OwnerGuest, 1, buf)
	check("AllocHuge(4) after the wrap", rs, err, alloc2M(4))
	if &rs[0] != &buf[0] {
		t.Fatal("AllocHuge did not return its runs in buf's storage")
	}
}
