package hv

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hypertp/internal/guest"
	"hypertp/internal/hw"
)

// refCopyContentsTo is CopyContentsTo as it was before spans: one
// ForEachTouched per extent of the source, one WritePage per touched page.
func refCopyContentsTo(src, dst *AddressSpace) error {
	for _, e := range src.Extents().Extents() {
		run := []hw.FrameRange{{Start: hw.MFN(e.MFN), Count: e.Pages()}}
		err := src.mem.ForEachTouched(run, func(i uint64, off int, data []byte) error {
			return dst.WritePage(hw.GFN(e.GFN+i), off, data)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// copyCase is one shape of copy: the spaces' pages (huge, 4 KiB, or
// 4 KiB frames in shuffled order), whether source and destination share a
// machine, and what the destination holds before the copy.
type copyCase struct {
	name    string
	huge    bool
	shuffle bool
	same    bool
	dedup   bool // page dedup on every machine
	// pre has the destination written before the copy: windows the
	// copy's writes fall inside, outside (a regrow) and around.
	pre bool
}

// copyRig is one build of a case: a guest on src, whose every write the
// guest logs, and dst, the copy's destination.
type copyRig struct {
	src, dst *AddressSpace
	g        *guest.Guest
}

const copyPages = 4 * hw.FramesPer2M

// space allocates a copyPages space on mem for vm, shaped as tc says.
func (tc copyCase) space(t *testing.T, mem *hw.PhysMem, vm int) *AddressSpace {
	t.Helper()
	if !tc.shuffle {
		as, err := AllocAddressSpace(mem, vm, copyPages*hw.PageSize4K, tc.huge)
		if err != nil {
			t.Fatal(err)
		}
		return as
	}
	// Every second frame of a stretch, mapped in shuffled order: no two
	// guest frames adjacent in GFN are adjacent in MFN.
	base := hw.MFN(2 * copyPages * vm)
	frames := make([]hw.FrameRange, copyPages)
	for k := range frames {
		frames[k] = hw.FrameRange{Start: base + hw.MFN(2*k+1), Count: 1}
		if err := mem.ClaimRange(frames[k].Start, 1, hw.OwnerGuest, vm); err != nil {
			t.Fatal(err)
		}
	}
	rand.New(rand.NewSource(int64(vm))).Shuffle(len(frames), func(i, j int) { frames[i], frames[j] = frames[j], frames[i] })
	as, err := NewAddressSpace(mem, FrameExtents(frames))
	if err != nil {
		t.Fatal(err)
	}
	return as
}

// build makes the case's spaces and writes them; the same case always
// builds the same bytes, windows and sharing.
func (tc copyCase) build(t *testing.T) copyRig {
	t.Helper()
	newMachine := func() *hw.PhysMem {
		m := hw.NewPhysMem(64 << 20)
		m.SetPageDedup(tc.dedup)
		return m
	}
	srcMem, dstMem := newMachine(), newMachine()
	if tc.same {
		dstMem = srcMem
	}
	// A few frames ahead of the spaces, so 4 KiB spaces straddle chunks.
	if _, err := srcMem.AllocRanges(17, hw.OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	r := copyRig{src: tc.space(t, srcMem, 1), dst: tc.space(t, dstMem, 2)}
	r.g = guest.New("g", r.src)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	full := func(seed int) []byte {
		return bytes.Repeat([]byte{byte(seed), byte(seed >> 8), 0xC3, 1}, hw.PageSize4K/4)
	}
	// Records in the first and last chunk, prefix windows at offset 0,
	// windows regrown to the whole frame, and whole pages.
	must(r.g.WriteWorkingSet(0, 300))
	must(r.g.WriteWorkingSet(copyPages-100, 100))
	for gfn := hw.GFN(600); gfn < 640; gfn++ {
		must(r.g.Write(gfn, 0, []byte{byte(gfn), 7, 7}))
	}
	for gfn := hw.GFN(700); gfn < 720; gfn++ {
		must(r.g.Write(gfn, 100, []byte{byte(gfn), 9}))
		must(r.g.Write(gfn, 3000, []byte{9, byte(gfn)})) // outside: regrown
	}
	for gfn := hw.GFN(900); gfn < 940; gfn++ {
		must(r.g.Write(gfn, 0, full(int(gfn))))
	}
	if !tc.pre {
		return r
	}
	for gfn := hw.GFN(0); gfn < 40; gfn++ {
		must(r.dst.WritePage(gfn, 0, full(int(gfn)+1000))) // whole frames: the records land inside
	}
	for gfn := hw.GFN(600); gfn < 620; gfn++ {
		must(r.dst.WritePage(gfn, 2000, []byte{1, 2, 3})) // the prefixes land outside
	}
	for gfn := hw.GFN(900); gfn < 940; gfn++ {
		// The next source page's bytes: under dedup on one machine the
		// frame shares that page, and the copy must unshare it.
		must(r.dst.WritePage(gfn, 0, full(int(gfn)+1)))
	}
	for gfn := hw.GFN(1000); gfn < 1010; gfn++ {
		must(r.dst.WritePage(gfn, 0, full(5))) // frames the copy leaves alone, sharing one page
	}
	for gfn := hw.GFN(920); gfn < 930; gfn++ {
		must(r.dst.WritePage(gfn, 0, full(5))) // and frames it writes sharing that page
	}
	return r
}

// pageWindow is a touched page's written window.
type pageWindow struct {
	off  int
	data string
}

// windows lists the written window of every touched page of as, walking
// each extent.
func windows(t *testing.T, as *AddressSpace) map[hw.GFN]pageWindow {
	t.Helper()
	out := map[hw.GFN]pageWindow{}
	for _, e := range as.Extents().Extents() {
		run := []hw.FrameRange{{Start: hw.MFN(e.MFN), Count: e.Pages()}}
		err := as.mem.ForEachTouched(run, func(i uint64, off int, data []byte) error {
			out[hw.GFN(e.GFN+i)] = pageWindow{off, string(data)}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// checkCopy compares a copy with the reference copy of the same case: the
// checksums of both sides, every destination window, and the guest's
// every logged byte on both sides.
func checkCopy(t *testing.T, ref, got copyRig) error {
	sums := func(r copyRig) (a, b uint64) {
		a, errA := r.src.ChecksumAll()
		b, errB := r.dst.ChecksumAll()
		if errA != nil || errB != nil {
			t.Fatal(errA, errB)
		}
		return a, b
	}
	refSrc, refDst := sums(ref)
	gotSrc, gotDst := sums(got)
	if gotSrc != refSrc || gotDst != refDst {
		return fmt.Errorf("ChecksumAll source %#x, destination %#x; reference %#x, %#x", gotSrc, gotDst, refSrc, refDst)
	}
	want, have := windows(t, ref.dst), windows(t, got.dst)
	if len(have) != len(want) {
		return fmt.Errorf("%d destination pages touched, reference %d", len(have), len(want))
	}
	for gfn, w := range want {
		if h, ok := have[gfn]; !ok || h != w {
			return fmt.Errorf("gfn %d window [%d,+%d), reference [%d,+%d) (or bytes differ)", gfn, h.off, len(h.data), w.off, len(w.data))
		}
	}
	for _, side := range []*AddressSpace{got.src, got.dst} {
		got.g.Rebind(side)
		if err := got.g.Verify(); err != nil {
			return fmt.Errorf("Verify: %w", err)
		}
	}
	return nil
}

// TestCopyContentsToMatchesPerPageReference: the copy by spans — one
// walk of the source, one bulk write into the destination — leaves both
// sides exactly as the per-extent, per-page copy did, on every shape of
// space, on one machine and on two, into fresh, written, regrown and
// shared destination pages.
func TestCopyContentsToMatchesPerPageReference(t *testing.T) {
	var cases []copyCase
	for _, same := range []bool{true, false} {
		where := map[bool]string{true: "one-machine", false: "two-machines"}[same]
		cases = append(cases,
			copyCase{name: "huge/" + where, huge: true, same: same},
			copyCase{name: "4k/" + where, same: same},
			copyCase{name: "shuffled-4k/" + where, shuffle: true, same: same},
			copyCase{name: "regrown/" + where, huge: true, same: same, pre: true},
			copyCase{name: "4k-regrown/" + where, same: same, pre: true},
			copyCase{name: "dedup-shared/" + where, huge: true, same: same, pre: true, dedup: true},
		)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.build(t), tc.build(t)
			if err := refCopyContentsTo(ref.src, ref.dst); err != nil {
				t.Fatal(err)
			}
			if err := got.src.CopyContentsTo(got.dst); err != nil {
				t.Fatal(err)
			}
			if err := checkCopy(t, ref, got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCopyChunkVisitsFlatInMemory: copying a 256-page working set walks
// its one written chunk, whatever the guest's size.
func TestCopyChunkVisitsFlatInMemory(t *testing.T) {
	var visits []uint64
	for _, gib := range []uint64{1, 4, 12} {
		src, dst := hw.NewPhysMem(16*hw.GiB), hw.NewPhysMem(16*hw.GiB)
		a, err := AllocAddressSpace(src, 1, gib*hw.GiB, true)
		if err != nil {
			t.Fatal(err)
		}
		b, err := AllocAddressSpace(dst, 1, gib*hw.GiB, true)
		if err != nil {
			t.Fatal(err)
		}
		if err := guest.New("g", a).WriteWorkingSet(0, 256); err != nil {
			t.Fatal(err)
		}
		before := src.Work().Chunks
		if err := a.CopyContentsTo(b); err != nil {
			t.Fatal(err)
		}
		visits = append(visits, src.Work().Chunks-before)
	}
	if visits[0] != 1 || visits[1] != visits[0] || visits[2] != visits[0] {
		t.Fatalf("copy visited %v written chunks at 1, 4 and 12 GiB, want 1 each", visits)
	}
}
