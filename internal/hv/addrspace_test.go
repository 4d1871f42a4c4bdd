package hv

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

func newMem() *hw.PhysMem { return hw.NewPhysMem(256 << 20) }

func TestConfigValidate(t *testing.T) {
	good := Config{Name: "vm", VCPUs: 1, MemBytes: 1 << 30, HugePages: true}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{Name: "", VCPUs: 1, MemBytes: 1 << 30},
		{Name: "vm", VCPUs: 0, MemBytes: 1 << 30},
		{Name: "vm", VCPUs: uisr.MaxVCPUs + 1, MemBytes: 1 << 30}, // Decode would refuse its blob
		{Name: "vm", VCPUs: 1, MemBytes: 0},
		{Name: "vm", VCPUs: 1, MemBytes: 4097},
		{Name: "vm", VCPUs: 1, MemBytes: 4096 * 3, HugePages: true},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
}

func TestKindString(t *testing.T) {
	if KindXen.String() != "xen" || KindKVM.String() != "kvm" {
		t.Fatal("kind strings wrong")
	}
	if Kind(9).String() == "" {
		t.Fatal("unknown kind empty string")
	}
}

func TestParseKind(t *testing.T) {
	for _, k := range []Kind{KindXen, KindKVM, KindNOVA} {
		if got, err := ParseKind(k.String()); err != nil || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v", k, got, err)
		}
	}
	for _, name := range []string{"", "XEN", "vmware", Kind(9).String()} {
		if _, err := ParseKind(name); err == nil {
			t.Fatalf("ParseKind(%q) accepted", name)
		}
	}
}

func TestAllocAddressSpace4K(t *testing.T) {
	mem := newMem()
	as, err := AllocAddressSpace(mem, 1, 64*hw.PageSize4K, false)
	if err != nil {
		t.Fatal(err)
	}
	if as.NumPages() != 64 {
		t.Fatalf("NumPages = %d", as.NumPages())
	}
	if as.Bytes() != 64*hw.PageSize4K {
		t.Fatalf("Bytes = %d", as.Bytes())
	}
	for gfn := hw.GFN(0); gfn < 64; gfn++ {
		mfn, err := as.Translate(gfn)
		if err != nil {
			t.Fatal(err)
		}
		if owner, vm := mem.OwnerOf(mfn); owner != hw.OwnerGuest || vm != 1 {
			t.Fatalf("frame %d owner %v/%d", mfn, owner, vm)
		}
	}
}

func TestAllocAddressSpaceHuge(t *testing.T) {
	mem := newMem()
	as, err := AllocAddressSpace(mem, 2, 8*hw.PageSize2M, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(as.Extents().Extents()) != 8 {
		t.Fatalf("extents = %d, want 8", len(as.Extents().Extents()))
	}
	for _, e := range as.Extents().Extents() {
		if e.Order != 9 {
			t.Fatalf("extent order %d, want 9", e.Order)
		}
	}
	if as.NumPages() != 8*hw.FramesPer2M {
		t.Fatalf("NumPages = %d", as.NumPages())
	}
}

// TestAllocAddressSpaceHugeFailsWhole: a huge-page guest the machine's
// free frames could hold but its whole free chunks cannot is refused
// without taking any chunk, so no frame is left tagged for a VM that
// never exists.
func TestAllocAddressSpaceHugeFailsWhole(t *testing.T) {
	mem := hw.NewPhysMem(16 << 20)
	for c := hw.MFN(0); c < 4; c++ {
		if err := mem.ClaimRange(c*hw.FramesPer2M+5, 1, hw.OwnerHV, -1); err != nil {
			t.Fatal(err)
		}
	}
	free := mem.FreeFrames()
	if _, err := AllocAddressSpace(mem, 1, 12<<20, true); err == nil || !strings.Contains(err.Error(), "no aligned 2M run") {
		t.Fatalf("AllocAddressSpace = %v, want a fragmentation error", err)
	}
	if got := mem.FreeFrames(); got != free {
		t.Fatalf("FreeFrames %d after the failed allocation, %d before", got, free)
	}
	if vs := mem.AuditOwners(nil); vs != nil {
		t.Fatalf("audit after the failed allocation: %v", vs)
	}
	// The four whole chunks left make an 8 MiB guest, in chunk order.
	as, err := AllocAddressSpace(mem, 1, 8<<20, true)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range as.Extents().Extents() {
		if want := uint64(4+i) * hw.FramesPer2M; e.GFN != uint64(i)*hw.FramesPer2M || e.MFN != want || e.Order != 9 {
			t.Fatalf("extent %d = %+v, want gfn %d mfn %d order 9", i, e, uint64(i)*hw.FramesPer2M, want)
		}
	}
}

func TestTranslateUnmapped(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 16*hw.PageSize4K, false)
	if _, err := as.Translate(16); err == nil {
		t.Fatal("translate past end succeeded")
	}
}

func TestNewAddressSpaceRejectsOverlap(t *testing.T) {
	mem := newMem()
	extents := []uisr.PageExtent{
		{GFN: 0, MFN: 0, Order: 9},
		{GFN: 256, MFN: 1024, Order: 9}, // overlaps the first (0..511)
	}
	if _, err := NewAddressSpace(mem, uisr.NewMemMap(extents)); err == nil {
		t.Fatal("overlapping extents accepted")
	}
}

// TestNewAddressSpaceAdoptsSortedMapsByReference: a map sorted by GFN —
// an adopted PRAM map — becomes the space's map as given, with no copy;
// an unsorted one is sorted into a private copy, so the caller's slice,
// which may be a parse memo's, is never reordered.
func TestNewAddressSpaceAdoptsSortedMapsByReference(t *testing.T) {
	sorted := []uisr.PageExtent{{GFN: 0, MFN: 1024, Order: 9}, {GFN: 512, MFN: 0, Order: 9}}
	as, err := NewAddressSpace(newMem(), uisr.NewMemMap(sorted))
	if err != nil {
		t.Fatal(err)
	}
	if &as.Extents().Extents()[0] != &sorted[0] {
		t.Fatal("a sorted map was copied")
	}
	unsorted := []uisr.PageExtent{sorted[1], sorted[0]}
	if as, err = NewAddressSpace(newMem(), uisr.NewMemMap(unsorted)); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(as.Extents().Extents(), sorted) || unsorted[0] != sorted[1] {
		t.Fatalf("unsorted map %v became %v; want %v, the input left as it was", unsorted, as.Extents().Extents(), sorted)
	}
}

func TestNewAddressSpaceRejectsMisaligned(t *testing.T) {
	mem := newMem()
	if _, err := NewAddressSpace(mem, uisr.NewMemMap([]uisr.PageExtent{{GFN: 1, MFN: 512, Order: 9}})); err == nil {
		t.Fatal("misaligned extent accepted")
	}
}

// TestNewAddressSpaceRejectsOrderPast63: an extent of 2^64 pages or more
// has no page count (Pages() is 0), so neither a modulus nor a mask can
// check its alignment; it is refused with an error, never a divide by
// zero or a silent zero-page extent.
func TestNewAddressSpaceRejectsOrderPast63(t *testing.T) {
	for _, order := range []uint8{64, 65, 255} {
		_, err := NewAddressSpace(newMem(), uisr.NewMemMap([]uisr.PageExtent{{GFN: 0, MFN: 0, Order: order}}))
		if err == nil || !strings.Contains(err.Error(), "order") {
			t.Fatalf("order %d: err %v, want an order error", order, err)
		}
	}
}

func TestReadWriteThroughSpace(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 4*hw.PageSize2M, true)
	if err := as.WritePage(700, 8, []byte("deadbeef")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 8)
	if err := as.ReadPage(700, 8, got); err != nil || string(got) != "deadbeef" {
		t.Fatalf("read %q, %v", got, err)
	}
}

func TestDirtyLog(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 64*hw.PageSize4K, false)
	// Writes before enabling are not tracked.
	as.WritePage(1, 0, []byte{1})
	as.EnableDirtyLog()
	if !as.DirtyLogEnabled() {
		t.Fatal("dirty log not enabled")
	}
	as.WritePage(5, 0, []byte{1})
	as.WritePage(9, 0, []byte{1})
	as.WritePage(5, 8, []byte{1})
	dirty := as.FetchAndClearDirty()
	if len(dirty) != 2 || dirty[0] != 5 || dirty[1] != 9 {
		t.Fatalf("dirty = %v, want [5 9]", dirty)
	}
	if got := as.FetchAndClearDirty(); len(got) != 0 {
		t.Fatalf("second fetch = %v, want empty", got)
	}
	as.DisableDirtyLog()
	as.WritePage(3, 0, []byte{1})
	if got := as.FetchAndClearDirty(); got != nil {
		t.Fatalf("fetch after disable = %v", got)
	}
}

func TestChecksumAllDetectsChange(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 16*hw.PageSize4K, false)
	c0, err := as.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	as.WritePage(3, 100, []byte{0xAB})
	c1, err := as.ChecksumAll()
	if err != nil {
		t.Fatal(err)
	}
	if c0 == c1 {
		t.Fatal("checksum unchanged after write")
	}
}

func TestChecksumPlacementIndependent(t *testing.T) {
	// Two spaces with the same guest contents but different frame
	// placement must checksum identically — this is what lets tests
	// compare pre/post MigrationTP images.
	memA, memB := newMem(), newMem()
	memB.AllocRanges(17, hw.OwnerHV, -1) // skew placement on B
	a, _ := AllocAddressSpace(memA, 1, 32*hw.PageSize4K, false)
	b, _ := AllocAddressSpace(memB, 1, 32*hw.PageSize4K, false)
	for gfn := hw.GFN(0); gfn < 32; gfn += 3 {
		payload := []byte{byte(gfn), 0x55}
		a.WritePage(gfn, int(gfn)*7, payload)
		b.WritePage(gfn, int(gfn)*7, payload)
	}
	ca, _ := a.ChecksumAll()
	cb, _ := b.ChecksumAll()
	if ca != cb {
		t.Fatal("same contents, different checksums")
	}
}

func TestFrameRangesMerged(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 4*hw.PageSize2M, true)
	ranges := as.FrameRanges()
	var total uint64
	for i, r := range ranges {
		total += r.Count
		if i > 0 && ranges[i-1].Start+hw.MFN(ranges[i-1].Count) >= r.Start+1 {
			if ranges[i-1].Start+hw.MFN(ranges[i-1].Count) == r.Start {
				t.Fatal("adjacent ranges not merged")
			}
		}
	}
	if total != as.NumPages() {
		t.Fatalf("ranges cover %d frames, want %d", total, as.NumPages())
	}
}

func TestRelease(t *testing.T) {
	mem := newMem()
	before := mem.AllocatedFrames()
	as, _ := AllocAddressSpace(mem, 1, 2*hw.PageSize2M, true)
	if err := as.Release(); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedFrames() != before {
		t.Fatalf("leak: %d frames allocated after release", mem.AllocatedFrames())
	}
}

// TestRetag retags a space alone, then with a kept translation: the
// first such retag keeps the space's frames as runs, and the next one
// retags those runs, not the map's extents.
func TestRetag(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 2*hw.PageSize2M, true)
	vmOf := func(gfn hw.GFN) int {
		mfn, _ := as.Translate(gfn)
		_, vm := mem.OwnerOf(mfn)
		return vm
	}
	if err := as.Retag(hw.OwnerGuest, 42, nil); err != nil || vmOf(0) != 42 || vmOf(hw.FramesPer2M+5) != 42 {
		t.Fatalf("retag to 42: %v; vm tags %d, %d", err, vmOf(0), vmOf(hw.FramesPer2M+5))
	}
	tr := &Translation{}
	if err := as.Retag(hw.OwnerGuest, 43, tr); err != nil || !hw.SameFrames(tr.Runs, as.FrameRanges()) {
		t.Fatalf("retag to 43: %v; kept runs %v, space's frames %v", err, tr.Runs, as.FrameRanges())
	}
	// Keep only the first extent's run: the next retag leaves the second.
	first, _ := as.Translate(0)
	tr.Runs = []hw.FrameRange{{Start: first, Count: hw.FramesPer2M}}
	if err := as.Retag(hw.OwnerGuest, 44, tr); err != nil || vmOf(0) != 44 || vmOf(hw.FramesPer2M+5) != 43 {
		t.Fatalf("retag to 44 from kept runs: %v; vm tags %d, %d, want 44, 43", err, vmOf(0), vmOf(hw.FramesPer2M+5))
	}
}

func TestVMPausedFlag(t *testing.T) {
	vm := &VM{}
	if vm.Paused() {
		t.Fatal("new VM paused")
	}
	vm.paused = true
	if !vm.Paused() {
		t.Fatal("Paused() does not report the run state")
	}
}

// Property: translate is consistent with the extent list for random
// huge/4K mixes.
func TestPropertyTranslate(t *testing.T) {
	f := func(seed uint8) bool {
		mem := newMem()
		nHuge := int(seed%3) + 1
		as, err := AllocAddressSpace(mem, 1, uint64(nHuge)*hw.PageSize2M, true)
		if err != nil {
			return false
		}
		for _, e := range as.Extents().Extents() {
			for p := uint64(0); p < e.Pages(); p += 37 {
				mfn, err := as.Translate(hw.GFN(e.GFN + p))
				if err != nil || uint64(mfn) != e.MFN+p {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// refChecksumAll is ChecksumAll spelled frame by frame: one Checksum per
// guest page, keyed by its GFN.
func refChecksumAll(t *testing.T, mem *hw.PhysMem, as *AddressSpace) uint64 {
	t.Helper()
	var sum uint64
	for _, e := range as.Extents().Extents() {
		for p := uint64(0); p < e.Pages(); p++ {
			c, err := mem.Checksum(hw.MFN(e.MFN + p))
			if err != nil {
				t.Fatal(err)
			}
			sum += c * ((e.GFN+p)*2654435761 + 97)
		}
	}
	return sum
}

// touchedPages counts the frames of as that hold contents.
func touchedPages(t *testing.T, mem *hw.PhysMem, as *AddressSpace) int {
	t.Helper()
	n := 0
	for _, e := range as.Extents().Extents() {
		run := []hw.FrameRange{{Start: hw.MFN(e.MFN), Count: e.Pages()}}
		err := mem.ForEachTouched(run, func(uint64, int, []byte) error { n++; return nil })
		if err != nil {
			t.Fatal(err)
		}
	}
	return n
}

// TestContentSweepsMatchPerFrameReference: ChecksumAll and CopyContentsTo
// run on ranges and skip untouched chunks; on every shape of space they
// must agree with the per-frame walk they replaced.
func TestContentSweepsMatchPerFrameReference(t *testing.T) {
	const chunk = hw.FramesPer2M
	cases := []struct {
		name     string
		memBytes uint64 // machine size; the last chunk may be partial
		skew     int    // frames allocated first, so order-0 spaces straddle chunks
		pages    uint64
		huge     bool
		dedup    bool
		writes   func(gfn uint64) bool
	}{
		{name: "sparse", memBytes: 256 << 20, pages: 32 * chunk, huge: true,
			writes: func(g uint64) bool { return g%(7*chunk+13) == 5 }},
		{name: "untouched", memBytes: 256 << 20, pages: 4 * chunk, huge: true,
			writes: func(uint64) bool { return false }},
		{name: "dense", memBytes: 256 << 20, pages: chunk, huge: true,
			writes: func(uint64) bool { return true }},
		{name: "dedup-shared", memBytes: 256 << 20, pages: 2 * chunk, huge: true, dedup: true,
			writes: func(g uint64) bool { return g%2 == 0 }},
		{name: "partially-touched", memBytes: 256 << 20, pages: 3 * chunk, huge: true,
			writes: func(g uint64) bool { return g/chunk == 1 && g%3 == 0 }},
		{name: "order-0", memBytes: 256 << 20, skew: 17, pages: chunk + 188,
			writes: func(g uint64) bool { return g%5 == 1 }},
		{name: "last-partial-chunk", memBytes: 2*hw.PageSize2M + 300*hw.PageSize4K, skew: 400, pages: 824,
			writes: func(g uint64) bool { return g >= 600 || g%64 == 0 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			src, dst := hw.NewPhysMem(tc.memBytes), hw.NewPhysMem(tc.memBytes)
			src.SetPageDedup(tc.dedup)
			if tc.skew > 0 {
				if _, err := src.AllocRanges(tc.skew, hw.OwnerHV, -1); err != nil {
					t.Fatal(err)
				}
			}
			a, err := AllocAddressSpace(src, 1, tc.pages*hw.PageSize4K, tc.huge)
			if err != nil {
				t.Fatal(err)
			}
			b, err := AllocAddressSpace(dst, 2, tc.pages*hw.PageSize4K, tc.huge)
			if err != nil {
				t.Fatal(err)
			}
			written := 0
			for g := uint64(0); g < tc.pages; g++ {
				if !tc.writes(g) {
					continue
				}
				written++
				payload := []byte{byte(g), byte(g >> 8), 0x5a}
				if tc.dedup {
					payload = []byte{0x5a} // identical pages, shared
				}
				if err := a.WritePage(hw.GFN(g), int(g%4000), payload); err != nil {
					t.Fatal(err)
				}
			}
			// Twice: the first call hashes, the second reads cached sums.
			for i := 0; i < 2; i++ {
				got, err := a.ChecksumAll()
				if want := refChecksumAll(t, src, a); err != nil || got != want {
					t.Fatalf("pass %d: ChecksumAll = %#x, %v; per-frame reference %#x", i, got, err, want)
				}
			}
			if err := a.CopyContentsTo(b); err != nil {
				t.Fatal(err)
			}
			if got := touchedPages(t, dst, b); got != written {
				t.Fatalf("copy touched %d destination pages, source has %d", got, written)
			}
			for g := uint64(0); g < tc.pages; g++ {
				want, got := make([]byte, hw.PageSize4K), make([]byte, hw.PageSize4K)
				_ = a.ReadPage(hw.GFN(g), 0, want)
				if err := b.ReadPage(hw.GFN(g), 0, got); err != nil || !bytes.Equal(got, want) {
					t.Fatalf("gfn %d differs after copy (err %v)", g, err)
				}
			}
			sa, _ := a.ChecksumAll()
			sb, err := b.ChecksumAll()
			if err != nil || sa != sb || sb != refChecksumAll(t, dst, b) {
				t.Fatalf("after copy: source %#x, destination %#x (err %v), reference %#x",
					sa, sb, err, refChecksumAll(t, dst, b))
			}
		})
	}
}

// TestContentSweepsRejectFreedFrames: a space whose frames were freed
// behind its back must fail both sweeps, touched or not.
func TestContentSweepsRejectFreedFrames(t *testing.T) {
	mem := newMem()
	as, _ := AllocAddressSpace(mem, 1, 2*hw.PageSize2M, true)
	dst, _ := AllocAddressSpace(mem, 2, 2*hw.PageSize2M, true)
	if err := mem.FreeRange(hw.MFN(as.Extents().Extents()[1].MFN)+9, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := as.ChecksumAll(); err == nil {
		t.Fatal("ChecksumAll over a freed frame succeeded")
	}
	if err := as.CopyContentsTo(dst); err == nil {
		t.Fatal("CopyContentsTo over a freed frame succeeded")
	}
}
