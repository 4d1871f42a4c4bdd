package pram

import (
	"reflect"
	"testing"
	"testing/quick"

	"hypertp/internal/hw"
	"hypertp/internal/par"
	"hypertp/internal/uisr"
)

func newMem() *hw.PhysMem { return hw.NewPhysMem(4 << 30) }

// metaFrames lists a structure's metadata frames one by one.
func metaFrames(s *Structure) []hw.MFN {
	var out []hw.MFN
	for _, r := range s.MetaFrames {
		for m := r.Start; m < r.End(); m++ {
			out = append(out, m)
		}
	}
	return out
}

// hugeFile builds a File describing memGiB of 2 MiB-backed guest memory
// with extents at arbitrary (but aligned) machine locations.
func hugeFile(mem *hw.PhysMem, name string, vmid uint32, memGiB int) File {
	f := File{Name: name, VMID: vmid}
	n := uint64(memGiB) * (1 << 30) / hw.PageSize2M
	for i := uint64(0); i < n; i++ {
		base, err := mem.Alloc2M(hw.OwnerGuest, int(vmid))
		if err != nil {
			panic(err)
		}
		f.Extents = append(f.Extents, uisr.PageExtent{
			GFN: i * hw.FramesPer2M, MFN: uint64(base), Order: 9,
		})
	}
	return f
}

func TestBuildParseRoundTrip(t *testing.T) {
	mem := newMem()
	files := []File{
		hugeFile(mem, "vm-a", 1, 1),
		hugeFile(mem, "vm-b", 2, 1),
	}
	s, err := Build(mem, files, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(mem, s.Pointer)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Files) != 2 {
		t.Fatalf("parsed %d files", len(parsed.Files))
	}
	for i := range files {
		if parsed.Files[i].Name != files[i].Name || parsed.Files[i].VMID != files[i].VMID {
			t.Fatalf("file %d identity mismatch", i)
		}
		if !reflect.DeepEqual(parsed.Files[i].Extents, files[i].Extents) {
			t.Fatalf("file %d extents mismatch", i)
		}
	}
	if parsed.MetadataBytes() != s.MetadataBytes() {
		t.Fatalf("parsed %d metadata bytes, built %d", parsed.MetadataBytes(), s.MetadataBytes())
	}
}

// Fig. 14 anchors: PRAM metadata is 16 KB for one 1 GiB VM, 60 KB for one
// 12 GiB VM, 148 KB for twelve 1 GiB VMs (all 2 MiB-backed).
func TestMetadataBytesMatchFig14(t *testing.T) {
	cases := []struct {
		vms, gib int
		want     uint64
	}{
		{1, 1, 16 << 10},
		{1, 12, 60 << 10},
		{12, 1, 148 << 10},
	}
	for _, tc := range cases {
		mem := hw.NewPhysMem(32 << 30)
		var files []File
		for v := 0; v < tc.vms; v++ {
			files = append(files, hugeFile(mem, "vm", uint32(v+1), tc.gib))
		}
		s, err := Build(mem, files, BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := s.MetadataBytes(); got != tc.want {
			t.Errorf("%d VMs x %d GiB: metadata = %d bytes, want %d",
				tc.vms, tc.gib, got, tc.want)
		}
	}
}

func TestSplitHugePagesAblation(t *testing.T) {
	mem := newMem()
	f := hugeFile(mem, "vm", 1, 1)
	withHuge, err := Build(mem, []File{f}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	split, err := Build(mem, []File{f}, BuildOptions{SplitHugePages: true})
	if err != nil {
		t.Fatal(err)
	}
	// 1 GiB as 4K entries: 262144 entries x 8 B ≈ 2 MiB of metadata —
	// the paper's "2 megabytes per GB in the all-4K worst case".
	if split.MetadataBytes() < 100*withHuge.MetadataBytes() {
		t.Fatalf("split metadata %d not ≫ huge metadata %d",
			split.MetadataBytes(), withHuge.MetadataBytes())
	}
	if split.MetadataBytes() < 2<<20 || split.MetadataBytes() > 3<<20 {
		t.Fatalf("split metadata = %d, want ~2 MiB", split.MetadataBytes())
	}
	// The parsed content must still describe the same memory.
	parsed, err := Parse(mem, split.Pointer)
	if err != nil {
		t.Fatal(err)
	}
	if parsed.Files[0].Bytes() != f.Bytes() {
		t.Fatal("split file covers different bytes")
	}
}

func TestEntryPackingRoundTrip(t *testing.T) {
	f := func(gfnRaw, mfnRaw uint32, orderRaw uint8) bool {
		order := orderRaw % 10
		e := uisr.PageExtent{
			GFN:   uint64(gfnRaw>>4) << order,
			MFN:   uint64(mfnRaw) << order,
			Order: order,
		}
		raw, err := packEntry(e)
		if err != nil {
			return false
		}
		return unpackEntry(raw) == e
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPackEntryRejectsBad(t *testing.T) {
	if _, err := packEntry(uisr.PageExtent{Order: 16}); err == nil {
		t.Fatal("order 16 accepted")
	}
	if _, err := packEntry(uisr.PageExtent{GFN: 1, MFN: 512, Order: 9}); err == nil {
		t.Fatal("misaligned gfn accepted")
	}
	if _, err := packEntry(uisr.PageExtent{GFN: 1 << 40, Order: 0}); err == nil {
		t.Fatal("oversized gfn accepted")
	}
}

func TestBuildRejectsEmpty(t *testing.T) {
	mem := newMem()
	if _, err := Build(mem, nil, BuildOptions{}); err == nil {
		t.Fatal("empty file list accepted")
	}
	if _, err := Build(mem, []File{{Name: "x"}}, BuildOptions{}); err == nil {
		t.Fatal("file without extents accepted")
	}
}

func TestBuildRejectsLongName(t *testing.T) {
	mem := newMem()
	f := hugeFile(mem, "vm", 1, 1)
	f.Name = string(make([]byte, 100))
	if _, err := Build(mem, []File{f}, BuildOptions{}); err == nil {
		t.Fatal("long name accepted")
	}
}

func TestParseRejectsCorruption(t *testing.T) {
	mem := newMem()
	s, err := Build(mem, []File{hugeFile(mem, "vm", 1, 1)}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt the root magic.
	mem.Write(s.Pointer, 0, []byte{0xde, 0xad})
	if _, err := Parse(mem, s.Pointer); err == nil {
		t.Fatal("corrupt root accepted")
	}
}

func TestParseRejectsEntryCountMismatch(t *testing.T) {
	mem := newMem()
	s, err := Build(mem, []File{hugeFile(mem, "vm", 1, 1)}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// The file info page is allocated right after the node chain; its
	// entry count lives at offset 16. Find it by scanning PRAM frames.
	for _, m := range metaFrames(s) {
		head := make([]byte, 8)
		_ = mem.ReadInto(m, 0, head)
		var magic uint64
		for i := 7; i >= 0; i-- {
			magic = magic<<8 | uint64(head[i])
		}
		if magic == fileMagic {
			mem.Write(m, 16, []byte{0xff})
		}
	}
	if _, err := Parse(mem, s.Pointer); err == nil {
		t.Fatal("entry count mismatch accepted")
	}
}

func TestParseRejectsCycle(t *testing.T) {
	mem := newMem()
	s, err := Build(mem, []File{hugeFile(mem, "vm", 1, 2)}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	// Point the first node's next pointer back at itself. Node pages
	// are the first allocations, so the first metadata frame is a node.
	var buf [8]byte
	v := uint64(s.MetaFrames[0].Start)
	for i := range buf {
		buf[i] = byte(v >> (8 * i))
	}
	mem.Write(s.MetaFrames[0].Start, 8, buf[:])
	if _, err := Parse(mem, s.Pointer); err == nil {
		t.Fatal("metadata cycle accepted")
	}
}

func TestFrameRangesCoverGuestAndMetadata(t *testing.T) {
	mem := newMem()
	f := hugeFile(mem, "vm", 1, 1)
	s, err := Build(mem, []File{f}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ranges := s.FrameRanges()
	var total uint64
	for i, r := range ranges {
		total += r.Count
		if i > 0 && ranges[i-1].Start+hw.MFN(ranges[i-1].Count) > r.Start {
			t.Fatal("ranges overlap or unsorted")
		}
	}
	wantGuest := uint64(1<<30) / hw.PageSize4K
	wantMeta := hw.CountFrames(s.MetaFrames)
	if total != wantGuest+wantMeta {
		t.Fatalf("ranges cover %d frames, want %d", total, wantGuest+wantMeta)
	}
}

func TestRelease(t *testing.T) {
	mem := newMem()
	f := hugeFile(mem, "vm", 1, 1)
	before := mem.AllocatedFrames()
	s, err := Build(mem, []File{f}, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Release(mem); err != nil {
		t.Fatal(err)
	}
	if mem.AllocatedFrames() != before {
		t.Fatal("metadata frames leaked")
	}
}

func TestManyFilesMultipleRootPages(t *testing.T) {
	mem := hw.NewPhysMem(8 << 30)
	var files []File
	// More files than fit in one root directory page (509).
	for i := 0; i < filePointersPerRoot+3; i++ {
		mfns, err := mem.AllocRanges(1, hw.OwnerGuest, i)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, File{
			Name: "tiny", VMID: uint32(i),
			Extents: []uisr.PageExtent{{GFN: 0, MFN: uint64(mfns[0].Start), Order: 0}},
		})
	}
	s, err := Build(mem, files, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := Parse(mem, s.Pointer)
	if err != nil {
		t.Fatal(err)
	}
	if len(parsed.Files) != len(files) {
		t.Fatalf("parsed %d files, want %d", len(parsed.Files), len(files))
	}
}

// Property: build→parse is the identity for random small VM layouts.
func TestPropertyBuildParse(t *testing.T) {
	f := func(nVMsRaw, nExtRaw uint8) bool {
		mem := hw.NewPhysMem(4 << 30)
		nVMs := int(nVMsRaw%4) + 1
		nExt := int(nExtRaw%8) + 1
		var files []File
		for v := 0; v < nVMs; v++ {
			f := File{Name: "vm", VMID: uint32(v + 1)}
			for e := 0; e < nExt; e++ {
				base, err := mem.Alloc2M(hw.OwnerGuest, v+1)
				if err != nil {
					return false
				}
				f.Extents = append(f.Extents, uisr.PageExtent{
					GFN: uint64(e) * hw.FramesPer2M, MFN: uint64(base), Order: 9,
				})
			}
			files = append(files, f)
		}
		s, err := Build(mem, files, BuildOptions{})
		if err != nil {
			return false
		}
		parsed, err := Parse(mem, s.Pointer)
		if err != nil {
			return false
		}
		if len(parsed.Files) != nVMs {
			return false
		}
		for i := range files {
			if !reflect.DeepEqual(parsed.Files[i].Extents, files[i].Extents) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// refVM is the paper's reference VM shape, 8 GiB huge-page backed, on a
// 16 GiB machine: the fixture of the codec budgets and benchmarks below.
func refVM() (*hw.PhysMem, []File) {
	mem := hw.NewPhysMem(16 << 30)
	return mem, []File{hugeFile(mem, "ref", 1, 8)}
}

// TestBuildParseAllocBudgets pins one PRAM hand-over of the reference VM
// at one worker: a cold Build allocates its page jobs and frame lists,
// Parse the frame maps and the file list it fills — neither per extent.
func TestBuildParseAllocBudgets(t *testing.T) {
	par.SetWorkers(1)
	defer par.SetWorkers(0)
	mem, files := refVM()
	var s *Structure
	var err error
	if n := testing.AllocsPerRun(10, func() {
		if s, err = Build(mem, files, BuildOptions{}); err == nil {
			err = s.Release(mem)
		}
	}); n > 29 || err != nil {
		t.Errorf("Build+Release allocated %v times per call, budget 29 (err %v)", n, err)
	}
	if s, err = Build(mem, files, BuildOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(10, func() { _, err = Parse(mem, s.Pointer) }); n > 21 || err != nil {
		t.Errorf("Parse allocated %v times per call, budget 21 (err %v)", n, err)
	}
}

func BenchmarkPRAMSerialize(b *testing.B) {
	mem, files := refVM()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Build(mem, files, BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRAMParse(b *testing.B) {
	mem, files := refVM()
	s, err := Build(mem, files, BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(mem, s.Pointer); err != nil {
			b.Fatal(err)
		}
	}
}
