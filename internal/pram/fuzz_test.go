package pram

import (
	"encoding/binary"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// fuzzBase is the frame the harness lays fuzz bytes out from: the PRAM
// pointer 0 reads as "no structure", so bytes at frame 0 are never parsed.
const fuzzBase = 1

// parseFuzzBytes lays data out as consecutive frames from fuzzBase of a
// fresh memory and parses the structure whose root page is the first.
func parseFuzzBytes(tb testing.TB, data []byte) (*Structure, error) {
	tb.Helper()
	fm := hw.NewPhysMem(8 << 20)
	n := max(1, min((len(data)+hw.PageSize4K-1)/hw.PageSize4K, int(fm.TotalFrames())-fuzzBase))
	if err := fm.ClaimRange(fuzzBase, uint64(n), hw.OwnerPRAM, -1); err != nil {
		tb.Fatal(err)
	}
	frames := []hw.FrameRange{{Start: fuzzBase, Count: uint64(n)}}
	image := data[:min(len(data), n*hw.PageSize4K)]
	if err := fm.FillRanges(frames, len(image), func(b []byte) { copy(b, image) }); err != nil {
		tb.Fatal(err)
	}
	return Parse(fm, fuzzBase)
}

// fuzzParseSeeds is the shared seed list: f.Add'ed by the fuzz target
// and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzParseSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	// Seed: a valid one-file structure written by the page writer, root
	// page first, at the frames the harness lays it out on.
	f := hugeSeedFile(hw.NewPhysMem(64 << 20))
	mem := hw.NewPhysMem(8 << 20)
	if err := mem.ClaimRange(fuzzBase, 3, hw.OwnerPRAM, -1); err != nil {
		tb.Fatal(err)
	}
	root, info, node := hw.MFN(fuzzBase), hw.MFN(fuzzBase+1), hw.MFN(fuzzBase+2)
	var seed []byte
	for _, job := range []pageJob{
		{frame: root, infos: []hw.MFN{info}},
		{frame: info, next: node, file: &f, entries: f.Extents.Len()},
		{frame: node, extents: f.Extents.Extents()},
	} {
		if err := job.write(mem); err != nil {
			tb.Fatal(err)
		}
		page := make([]byte, hw.PageSize4K)
		_ = mem.ReadInto(job.frame, 0, page)
		seed = append(seed, page...)
	}
	// A root page counting 1<<63 files: as an int the count is negative.
	hugeCount := binary.LittleEndian.AppendUint64(nil, rootMagic)
	hugeCount = binary.LittleEndian.AppendUint64(hugeCount, 0)
	hugeCount = binary.LittleEndian.AppendUint64(hugeCount, 1<<63)
	// The node page alone (where a root page belongs) stays the third seed.
	return [][]byte{seed, {}, seed[2*hw.PageSize4K:][:100], hugeCount}
}

func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzParseSeeds(t)
	fuzzseed.Check(t, "FuzzParse", seeds...)
	if _, err := parseFuzzBytes(t, seeds[0]); err != nil {
		t.Fatalf("the valid seed does not reach an accepted parse: %v", err)
	}
}

// TestParseRejectsHugeRootCount: a root page's count is bounded before
// it sizes anything. 1<<63 converts to a negative int, which once passed
// the "too large" check and panicked in make.
func TestParseRejectsHugeRootCount(t *testing.T) {
	seeds := fuzzParseSeeds(t)
	if _, err := parseFuzzBytes(t, seeds[len(seeds)-1]); err == nil {
		t.Fatal("root page counting 1<<63 files accepted")
	}
}

// FuzzParse: the boot-time PRAM parser reads whatever survived the
// micro-reboot; it must never panic, hang, or accept a structure whose
// internal accounting is inconsistent, no matter what bytes it finds.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzParseSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := parseFuzzBytes(t, data)
		if err != nil {
			return
		}
		// Accepted structures must be internally consistent.
		for _, file := range parsed.Files {
			if file.Extents.Len() == 0 {
				t.Fatal("accepted file with no extents")
			}
		}
	})
}

func hugeSeedFile(mem *hw.PhysMem) File {
	var extents []uisr.PageExtent
	for i := uint64(0); i < 4; i++ {
		base, err := mem.Alloc2M(hw.OwnerGuest, 1)
		if err != nil {
			panic(err)
		}
		extents = append(extents, uisr.PageExtent{
			GFN: i * hw.FramesPer2M, MFN: uint64(base), Order: 9,
		})
	}
	return File{Name: "seed", VMID: 1, Extents: uisr.NewMemMap(extents)}
}

// TestParserAllocBudget: laying a seed out and parsing it allocates the
// memory, its written pages, and Parse's frame maps and file lists.
func TestParserAllocBudget(t *testing.T) {
	fuzzseed.CheckAllocs(t, fuzzParseSeeds(t), 18, 0.42, func(b []byte) { parseFuzzBytes(t, b) })
}
