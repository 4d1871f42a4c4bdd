package pram

import (
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// fuzzParseSeeds is the shared seed list: f.Add'ed by the fuzz target
// and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzParseSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	// Seed: a valid structure's first metadata pages.
	mem := hw.NewPhysMem(64 << 20)
	fr := hugeSeedFile(mem)
	s, err := Build(mem, []File{fr}, BuildOptions{})
	if err != nil {
		tb.Fatal(err)
	}
	var seed []byte
	for _, m := range metaFrames(s) {
		page := make([]byte, hw.PageSize4K)
		_ = mem.ReadInto(m, 0, page)
		seed = append(seed, page...)
	}
	return [][]byte{seed, {}, seed[:100]}
}

func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzParse", fuzzParseSeeds(t)...)
}

// FuzzParse: the boot-time PRAM parser reads whatever survived the
// micro-reboot; it must never panic, hang, or accept a structure whose
// internal accounting is inconsistent, no matter what bytes it finds.
func FuzzParse(f *testing.F) {
	for _, seed := range fuzzParseSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Lay the fuzz bytes out as consecutive frames starting at 0 of
		// a fresh memory and parse from frame 0.
		fm := hw.NewPhysMem(8 << 20)
		nFrames := (len(data) + hw.PageSize4K - 1) / hw.PageSize4K
		if nFrames == 0 {
			nFrames = 1
		}
		if nFrames > int(fm.TotalFrames()) {
			nFrames = int(fm.TotalFrames())
		}
		frames, err := fm.AllocRanges(nFrames, hw.OwnerPRAM, -1)
		if err != nil {
			t.Skip()
		}
		if err := fm.WriteRanges(frames, data[:min(len(data), nFrames*hw.PageSize4K)]); err != nil {
			t.Fatal(err)
		}
		parsed, err := Parse(fm, frames[0].Start)
		if err != nil {
			return
		}
		// Accepted structures must be internally consistent.
		for _, file := range parsed.Files {
			if len(file.Extents) == 0 {
				t.Fatal("accepted file with no extents")
			}
		}
	})
}

func hugeSeedFile(mem *hw.PhysMem) File {
	f := File{Name: "seed", VMID: 1}
	for i := uint64(0); i < 4; i++ {
		base, err := mem.Alloc2M(hw.OwnerGuest, 1)
		if err != nil {
			panic(err)
		}
		f.Extents = append(f.Extents, uisr.PageExtent{
			GFN: i * hw.FramesPer2M, MFN: uint64(base), Order: 9,
		})
	}
	return f
}
