package uisr_test

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hv"
	"hypertp/internal/uisr"
)

// The reference model is the memory-map checking as it stood before a
// map carried its summary: each consumer's own loop over the extents.

// refValidate is VMState.Validate's order and coverage loop.
func refValidate(name string, memBytes uint64, extents []uisr.PageExtent) error {
	var covered uint64
	for i, e := range extents {
		if e.Order >= 64 {
			return fmt.Errorf("uisr: VM %q memmap extent %d has order %d, want below 64", name, i, e.Order)
		}
		covered += e.Pages() * 4096
	}
	if len(extents) > 0 && covered != memBytes {
		return fmt.Errorf("uisr: VM %q memmap covers %d bytes, MemBytes is %d", name, covered, memBytes)
	}
	return nil
}

// refAddressSpace is hv.NewAddressSpace's sort, alignment and overlap
// loop: the map the space keeps and its page count, or the error.
func refAddressSpace(extents []uisr.PageExtent) ([]uisr.PageExtent, uint64, error) {
	byGFN := func(a, b uisr.PageExtent) int { return cmp.Compare(a.GFN, b.GFN) }
	sorted := extents
	if !slices.IsSortedFunc(sorted, byGFN) {
		sorted = slices.Clone(extents)
		slices.SortFunc(sorted, byGFN)
	}
	var pages uint64
	for i, e := range sorted {
		if e.Order >= 64 || (e.GFN|e.MFN)&(e.Pages()-1) != 0 {
			return nil, 0, fmt.Errorf("hv: extent %d (gfn %d mfn %d order %d) misaligned or of order past 63",
				i, e.GFN, e.MFN, e.Order)
		}
		if i > 0 {
			prev := sorted[i-1]
			if prev.GFN+prev.Pages() > e.GFN {
				return nil, 0, fmt.Errorf("hv: extents %d and %d overlap", i-1, i)
			}
		}
		pages += e.Pages()
	}
	return sorted, pages, nil
}

// decodeMemMap turns fuzz bytes into a map and a VM size. Byte 0 offsets
// the size from the map's coverage in 4 KiB pages (0: an exact fit). Each
// 8 bytes after it are one extent: an order (bytes from 192 up taken
// whole, so orders past 63 occur, the rest modulo 64), a 16-bit GFN and
// MFN, scaled to the order unless flag bit 0 is set, bit 1 setting the
// GFN's top bit (its sum with the size wraps) and bit 2 XORing the GFN
// and MFN with the last two bytes.
func decodeMemMap(data []byte) ([]uisr.PageExtent, uint64) {
	if len(data) == 0 {
		return nil, 4096
	}
	var extents []uisr.PageExtent
	for b := data[1:]; len(b) >= 8 && len(extents) < 64; b = b[8:] {
		order := b[0]
		if order < 192 {
			order %= 64
		}
		gfn, mfn := uint64(binary.LittleEndian.Uint16(b[1:])), uint64(binary.LittleEndian.Uint16(b[3:]))
		if b[5]&1 == 0 {
			gfn, mfn = gfn<<order, mfn<<order
		}
		if b[5]&2 != 0 {
			gfn |= 1 << 63
		}
		if b[5]&4 != 0 {
			gfn, mfn = gfn^uint64(b[6]), mfn^uint64(b[7])
		}
		extents = append(extents, uisr.PageExtent{GFN: gfn, MFN: mfn, Order: order})
	}
	var pages uint64
	for _, e := range extents {
		pages += e.Pages()
	}
	memBytes := (pages + uint64(data[0])) * 4096
	if memBytes == 0 {
		memBytes = 4096
	}
	return extents, memBytes
}

// encodeMemMap is decodeMemMap's inverse for seeds: extents given as
// (order, gfn, mfn, flags) with gfn and mfn in units of the order's size.
func encodeMemMap(slack byte, extents ...[4]uint16) []byte {
	out := []byte{slack}
	for _, e := range extents {
		out = append(out, byte(e[0]), byte(e[1]), byte(e[1]>>8), byte(e[2]), byte(e[2]>>8), byte(e[3]), 0, 0)
	}
	return out
}

func memMapSeeds() [][]byte {
	return [][]byte{
		encodeMemMap(0, [4]uint16{9, 0, 4}, [4]uint16{9, 1, 2}, [4]uint16{9, 2, 9}, [4]uint16{9, 3, 1}),
		encodeMemMap(0, [4]uint16{9, 2, 4}, [4]uint16{9, 0, 2}, [4]uint16{0, 1024, 7}),
		encodeMemMap(0, [4]uint16{9, 0, 4}, [4]uint16{0, 256, 3, 1}),
		encodeMemMap(0, [4]uint16{9, 1, 512, 1}),
		encodeMemMap(0, [4]uint16{9, 0, 0}, [4]uint16{200, 0, 0}),
		encodeMemMap(3, [4]uint16{0, 5, 5}, [4]uint16{0, 6, 9}),
		encodeMemMap(0, [4]uint16{3, 1, 1, 2}, [4]uint16{3, 0, 0}),
		{},
	}
}

// TestFuzzSeedCorpusMemMap checks FuzzMemMap's seed corpus, and that
// the fingerprint tells each seed's map from every map one field away
// from it: an extent's GFN, MFN or order changed, or an extent dropped.
func TestFuzzSeedCorpusMemMap(t *testing.T) {
	seeds := memMapSeeds()
	fuzzseed.Check(t, "FuzzMemMap", seeds...)
	for i, seed := range seeds {
		extents, _ := decodeMemMap(seed)
		fp := uisr.NewMemMap(extents).Fingerprint()
		for j := range extents {
			for _, bump := range []func(*uisr.PageExtent){
				func(e *uisr.PageExtent) { e.GFN++ },
				func(e *uisr.PageExtent) { e.MFN++ },
				func(e *uisr.PageExtent) { e.Order++ },
			} {
				other := slices.Clone(extents)
				bump(&other[j])
				if uisr.NewMemMap(other).Fingerprint() == fp {
					t.Errorf("seed %d: extent %d changed to %+v keeps the fingerprint", i, j, other[j])
				}
			}
		}
		if n := len(extents); n > 0 && uisr.NewMemMap(extents[:n-1]).Fingerprint() == fp {
			t.Errorf("seed %d: dropping the last extent keeps the fingerprint", i)
		}
	}
}

// FuzzMemMap: a map's summary, built in one pass, must answer every
// check exactly as the consumers' own loops did — Validate and
// hv.NewAddressSpace accept and reject the same maps with the same
// messages, and an accepted space keeps the same map and page count.
func FuzzMemMap(f *testing.F) {
	for _, seed := range memMapSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		extents, memBytes := decodeMemMap(data)
		m := uisr.NewMemMap(extents)
		if m.Len() != len(extents) || len(extents) > 0 && &m.Extents()[0] != &extents[0] {
			t.Fatal("the map does not hold its extents as given")
		}
		st := uisr.SyntheticVM("vm", 1, 1, memBytes, 1)
		st.MemMap = m
		if got, want := errText(st.Validate()), errText(refValidate("vm", memBytes, extents)); got != want {
			t.Fatalf("Validate: %q, reference %q", got, want)
		}
		space, err := hv.NewAddressSpace(nil, m)
		sorted, pages, refErr := refAddressSpace(extents)
		if got, want := errText(err), errText(refErr); got != want {
			t.Fatalf("NewAddressSpace: %q, reference %q", got, want)
		}
		if err != nil {
			return
		}
		kept := space.Extents()
		if !slices.Equal(kept.Extents(), sorted) || space.NumPages() != pages {
			t.Fatalf("space keeps %v (%d pages), reference %v (%d)", kept.Extents(), space.NumPages(), sorted, pages)
		}
		if len(sorted) > 0 && &sorted[0] == &extents[0] && !kept.Same(m) {
			t.Fatal("a sorted map was copied")
		}
	})
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
