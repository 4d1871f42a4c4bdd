package uisr

import (
	"cmp"
	"slices"
)

// MemMap is a guest memory map, immutable once built: its extents and a
// summary NewMemMap computes in one pass — the page count (wrapping), a
// fingerprint over every (GFN, MFN, order), and where the map first fails
// each check its consumers make (Validate's order check,
// hv.NewAddressSpace's sort, alignment and overlap checks), which each
// reports in its own words. Passing a map passes its extents by
// reference. The zero MemMap is the empty map.
type MemMap struct {
	extents   []PageExtent
	pages, fp uint64
	// 1 + the index of the first extent failing the WideOrder and the
	// Misfit check (overlap says which way); 0: none.
	wideOrder, misfit int
	overlap, unsorted bool
}

// NewMemMap builds the map of extents, which the caller must not modify
// afterwards.
func NewMemMap(extents []PageExtent) MemMap {
	if len(extents) == 0 {
		return MemMap{}
	}
	const seed = 0x9e3779b97f4a7c15
	m := MemMap{extents: extents}
	// One multiply-xor chain per word keeps the loop at the cost of its
	// multiplies; the checks branch out only at an extent one may fail.
	g, f, pages := uint64(seed), uint64(seed), uint64(0)
	var prevGFN, prevEnd uint64
	for i, e := range extents {
		g = (g ^ e.GFN) * 0xff51afd7ed558ccd
		f = (f ^ e.MFN ^ uint64(e.Order)<<56) * 0xc4ceb9fe1a85ec53
		n := e.Pages()
		pages += n
		if e.Order >= 64 || (e.GFN|e.MFN)&(n-1) != 0 || e.GFN < prevEnd || e.GFN < prevGFN {
			m.flag(i, prevGFN, prevEnd)
		}
		prevGFN, prevEnd = e.GFN, e.GFN+n
	}
	m.pages, m.fp = pages, Mix(Mix(Mix(seed, uint64(len(extents))), g), f)
	return m
}

// flag records the checks extent i fails, given the GFN and end of the
// extent before it (0, 0 for the first).
func (m *MemMap) flag(i int, prevGFN, prevEnd uint64) {
	e := m.extents[i]
	if e.Order >= 64 && m.wideOrder == 0 {
		m.wideOrder = i + 1
	}
	m.unsorted = m.unsorted || e.GFN < prevGFN
	switch {
	case m.misfit != 0:
	case e.Order >= 64 || (e.GFN|e.MFN)&(e.Pages()-1) != 0:
		m.misfit = i + 1
	case prevEnd > e.GFN:
		m.misfit, m.overlap = i+1, true
	}
}

// Mix folds v into the 64-bit hash h.
func Mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 12) + (h >> 4)
	return h * 0xff51afd7ed558ccd
}

// Extents returns the extents, which must not be modified.
func (m MemMap) Extents() []PageExtent { return m.extents }
func (m MemMap) Len() int              { return len(m.extents) }
func (m MemMap) Pages() uint64         { return m.pages }
func (m MemMap) Fingerprint() uint64   { return m.fp }

// WideOrder returns the index of the first extent of order 64 or more, or -1.
func (m MemMap) WideOrder() int { return m.wideOrder - 1 }

// Misfit returns the index of the first extent misaligned or of order 64+,
// or overlapping the one before it (overlap), or -1: a sorted map's check.
func (m MemMap) Misfit() (i int, overlap bool) { return m.misfit - 1, m.overlap }

// SortedByGFN returns m if its extents are in GFN order, else the map of
// a sorted copy.
func (m MemMap) SortedByGFN() MemMap {
	if !m.unsorted {
		return m
	}
	sorted := slices.Clone(m.extents)
	slices.SortFunc(sorted, func(a, b PageExtent) int { return cmp.Compare(a.GFN, b.GFN) })
	return NewMemMap(sorted)
}

// Same reports whether m and o are one map (one backing array and
// length), hence equal without a read.
func (m MemMap) Same(o MemMap) bool {
	return len(m.extents) == len(o.extents) && (len(m.extents) == 0 || &m.extents[0] == &o.extents[0])
}
