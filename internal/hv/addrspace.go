package hv

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// AddressSpace is a guest-physical address space: an ordered set of
// GFN→MFN extents over the machine's physical memory, with optional
// dirty-page logging. Both hypervisor models use it as their mechanical
// memory plumbing while keeping their own NPT *format* (Xen p2m vs KVM
// memslots) as separate metadata.
//
// AddressSpace implements guest.Memory.
type AddressSpace struct {
	mem *hw.PhysMem
	mm  uisr.MemMap // sorted by GFN, non-overlapping

	dirtyLog bool
	dirtyMu  sync.Mutex // guards dirty
	dirty    map[hw.GFN]struct{}
}

// NewAddressSpace builds an address space from a memory map, whose
// extents must be non-overlapping in GFN space and aligned to their
// order. The space keeps m as its map when it is sorted by GFN — an
// adopted map is handed over by reference, not copied — and a map of a
// sorted copy when it is not. The checks are the ones m recorded when it
// was built: none reads an extent here.
func NewAddressSpace(mem *hw.PhysMem, m uisr.MemMap) (*AddressSpace, error) {
	m = m.SortedByGFN()
	switch i, overlap := m.Misfit(); {
	case overlap:
		return nil, fmt.Errorf("hv: extents %d and %d overlap", i-1, i)
	case i >= 0:
		e := m.Extents()[i]
		return nil, fmt.Errorf("hv: extent %d (gfn %d mfn %d order %d) misaligned or of order past 63",
			i, e.GFN, e.MFN, e.Order)
	}
	return &AddressSpace{mem: mem, mm: m}, nil
}

// AllocAddressSpace allocates memBytes of fresh guest memory for vm on
// mem, using 2 MiB pages when huge is set, and returns the resulting
// address space. Guest frames are tagged hw.OwnerGuest.
func AllocAddressSpace(mem *hw.PhysMem, vm int, memBytes uint64, huge bool) (*AddressSpace, error) {
	var m uisr.MemMap
	if huge {
		var buf [64]hw.FrameRange
		runs, err := mem.AllocHuge(int(memBytes/hw.PageSize2M), hw.OwnerGuest, vm, buf[:0])
		if err != nil {
			return nil, fmt.Errorf("hv: guest alloc: %w", err)
		}
		extents := make([]uisr.PageExtent, 0, memBytes/hw.PageSize2M)
		for _, r := range runs {
			for base := r.Start; base < r.End(); base += hw.FramesPer2M {
				gfn := uint64(len(extents)) * hw.FramesPer2M
				extents = append(extents, uisr.PageExtent{GFN: gfn, MFN: uint64(base), Order: 9})
			}
		}
		m = uisr.NewMemMap(extents)
	} else {
		n := memBytes / hw.PageSize4K
		ranges, err := mem.AllocRanges(int(n), hw.OwnerGuest, vm)
		if err != nil {
			return nil, fmt.Errorf("hv: guest alloc: %w", err)
		}
		m = FrameExtents(ranges)
	}
	return NewAddressSpace(mem, m)
}

// FrameExtents maps the frames of ranges, in order, at guest frames 0, 1,
// ... as order-0 extents.
func FrameExtents(ranges []hw.FrameRange) uisr.MemMap {
	extents := make([]uisr.PageExtent, 0, hw.CountFrames(ranges))
	for _, r := range ranges {
		for m := r.Start; m < r.End(); m++ {
			extents = append(extents, uisr.PageExtent{GFN: uint64(len(extents)), MFN: uint64(m), Order: 0})
		}
	}
	return uisr.NewMemMap(extents)
}

// Extents returns the address space's memory map (sorted by GFN).
func (as *AddressSpace) Extents() uisr.MemMap { return as.mm }

// NumPages implements guest.Memory.
func (as *AddressSpace) NumPages() uint64 { return as.mm.Pages() }

// Bytes returns the guest-physical size in bytes.
func (as *AddressSpace) Bytes() uint64 { return as.mm.Pages() * hw.PageSize4K }

// Translate resolves a guest frame number to its machine frame.
func (as *AddressSpace) Translate(gfn hw.GFN) (hw.MFN, error) {
	extents := as.mm.Extents()
	i := sort.Search(len(extents), func(i int) bool {
		e := extents[i]
		return uint64(gfn) < e.GFN+e.Pages()
	})
	if i == len(extents) || uint64(gfn) < extents[i].GFN {
		return 0, fmt.Errorf("hv: gfn %d not mapped", gfn)
	}
	e := extents[i]
	return hw.MFN(e.MFN + (uint64(gfn) - e.GFN)), nil
}

// WritePage implements guest.Memory, recording dirty pages when logging
// is enabled.
func (as *AddressSpace) WritePage(gfn hw.GFN, off int, data []byte) error {
	mfn, err := as.Translate(gfn)
	if err != nil {
		return err
	}
	if err := as.mem.Write(mfn, off, data); err != nil {
		return err
	}
	if as.dirtyLog {
		as.dirtyMu.Lock()
		as.dirty[gfn] = struct{}{}
		as.dirtyMu.Unlock()
	}
	return nil
}

// ReadPage implements guest.Memory.
func (as *AddressSpace) ReadPage(gfn hw.GFN, off int, dst []byte) error {
	mfn, err := as.Translate(gfn)
	if err != nil {
		return err
	}
	return as.mem.ReadInto(mfn, off, dst)
}

// EnableDirtyLog starts dirty-page tracking (all pages considered clean).
func (as *AddressSpace) EnableDirtyLog() {
	as.dirtyMu.Lock()
	defer as.dirtyMu.Unlock()
	as.dirtyLog = true
	as.dirty = make(map[hw.GFN]struct{})
}

// DisableDirtyLog stops tracking.
func (as *AddressSpace) DisableDirtyLog() {
	as.dirtyMu.Lock()
	defer as.dirtyMu.Unlock()
	as.dirtyLog = false
	as.dirty = nil
}

// DirtyLogEnabled reports whether logging is active.
func (as *AddressSpace) DirtyLogEnabled() bool { return as.dirtyLog }

// FetchAndClearDirty returns the sorted set of pages written since the
// last call and resets the log.
func (as *AddressSpace) FetchAndClearDirty() []hw.GFN {
	as.dirtyMu.Lock()
	defer as.dirtyMu.Unlock()
	if !as.dirtyLog {
		return nil
	}
	out := make([]hw.GFN, 0, len(as.dirty))
	for g := range as.dirty {
		out = append(out, g)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	as.dirty = make(map[hw.GFN]struct{})
	return out
}

// ChecksumAll returns a combined checksum over all guest pages that have
// ever been written (untouched pages are zero and excluded by contract:
// two spaces with identical written content match even if their frame
// placement differs).
func (as *AddressSpace) ChecksumAll() (uint64, error) {
	// The combined sum is wrapping uint64 addition keyed by GFN, so the
	// per-extent sums add up independent of frame placement.
	var sum uint64
	for _, e := range as.mm.Extents() {
		s, err := as.mem.ChecksumRange(hw.MFN(e.MFN), e.Pages(), hw.GFN(e.GFN))
		if err != nil {
			return 0, err
		}
		sum += s
	}
	return sum, nil
}

// FrameRanges returns the address space's machine frames as sorted,
// disjoint runs — the shape kexec wants for its preserve set.
func (as *AddressSpace) FrameRanges() []hw.FrameRange {
	ranges := make([]hw.FrameRange, 0, as.mm.Len())
	for _, e := range as.mm.Extents() {
		ranges = append(ranges, hw.FrameRange{Start: hw.MFN(e.MFN), Count: e.Pages()})
	}
	return hw.MergeRanges(ranges)
}

// CopyContentsTo replays every touched page of this space into dst, which
// must have the same guest-physical size. It is the content side of a
// migration stream: after it returns, dst's guest image equals the
// source's.
func (as *AddressSpace) CopyContentsTo(dst *AddressSpace) error {
	if dst.NumPages() != as.NumPages() {
		return fmt.Errorf("hv: copy between spaces of %d and %d pages", as.NumPages(), dst.NumPages())
	}
	for _, e := range as.mm.Extents() {
		err := as.mem.ForEachTouched(hw.MFN(e.MFN), e.Pages(), func(m hw.MFN, off int, data []byte) error {
			return dst.WritePage(hw.GFN(e.GFN+uint64(m)-e.MFN), off, data)
		})
		if err != nil {
			return err
		}
	}
	return nil
}

// Release frees every frame of the address space back to the machine,
// in GFN order, under one lock.
func (as *AddressSpace) Release() error {
	var buf [64]hw.FrameRange
	if err := as.mem.FreeRanges(as.runs(buf[:0])); err != nil {
		return err
	}
	as.mm = uisr.MemMap{}
	return nil
}

// runs appends the space's frames to buf in GFN order, coalesced into
// runs; past buf's capacity, which no huge-page guest's fill, they spill
// to the heap.
func (as *AddressSpace) runs(buf []hw.FrameRange) []hw.FrameRange {
	for _, e := range as.mm.Extents() {
		buf = hw.AppendRange(buf, hw.FrameRange{Start: hw.MFN(e.MFN), Count: e.Pages()})
	}
	return buf
}

// Retag re-tags all frames of the space with the given owner/vm — used
// when a freshly booted hypervisor adopts preserved guest memory. The
// extents go to the machine as coalesced frame runs, under one lock. A
// non-nil tr, kept for restores over this space's map, keeps the runs:
// the map is walked once, not on every adoption.
func (as *AddressSpace) Retag(owner hw.Owner, vm int, tr *Translation) error {
	if tr != nil && tr.Runs != nil {
		return as.mem.SetOwnerRanges(tr.Runs, owner, vm)
	}
	var buf [64]hw.FrameRange
	runs := as.runs(buf[:0])
	if tr != nil {
		tr.Runs = slices.Clone(runs)
	}
	return as.mem.SetOwnerRanges(runs, owner, vm)
}
