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
// placement differs). It sums one ChecksumRange per run.
func (as *AddressSpace) ChecksumAll() (uint64, error) {
	// The combined sum is wrapping uint64 addition keyed by GFN, so the
	// per-run sums add up independent of frame placement.
	var sum, rank uint64
	var buf [64]hw.FrameRange
	c := ranks{ext: as.mm.Extents()}
	for _, r := range as.runs(buf[:0], as.NumPages()) {
		s, err := as.mem.ChecksumRange(r.Start, r.Count, c.gfn(rank))
		if err != nil {
			return 0, err
		}
		sum += s
		rank += r.Count
	}
	return sum, nil
}

// FrameRanges returns the address space's machine frames as sorted,
// disjoint runs — the shape kexec wants for its preserve set.
func (as *AddressSpace) FrameRanges() []hw.FrameRange {
	return hw.MergeRanges(as.runs(nil, as.NumPages()))
}

// runs appends the space's first frames by rank (see ranks), at least
// frames of them, to buf as runs contiguous in both GFN and MFN, in GFN
// order; past buf's capacity, which no huge-page guest's fill, they spill
// to the heap. A huge-page guest from one AllocHuge call is a run or a
// few, whatever its size, but each extent is read: a bulk write into a
// guest's first pages reads only the extents that map them.
func (as *AddressSpace) runs(buf []hw.FrameRange, frames uint64) []hw.FrameRange {
	var next, covered uint64 // the GFN after the last run's; its rank
	for _, e := range as.mm.Extents() {
		if covered >= frames {
			break
		}
		pages := e.Pages()
		if n := len(buf); n > 0 && e.GFN == next && uint64(buf[n-1].End()) == e.MFN {
			buf[n-1].Count += pages
		} else {
			buf = append(buf, hw.FrameRange{Start: hw.MFN(e.MFN), Count: pages})
		}
		next, covered = e.GFN+pages, covered+pages
	}
	return buf
}

// ranks maps a mapped guest frame to its rank — its index among the
// space's guest frames in GFN order, which is its index within the runs —
// and back, stepping through the extents from the one it last stopped
// at: frames in order cost O(extents + frames) in all.
type ranks struct {
	ext  []uisr.PageExtent
	k    int    // the extent last stopped at
	base uint64 // the rank of extent k's first frame
}

// gfn returns the guest frame of rank r, which must be below the space's
// page count.
func (c *ranks) gfn(r uint64) hw.GFN {
	if r < c.base {
		c.k, c.base = 0, 0
	}
	for r-c.base >= c.ext[c.k].Pages() {
		c.base += c.ext[c.k].Pages()
		c.k++
	}
	return hw.GFN(c.ext[c.k].GFN + r - c.base)
}

// rank returns guest frame g's rank, or false when g is not mapped.
func (c *ranks) rank(g hw.GFN) (uint64, bool) {
	if c.k == len(c.ext) || uint64(g) < c.ext[c.k].GFN {
		c.k, c.base = 0, 0
	}
	for ; c.k < len(c.ext); c.k++ {
		switch e := c.ext[c.k]; {
		case uint64(g) < e.GFN:
			return 0, false
		case uint64(g)-e.GFN < e.Pages():
			return c.base + uint64(g) - e.GFN, true
		}
		c.base += c.ext[c.k].Pages()
	}
	return 0, false
}

// ForEachTouched calls fn, in GFN order, for every page of the space
// that has ever been written, with its written window (see
// hw.PhysMem.ForEachTouched): one walk over the space's runs, under one
// lock.
func (as *AddressSpace) ForEachTouched(fn func(gfn hw.GFN, off int, data []byte) error) error {
	var buf [64]hw.FrameRange
	c := ranks{ext: as.mm.Extents()}
	return as.mem.ForEachTouched(as.runs(buf[:0], as.NumPages()), func(r uint64, off int, data []byte) error {
		return fn(c.gfn(r), off, data)
	})
}

// WritePages applies ws, each Index a guest frame number, in order, as
// one bulk write over the space's runs that hold them
// (hw.PhysMem.WriteFrames), and
// logs the pages written dirty when logging is on. It rewrites each Index
// to the page's rank. It returns how many writes it applied: all of them,
// or those before the first that fails — a page not mapped included, with
// Translate's error — whose error it returns.
func (as *AddressSpace) WritePages(ws []hw.FrameWrite) (int, error) {
	c := ranks{ext: as.mm.Extents()}
	n, frames := len(ws), uint64(0)
	var err error
	for k := range ws {
		r, ok := c.rank(hw.GFN(ws[k].Index))
		if !ok {
			n, err = k, fmt.Errorf("hv: gfn %d not mapped", ws[k].Index)
			break
		}
		ws[k].Index, frames = r, max(frames, r+1)
	}
	var buf [64]hw.FrameRange
	written, werr := as.mem.WriteFrames(as.runs(buf[:0], frames), ws[:n])
	if werr != nil {
		err = werr
	}
	if as.dirtyLog {
		as.dirtyMu.Lock()
		for _, w := range ws[:written] {
			as.dirty[c.gfn(w.Index)] = struct{}{}
		}
		as.dirtyMu.Unlock()
	}
	return written, err
}

// WriteRecords implements guest.Memory: it writes a size-byte record into
// each page of [lo, hi), which fill lays out whole in rec and places at
// the offset it returns, as one WritePages. It returns how many pages it
// wrote: all of them, or those before the first that fails, whose error
// it returns.
func (as *AddressSpace) WriteRecords(lo, hi hw.GFN, size int, fill func(gfn hw.GFN, rec []byte) int) (int, error) {
	if hi <= lo {
		return 0, nil
	}
	n := int(hi - lo)
	s := takeScratch()
	defer s.release()
	if cap(s.recs) < n*size {
		s.recs = make([]byte, n*size)
	}
	for k := range n {
		rec := s.recs[k*size : (k+1)*size : (k+1)*size]
		gfn := lo + hw.GFN(k)
		s.ws = append(s.ws, hw.FrameWrite{Index: uint64(gfn), Off: fill(gfn, rec), Data: rec})
	}
	return as.WritePages(s.ws)
}

// scratch is the request list of one bulk write and the record bytes its
// writes point into. WriteFrames copies what it is handed, so once it
// returns the scratch is spared for the next bulk write: a working set or
// a copy allocates only the pages it creates. The spares are a channel,
// not a sync.Pool, whose per-P caches miss at random when a goroutine
// changes P and so would make the exact allocation budgets flaky; one
// spare per concurrent bulk write is enough, and par runs at most
// GOMAXPROCS, so 8 bounds what idle spares hold.
type scratch struct {
	ws   []hw.FrameWrite
	recs []byte
}

var spareScratch = make(chan *scratch, 8)

func takeScratch() *scratch {
	select {
	case s := <-spareScratch:
		return s
	default:
		return new(scratch)
	}
}

// release clears the scratch's writes, so it keeps no page alive, and
// spares it unless it outgrew a few thousand writes.
func (s *scratch) release() {
	clear(s.ws)
	s.ws = s.ws[:0]
	if cap(s.ws) > 4096 || cap(s.recs) > 256<<10 {
		return
	}
	select {
	case spareScratch <- s:
	default:
	}
}

// CopyContentsTo replays every touched page of this space into dst, which
// must have the same guest-physical size, pairing the pages by GFN: one
// ForEachTouched over the source's runs, then one WritePages into dst.
// It is the content side of a migration stream: after it returns, dst's
// guest image equals the source's. A page dst does not map fails the
// copy there, the pages before it copied.
func (as *AddressSpace) CopyContentsTo(dst *AddressSpace) error {
	if dst.NumPages() != as.NumPages() {
		return fmt.Errorf("hv: copy between spaces of %d and %d pages", as.NumPages(), dst.NumPages())
	}
	s := takeScratch()
	defer s.release()
	err := as.ForEachTouched(func(gfn hw.GFN, off int, data []byte) error {
		s.ws = append(s.ws, hw.FrameWrite{Index: uint64(gfn), Off: off, Data: data})
		return nil
	})
	if err == nil {
		_, err = dst.WritePages(s.ws)
	}
	return err
}

// Release frees every frame of the address space back to the machine,
// in GFN order, under one lock.
func (as *AddressSpace) Release() error {
	var buf [64]hw.FrameRange
	if err := as.mem.FreeRanges(as.runs(buf[:0], as.NumPages())); err != nil {
		return err
	}
	as.mm = uisr.MemMap{}
	return nil
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
	runs := as.runs(buf[:0], as.NumPages())
	if tr != nil {
		tr.Runs = slices.Clone(runs)
	}
	return as.mem.SetOwnerRanges(runs, owner, vm)
}
