// Package hw models the physical machines of the paper's testbed: sparse
// frame-granular physical memory, machine profiles (M1, M2, cluster nodes)
// and the calibrated per-phase cost models that give the simulation its
// virtual-time behaviour.
//
// Physical memory is the ground truth the whole reproduction hangs on:
// guests write real bytes into frames, PRAM metadata is serialized into
// frames, and the kexec micro-reboot wipes every frame that is not
// explicitly preserved. "Guest State survives transplant" is therefore a
// checkable property, not an assumption.
package hw

import (
	"bytes"
	"cmp"
	"fmt"
	"hash/crc64"
	"math/bits"
	"slices"
	"sync"
)

// Page geometry. The simulation uses the x86-64 4 KiB base page and the
// 2 MiB huge page the paper's guests are configured with.
const (
	PageSize4K = 4096
	PageSize2M = 2 << 20
	// FramesPer2M is the number of base frames covered by one huge page.
	FramesPer2M = PageSize2M / PageSize4K
)

// chunkFrames is the frame count of one chunk, the unit PhysMem keeps its
// state in. It is deliberately the 2 MiB huge-page run, so a huge
// allocation is exactly one chunk and the bulk paths (wipe, retag, alloc,
// content sweeps) run at chunk granularity instead of frame granularity.
const chunkFrames = FramesPer2M

// leafChunks is the chunk count of one leaf, the unit PhysMem builds its
// chunk table in: 512 chunks, one GiB of frames. leafWords is the leaf's
// occupancy bitmap in words.
const (
	leafChunks = 512
	leafFrames = leafChunks * chunkFrames
	leafWords  = leafChunks / 64
)

// MFN is a machine frame number: an index into host physical memory in
// units of 4 KiB frames.
type MFN uint64

// GFN is a guest frame number: an index into a guest physical address
// space in units of 4 KiB frames.
type GFN uint64

// Addr returns the byte address of the frame's first byte.
func (m MFN) Addr() uint64 { return uint64(m) * PageSize4K }

// Owner identifies which of the paper's four memory-separation categories
// (Fig. 2) a frame belongs to, so that the transplant engine and kexec can
// reason about what must be translated, preserved, or wiped.
type Owner uint8

const (
	// OwnerFree marks an unallocated frame.
	OwnerFree Owner = iota
	// OwnerGuest is Guest State: guest-managed memory, hypervisor
	// independent, kept in place across InPlaceTP.
	OwnerGuest
	// OwnerVMState is VM_i State: per-VM hypervisor structures (NPT,
	// vCPU contexts) that must be translated through UISR.
	OwnerVMState
	// OwnerVMMgmt is VM Management State: scheduler queues and other
	// structures rebuilt (not translated) after transplant.
	OwnerVMMgmt
	// OwnerHV is HV State: hypervisor-private memory reinitialized by
	// the micro-reboot.
	OwnerHV
	// OwnerPRAM marks frames holding PRAM metadata pages.
	OwnerPRAM
	// OwnerKexecImage marks frames holding the preloaded target
	// hypervisor image.
	OwnerKexecImage

	numOwners
)

var ownerNames = [...]string{"free", "guest", "vmstate", "vmmgmt", "hv", "pram", "kexec-image"}

func (o Owner) String() string {
	if int(o) < len(ownerNames) {
		return ownerNames[o]
	}
	return fmt.Sprintf("owner(%d)", uint8(o))
}

// page is one touched frame's backing store. With page dedup enabled,
// frames whose contents are byte-identical share one page (refs counts
// the sharers); writes unshare copy-on-write, so sharing is invisible to
// readers and checksums.
//
// buf is the frame's written window, bytes [lo, lo+len(buf)): every byte
// outside it is zero, as every byte of an untouched frame is. A first
// write at offset 0 sizes buf to that write rounded up (prefixLen), a
// first write at any other offset to exactly its bytes less their
// trailing zero quanta; a later write outside the window takes the page
// straight to the whole frame, so a page regrows at most once. Readers
// put the zeros back in: ReadInto zero-fills, sums and the dedup key hash
// them (pageSum), dedup compares frames (samePage). ForEachTouched hands
// out the window as it is, with its offset.
type page struct {
	buf []byte
	// sum caches the CRC-64 of the frame while summed is set; a write clears
	// it. It doubles as the content-intern key: an interned page is
	// registered under sum and always has summed set, so it can be
	// deregistered before mutation or on release.
	sum      uint64
	summed   bool
	interned bool
	lo       uint16 // the window's first frame offset; it fits the padding
	refs     int32
}

// hi is the frame offset just past the page's window.
func (p *page) hi() int { return int(p.lo) + len(p.buf) }

// frameTags are the per-frame ownership tags of one mixed chunk, and a
// pageTable the pages of one written chunk; next links a spare one.
type frameTags struct {
	owner [chunkFrames]Owner
	vm    [chunkFrames]int32
	next  *frameTags
}

type pageTable struct {
	slot [chunkFrames]*page
	next *pageTable
}

// chunk is the state of one 2 MiB run of frames. A free machine is all
// zero-value chunks; per-frame state is materialised lazily, per chunk.
type chunk struct {
	// owner and vm are the tag of every frame of the chunk unless it is
	// mixed: a mixed chunk keeps its tags per frame, in tags, and always
	// has an allocated frame (a drained one collapses back).
	owner Owner
	vm    int32
	alloc uint32 // allocated frames
	data  uint32 // touched frames: non-nil pages slots
	// tags, non-nil iff the chunk is mixed, and pages, on the first write
	// into it, come off the PhysMem's spare lists; a drained chunk hands
	// both back, so a host holds the tables it uses at once, not one per
	// chunk its bump cursor ever visited.
	tags  *frameTags
	pages *pageTable
}

// tag returns the (owner, vm) of the chunk's i-th frame. A nil chunk, one
// whose leaf is not built, is free.
func (c *chunk) tag(i uint64) (Owner, int32) {
	switch {
	case c == nil:
		return OwnerFree, 0
	case c.tags != nil:
		return c.tags.owner[i], c.tags.vm[i]
	}
	return c.owner, c.vm
}

// mixed reports whether the chunk keeps its tags per frame.
func (c *chunk) mixed() bool { return c != nil && c.tags != nil }

// leaf is the chunk table of one GiB of frames. occupied has bit i set iff
// chunks[i].alloc > 0, and a leaf is built only when an allocation or claim
// first enters its GiB: a live leaf always has an occupied chunk. When its
// last chunk drains it is all zero again and goes on the PhysMem's spare
// list, linked through next, for the next leaf built.
type leaf struct {
	chunks   [leafChunks]chunk
	occupied [leafWords]uint64
	next     *leaf
}

// chunk returns chunk ci, nil while its leaf is not built. pm.mu held.
func (pm *PhysMem) chunk(ci int) *chunk {
	if l := pm.dir[uint(ci)/leafChunks]; l != nil {
		return &l.chunks[uint(ci)%leafChunks]
	}
	return nil
}

// build returns chunk ci, building its leaf off the spare list first if it
// has none. Only the allocators — AllocRanges, Alloc2M, ClaimRange — build:
// every other mutator acts on allocated frames, whose leaf exists. pm.mu
// held.
func (pm *PhysMem) build(ci int) *chunk {
	l := pm.dir[uint(ci)/leafChunks]
	if l == nil {
		if l = pm.spareLeaves; l == nil {
			l = new(leaf)
		}
		pm.spareLeaves, l.next = l.next, nil
		pm.dir[uint(ci)/leafChunks] = l
	}
	return &l.chunks[uint(ci)%leafChunks]
}

// eachChunk calls fn for every chunk of the built leaves, in order. pm.mu
// held.
func (pm *PhysMem) eachChunk(fn func(ci int, c *chunk)) {
	n := int((pm.totalFrames + chunkFrames - 1) / chunkFrames)
	for li, l := range pm.dir {
		for k := 0; l != nil && k < leafChunks && li*leafChunks+k < n; k++ {
			fn(li*leafChunks+k, &l.chunks[k])
		}
	}
}

// page returns the backing page of the chunk's i-th frame, nil if the
// frame was never written.
func (c *chunk) page(i uint64) *page {
	if c.pages == nil {
		return nil
	}
	return c.pages.slot[i]
}

// explode turns chunk c's summary tag into size per-frame tags, before a
// mutation that leaves it mixed. pm.mu held.
func (pm *PhysMem) explode(c *chunk, size uint64) {
	if c.tags = pm.spareTags; c.tags == nil {
		c.tags = new(frameTags)
	}
	pm.spareTags = c.tags.next
	for i := uint64(0); i < size; i++ {
		c.tags.owner[i], c.tags.vm[i] = c.owner, c.vm
	}
}

// collapseIfFree re-summarizes chunk ci if it drained, clears its occupancy
// bit and pushes its tables (page slots all nil) on the spare lists — and
// its leaf, when that was the leaf's last occupied chunk. pm.mu held.
func (pm *PhysMem) collapseIfFree(ci int) {
	l := pm.dir[uint(ci)/leafChunks]
	c := &l.chunks[uint(ci)%leafChunks]
	if c.alloc != 0 {
		return
	}
	if c.tags != nil {
		c.tags.next, pm.spareTags = pm.spareTags, c.tags
	}
	if c.pages != nil {
		c.pages.next, pm.sparePages = pm.sparePages, c.pages
	}
	*c = chunk{}
	w := &l.occupied[uint(ci)/64%leafWords]
	if *w &^= 1 << (uint(ci) % 64); *w == 0 && l.occupied == [leafWords]uint64{} {
		pm.dir[uint(ci)/leafChunks] = nil
		l.next, pm.spareLeaves = pm.spareLeaves, l
	}
}

// PhysMem is the physical memory of one machine: 2 MiB chunks, held in
// 1 GiB leaves that a directory builds on the first allocation into their
// GiB and recycles when they drain, so a machine pays for the memory it
// holds, not for its size, and a GiB never allocated into reads as free.
// A chunk whose frames all share one (owner, vm) tag — free memory, a
// huge-page guest extent, the bulk of a hypervisor's resident set — is
// just its summary, so the transplant hot paths (micro-reboot wipe,
// address-space retag, huge-page allocation) never visit frames.
// Per-frame tags exist only for chunks that went mixed, and a page table
// only for chunks that were written; untouched frames cost nothing and
// read as zeros; a drained chunk hands both on to the next, and a drained
// leaf itself to the next leaf built. Each leaf's occupancy index, one bit
// per chunk, lets the micro-reboot wipe visit occupied chunks only,
// whatever the machine size.
//
// Concurrency: one mutex guards all bookkeeping, and every method is safe
// to call from the internal/par worker pools under two rules. Ownership
// mutations (alloc, claim, free, retag, wipe) take the lock for the whole
// call and belong in sequential stages, so frame assignment stays
// deterministic. Content access (Write, ReadInto, Checksum and the range
// visitors ForEachTouched and ChecksumRange) takes the lock once per call
// — once per range, not per frame — and copies and hashes page payloads
// outside it, so concurrent calls must target *distinct* frames.
type PhysMem struct {
	mu          sync.Mutex
	totalFrames uint64
	next        MFN // bump cursor for allocation
	allocated   uint64
	byOwner     [numOwners]uint64
	// dir has entry li, chunks [li·leafChunks, (li+1)·leafChunks), nil
	// while the leaf is not built; dirSlots backs it, allocation-free, on
	// every profile's machine (≤ 96 GiB). first is the first leaf built:
	// NewPhysMem seeds the spare list with it.
	dir         []*leaf
	dirSlots    [96 * GiB / (leafFrames * PageSize4K)]*leaf
	first       leaf
	spareLeaves *leaf
	spareTags   *frameTags
	sparePages  *pageTable

	// Content-hash page dedup (opt-in, see SetPageDedup): intern maps a
	// content hash to the pages registered under it; writes that produce
	// a byte-identical page share the existing one copy-on-write.
	dedup     bool
	intern    map[uint64][]*page
	dedupHits uint64
}

// CRCTable is the ECMA CRC-64 table of every checksum in the simulator:
// frame sums here, checkpoint images and transplant-cache blob hashes.
var CRCTable = crc64.MakeTable(crc64.ECMA)

// prefixLen is the buffer length for a frame whose first write is data at
// offset 0: data without its trailing zeros, rounded up to a whole number
// of prefixQuantum bytes.
const prefixQuantum = 512

func prefixLen(data []byte) int {
	for n := (len(data) - 1) / prefixQuantum * prefixQuantum; n >= 0; n -= prefixQuantum {
		if !isZero(data[n:min(n+prefixQuantum, len(data))]) {
			return n + prefixQuantum
		}
	}
	return 0
}

// pageSum is the CRC-64 of p's whole frame, the zeros around its window in.
func pageSum(p *page) uint64 {
	h := crc64.Update(crc64.Checksum(zeroPage[:p.lo], CRCTable), CRCTable, p.buf)
	return crc64.Update(h, CRCTable, zeroPage[:PageSize4K-p.hi()])
}

// samePage reports whether two pages hold the same frame contents.
func samePage(a, b *page) bool { return agrees(a, b) && agrees(b, a) }

// agrees reports whether each byte of a's window is b's frame byte at the
// same offset: zero outside b's window, equal inside it.
func agrees(a, b *page) bool {
	lo := int(a.lo)
	s := min(max(int(b.lo), lo), a.hi())
	e := min(max(b.hi(), s), a.hi())
	return isZero(a.buf[:s-lo]) && isZero(a.buf[e-lo:]) &&
		(s == e || bytes.Equal(a.buf[s-lo:e-lo], b.buf[s-int(b.lo):e-int(b.lo)]))
}

func isZero(b []byte) bool { return bytes.Equal(b, zeroPage[:len(b)]) }

// NewPhysMem creates a physical memory of size bytes (rounded down to a
// whole number of frames). It builds no leaf: its one allocation holds the
// first.
func NewPhysMem(size uint64) *PhysMem {
	n := size / PageSize4K
	pm := &PhysMem{totalFrames: n}
	pm.dir = append(pm.dirSlots[:0], make([]*leaf, (n+leafFrames-1)/leafFrames)...)
	pm.spareLeaves = &pm.first
	return pm
}

// chunkOf returns the chunk index covering frame m.
func chunkOf(m MFN) int { return int(uint64(m) / chunkFrames) }

// chunkSpan returns chunk ci's first frame and frame count (the last
// chunk may be partial).
func (pm *PhysMem) chunkSpan(ci int) (MFN, uint64) {
	base := uint64(ci) * chunkFrames
	return MFN(base), min(chunkFrames, pm.totalFrames-base)
}

// part is the overlap of a frame range with one chunk: frames
// [base+lo, base+hi) of chunk c, chunk ci, which has size frames; c is nil,
// all free, while its leaf is not built.
type part struct {
	ci           int
	c            *chunk
	base         MFN
	size, lo, hi uint64
}

// whole reports whether the part covers its entire chunk.
func (p part) whole() bool { return p.lo == 0 && p.hi == p.size }

// find returns the part's first free frame — or, with free unset, its
// first allocated one — if it has any.
func (p part) find(free bool) (MFN, bool) {
	for i := p.lo; i < p.hi; i++ {
		if o, _ := p.c.tag(i); (o == OwnerFree) == free {
			return p.base + MFN(i), true
		}
		if !p.c.mixed() {
			break // the summary tag covers the whole part
		}
	}
	return 0, false
}

// partAt returns the overlap of frames [f, limit) with the chunk holding
// f; f < limit <= totalFrames.
func (pm *PhysMem) partAt(f, limit uint64) part {
	ci := chunkOf(MFN(f))
	base, size := pm.chunkSpan(ci)
	return part{ci, pm.chunk(ci), base, size, f - uint64(base), min(size, limit-uint64(base))}
}

// TotalFrames returns the machine's frame count.
func (pm *PhysMem) TotalFrames() uint64 { return pm.totalFrames }

// AllocatedFrames returns the number of currently allocated frames.
func (pm *PhysMem) AllocatedFrames() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.allocated
}

// FreeFrames returns the number of unallocated frames.
func (pm *PhysMem) FreeFrames() uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.totalFrames - pm.allocated
}

// take claims frame i of mixed chunk c, chunk ci; the chunk's first
// allocated frame sets its occupancy bit.
func (pm *PhysMem) take(c *chunk, ci int, i uint64, owner Owner, vm int) {
	if c.alloc == 0 {
		pm.occupy(ci)
	}
	c.tags.owner[i], c.tags.vm[i] = owner, int32(vm)
	c.alloc++
	pm.allocated++
	pm.byOwner[owner]++
}

// takeChunk claims every frame of the wholly free chunk ci, building its
// leaf if it has none.
func (pm *PhysMem) takeChunk(ci int, size uint64, owner Owner, vm int) {
	c := pm.build(ci)
	c.owner, c.vm, c.alloc = owner, int32(vm), uint32(size)
	pm.occupy(ci)
	pm.allocated += size
	pm.byOwner[owner] += size
}

// occupy sets chunk ci's occupancy bit (collapseIfFree clears it).
func (pm *PhysMem) occupy(ci int) {
	pm.dir[uint(ci)/leafChunks].occupied[uint(ci)/64%leafWords] |= 1 << (uint(ci) % 64)
}

// nextOccupied returns the first occupied chunk at or after ci, or -1. A
// leaf that is not built is skipped whole.
func (pm *PhysMem) nextOccupied(ci int) int {
	for w, mask := ci/64, ^uint64(0)<<(uint(ci)%64); w < len(pm.dir)*leafWords; w, mask = w+1, ^uint64(0) {
		if l := pm.dir[w/leafWords]; l == nil {
			w |= leafWords - 1
		} else if word := l.occupied[w%leafWords] & mask; word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return -1
}

// nextChunkStart returns the first frame of the chunk after ci, wrapping
// to frame 0 past the end of memory.
func (pm *PhysMem) nextChunkStart(ci int) MFN {
	nb := uint64(ci+1) * chunkFrames
	if nb >= pm.totalFrames {
		return 0
	}
	return MFN(nb)
}

// AllocRanges allocates n frames for the given owner and VM id and
// returns them as coalesced runs in assignment order. Frames are assigned
// from a bump cursor that wraps, which — combined with frames freed and
// reallocated over a machine's lifetime — leaves VM memory scattered
// rather than contiguous, as the paper observes (§4.2.2). Whole free
// chunks at the cursor are claimed in bulk; the assigned frame sequence
// is identical to a frame-by-frame scan.
func (pm *PhysMem) AllocRanges(n int, owner Owner, vm int) ([]FrameRange, error) {
	if owner == OwnerFree {
		return nil, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if free := pm.totalFrames - pm.allocated; uint64(n) > free {
		return nil, fmt.Errorf("hw: out of memory: want %d frames, %d free", n, free)
	}
	var out []FrameRange
	got := uint64(0)
	claim := func(start MFN, count uint64) {
		out = AppendRange(out, FrameRange{Start: start, Count: count})
		got += count
	}
	for got < uint64(n) {
		m := pm.next
		ci := chunkOf(m)
		c := pm.build(ci) // a chunk of an unbuilt leaf is free: m is taken
		base, size := pm.chunkSpan(ci)
		if c.tags == nil {
			if c.owner != OwnerFree {
				// Fully-allocated chunk: the scan would skip every frame.
				pm.next = pm.nextChunkStart(ci)
				continue
			}
			if m == base && uint64(n)-got >= size {
				// Whole free chunk at the cursor: claim it in one step.
				pm.takeChunk(ci, size, owner, vm)
				claim(base, size)
				pm.next = pm.nextChunkStart(ci)
				continue
			}
			pm.explode(c, size)
		}
		if i := uint64(m - base); c.tags.owner[i] == OwnerFree {
			pm.take(c, ci, i, owner, vm)
			claim(m, 1)
		}
		pm.next = m + 1
		if pm.next >= MFN(pm.totalFrames) {
			pm.next = 0
		}
	}
	return out, nil
}

// Alloc2M allocates one 2 MiB-aligned run of 512 contiguous frames,
// returning the first MFN. An aligned run is exactly one chunk, so the
// scan checks chunk summaries instead of individual frames.
func (pm *PhysMem) Alloc2M(owner Owner, vm int) (MFN, error) {
	if owner == OwnerFree {
		return 0, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if FramesPer2M > pm.totalFrames-pm.allocated {
		return 0, fmt.Errorf("hw: out of memory for 2M page")
	}
	start := (pm.next + FramesPer2M - 1) / FramesPer2M * FramesPer2M
	nRuns := pm.totalFrames / FramesPer2M
	for tries := uint64(0); tries < nRuns; tries++ {
		base := (start + MFN(tries*FramesPer2M)) % MFN(nRuns*FramesPer2M)
		// A chunk with any allocated frame — uniform or mixed — is out.
		if ci := chunkOf(base); pm.chunk(ci) == nil || pm.chunk(ci).alloc == 0 {
			pm.takeChunk(ci, FramesPer2M, owner, vm)
			pm.next = (base + FramesPer2M) % MFN(pm.totalFrames)
			return base, nil
		}
	}
	return 0, fmt.Errorf("hw: no aligned 2M run available (fragmentation)")
}

// ClaimRange allocates the exact frames [start, start+count), all of
// which must currently be free — the all-or-nothing complement to the
// cursor-driven AllocRanges, used by snapshot replay to re-materialize a
// structure at the frames a previous build occupied. On failure nothing
// is claimed. The cursor is not moved: a claim at cached frames must not
// perturb where subsequent cursor allocations land.
func (pm *PhysMem) ClaimRange(start MFN, count uint64, owner Owner, vm int) error {
	if owner == OwnerFree {
		return fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	end := uint64(start) + count
	if end > pm.totalFrames {
		return fmt.Errorf("hw: ClaimRange [%#x,+%d) out of bounds", start, count)
	}
	for f := uint64(start); f < end; {
		p := pm.partAt(f, end)
		if m, found := p.find(false); found {
			return fmt.Errorf("hw: ClaimRange frame %#x not free", uint64(m))
		}
		f = uint64(p.base) + p.hi
	}
	for f := uint64(start); f < end; {
		p := pm.partAt(f, end)
		f = uint64(p.base) + p.hi
		if !p.c.mixed() && p.whole() {
			// Whole free chunk: claim it at summary granularity.
			pm.takeChunk(p.ci, p.size, owner, vm)
			continue
		}
		c := pm.build(p.ci)
		if c.tags == nil {
			pm.explode(c, p.size)
		}
		for i := p.lo; i < p.hi; i++ {
			pm.take(c, p.ci, i, owner, vm)
		}
	}
	return nil
}

// ClaimRanges claims every run of rs as ClaimRange does, all or nothing.
func (pm *PhysMem) ClaimRanges(rs []FrameRange, owner Owner, vm int) error {
	for i, r := range rs {
		if err := pm.ClaimRange(r.Start, r.Count, owner, vm); err != nil {
			_ = pm.FreeRanges(rs[:i])
			return err
		}
	}
	return nil
}

// releaseDataAt drops the page contents (and with them the cached
// checksum) of frame i of chunk c; pm.mu held.
func (pm *PhysMem) releaseDataAt(c *chunk, i uint64) {
	p := c.page(i)
	if p == nil {
		return
	}
	c.pages.slot[i] = nil
	c.data--
	pm.unref(p)
}

// unref drops one reference to p, deregistering a shared dedup page from
// the intern table when the last sharer goes. pm.mu held.
func (pm *PhysMem) unref(p *page) {
	p.refs--
	if p.refs <= 0 && p.interned {
		pm.uninternPage(p)
	}
}

// freeFrame releases allocated frame i of mixed chunk c; the caller
// collapses a chunk it drains. pm.mu held.
func (pm *PhysMem) freeFrame(c *chunk, i uint64) {
	pm.byOwner[c.tags.owner[i]]--
	c.tags.owner[i], c.tags.vm[i] = OwnerFree, 0
	c.alloc--
	pm.allocated--
	pm.releaseDataAt(c, i)
}

// wipeChunk frees every allocated frame of chunk ci, drops its contents
// and re-summarizes it as uniformly free. pm.mu held.
func (pm *PhysMem) wipeChunk(ci int, size uint64) int {
	c := pm.chunk(ci)
	wiped := int(c.alloc)
	if c.tags != nil {
		for i := uint64(0); i < size; i++ {
			if o := c.tags.owner[i]; o != OwnerFree {
				pm.byOwner[o]--
			}
		}
	} else {
		pm.byOwner[c.owner] -= uint64(c.alloc)
	}
	pm.allocated -= uint64(c.alloc)
	for i := uint64(0); c.data > 0 && i < size; i++ {
		pm.releaseDataAt(c, i)
	}
	c.alloc = 0
	pm.collapseIfFree(ci)
	return wiped
}

// FreeRange releases the contiguous run [start, start+count) in one
// critical section. Whole uniform chunks are released at summary
// granularity. Frames are freed in order; the first unallocated frame —
// freeing one indicates a double-free bug in a hypervisor model — aborts
// with an error, the frames before it stay freed.
func (pm *PhysMem) FreeRange(start MFN, count uint64) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	end := uint64(start) + count
	limit := min(end, pm.totalFrames)
	for f := uint64(start); f < limit; {
		p := pm.partAt(f, limit)
		c := p.c
		f = uint64(p.base) + p.hi
		if !c.mixed() {
			if o, _ := c.tag(p.lo); o == OwnerFree {
				return fmt.Errorf("hw: double free of frame %#x", uint64(p.base)+p.lo)
			}
			if p.whole() {
				pm.wipeChunk(p.ci, p.size)
				continue
			}
			pm.explode(c, p.size)
		}
		for i := p.lo; i < p.hi; i++ {
			if c.tags.owner[i] == OwnerFree {
				pm.collapseIfFree(p.ci)
				return fmt.Errorf("hw: double free of frame %#x", uint64(p.base)+i)
			}
			pm.freeFrame(c, i)
		}
		pm.collapseIfFree(p.ci)
	}
	if end > pm.totalFrames {
		return fmt.Errorf("hw: double free of frame %#x", max(uint64(start), pm.totalFrames))
	}
	return nil
}

// FreeRanges releases every run of rs, the inverse of AllocRanges,
// stopping at the first error.
func (pm *PhysMem) FreeRanges(rs []FrameRange) error {
	for _, r := range rs {
		if err := pm.FreeRange(r.Start, r.Count); err != nil {
			return err
		}
	}
	return nil
}

// OwnerOf reports a frame's owner tag (OwnerFree if unallocated) and
// owning VM id.
func (pm *PhysMem) OwnerOf(m MFN) (Owner, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if m < MFN(pm.totalFrames) {
		if o, v := pm.chunk(chunkOf(m)).tag(uint64(m) % chunkFrames); o != OwnerFree {
			return o, int(v)
		}
	}
	return OwnerFree, -1
}

// SetOwnerRanges retags the allocated runs rs, in order, in one critical
// section — used when the target hypervisor adopts preserved guest frames
// after a micro-reboot. A run of fully-covered uniform chunks (every
// huge-page extent) retags chunk by chunk within each leaf, O(1) each.
// The first unallocated frame aborts with an error; the frames before it
// stay retagged.
func (pm *PhysMem) SetOwnerRanges(rs []FrameRange, owner Owner, vm int) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, r := range rs {
		end := uint64(r.End())
		limit := min(end, pm.totalFrames)
		for f := uint64(r.Start); f < limit; {
		uniform:
			for f%chunkFrames == 0 && f < limit {
				l := pm.dir[f/leafFrames]
				if l == nil {
					break // a leaf not built is free: the part walk below fails
				}
				for k := f / chunkFrames % leafChunks; k < leafChunks && f < limit; k++ {
					c, size := &l.chunks[k], min(chunkFrames, pm.totalFrames-f)
					if f+size > limit || c.tags != nil || c.owner == OwnerFree {
						break uniform // partly covered, mixed or free: the part walk below
					}
					if c.owner != owner {
						pm.byOwner[c.owner] -= size
						pm.byOwner[owner] += size
					}
					c.owner, c.vm = owner, int32(vm)
					f += size
				}
			}
			if f >= limit {
				break
			}
			p := pm.partAt(f, limit)
			c := p.c
			f = uint64(p.base) + p.hi
			if !c.mixed() {
				o, v := c.tag(p.lo)
				if o == OwnerFree {
					return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(p.base)+p.lo)
				}
				if o == owner && v == int32(vm) {
					continue
				}
				pm.explode(c, p.size)
			}
			for i := p.lo; i < p.hi; i++ {
				if c.tags.owner[i] == OwnerFree {
					return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(p.base)+i)
				}
				pm.byOwner[c.tags.owner[i]]--
				c.tags.owner[i], c.tags.vm[i] = owner, int32(vm)
				pm.byOwner[owner]++
			}
		}
		if end > pm.totalFrames {
			return fmt.Errorf("hw: SetOwner on unallocated frame %#x", max(uint64(r.Start), pm.totalFrames))
		}
	}
	return nil
}

// slot resolves allocated frame m to its chunk and index within it;
// pm.mu held. op names the access for the error ("write to", ...).
func (pm *PhysMem) slot(m MFN, op string) (*chunk, uint64, error) {
	if m < MFN(pm.totalFrames) {
		c, i := pm.chunk(chunkOf(m)), uint64(m)%chunkFrames
		if o, _ := c.tag(i); o != OwnerFree {
			return c, i, nil
		}
	}
	return nil, 0, &accessError{op, m}
}

// accessError is an access to an unallocated frame, or one past the end
// of memory. Its text is formatted only when read: probing a free frame
// costs one small allocation.
type accessError struct {
	op string // "write to", "read from", ...
	m  MFN
}

func (e *accessError) Error() string {
	return fmt.Sprintf("hw: %s unallocated frame %#x", e.op, uint64(e.m))
}

// Write copies data into the frame starting at offset off. It allocates
// backing storage on first touch. Writing past the frame end is an error.
// The payload copy runs outside the lock; concurrent writers must target
// distinct frames. With page dedup enabled, a shared page is unshared
// copy-on-write before mutation and the result is re-interned, so
// sharing never changes what a frame reads back.
func (pm *PhysMem) Write(m MFN, off int, data []byte) error {
	if off < 0 || off+len(data) > PageSize4K {
		return fmt.Errorf("hw: write [%d, %d) outside frame", off, off+len(data))
	}
	pm.mu.Lock()
	c, i, err := pm.slot(m, "write to")
	if err != nil {
		pm.mu.Unlock()
		return err
	}
	pm.pageTable(c)
	p := c.pages.slot[i]
	// [lo, lo+size) is the window the page must hold after this write.
	lo, size := 0, PageSize4K
	switch {
	case p == nil && off == 0:
		size = prefixLen(data)
	case p == nil:
		lo, size = off, min(prefixLen(data), len(data))
	case off >= int(p.lo) && off+len(data) <= p.hi():
		lo, size = int(p.lo), len(p.buf)
	}
	switch {
	case p == nil:
		p = &page{buf: make([]byte, size), lo: uint16(lo), refs: 1}
		c.pages.slot[i] = p
		c.data++
	case p.refs > 1:
		// Copy-on-write unshare: other frames keep the shared original.
		p.refs--
		np := &page{buf: make([]byte, size), lo: uint16(lo), refs: 1}
		copy(np.buf[int(p.lo)-lo:], p.buf)
		c.pages.slot[i] = np
		p = np
	default:
		if p.interned {
			// Sole owner about to mutate: the intern registration is stale.
			pm.uninternPage(p)
		}
		if size > len(p.buf) {
			buf := make([]byte, size)
			copy(buf[p.lo:], p.buf)
			p.buf, p.lo = buf, 0
		}
	}
	p.summed = false
	dedup := pm.dedup
	pm.mu.Unlock()
	copy(p.buf[off-lo:], data) // what a trimmed window leaves out is zeros
	if dedup {
		h := pageSum(p)
		pm.mu.Lock()
		pm.internPage(c, i, p, h)
		pm.mu.Unlock()
	}
	return nil
}

// pageTable gives chunk c a page table, off the spare list, if it has
// none. pm.mu held.
func (pm *PhysMem) pageTable(c *chunk) {
	if c.pages == nil {
		if c.pages = pm.sparePages; c.pages == nil {
			c.pages = new(pageTable)
		}
		pm.sparePages = c.pages.next
	}
}

// FillRanges lays an n-byte image into the frames of rs in order, a page
// per frame from offset 0 — how a blob goes into frames allocated as
// ranges. It allocates the image once and has fill write it, outside the
// lock; each frame's page is then a window of the image, so no byte is
// copied. fill must not keep its argument: the frames own the image. Every
// frame must be allocated and unwritten (claimed or freshly allocated
// frames are) and rs must hold n bytes; otherwise nothing is installed.
// Under page dedup each page is interned as Write interns it, hashed
// under the lock: an image is a few pages.
func (pm *PhysMem) FillRanges(rs []FrameRange, n int, fill func([]byte)) error {
	if frames := CountFrames(rs); n < 0 || uint64(n) > frames*PageSize4K {
		return fmt.Errorf("hw: fill of %d bytes into %d frames", n, frames)
	}
	img := make([]byte, n)
	fill(img)
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if err := pm.unwritten(rs, "fill"); err != nil {
		return err
	}
	off := 0
	for _, r := range rs {
		_ = pm.eachAllocated(r.Start, r.Count, "fill", func(pt part) {
			for i := pt.lo; i < pt.hi && off < n; i++ {
				end := min(off+PageSize4K, n)
				p := &page{buf: img[off:end:end], refs: 1}
				pm.releaseDataAt(pt.c, i) // a frame rs names twice takes its last page
				pm.pageTable(pt.c)
				pt.c.pages.slot[i] = p
				pt.c.data++
				if pm.dedup {
					pm.internPage(pt.c, i, p, pageSum(p))
				}
				off = end
			}
		})
	}
	return nil
}

// unwritten checks that every frame of rs is allocated and was never
// written since it was: what FillRanges and InstallPages install into.
// pm.mu held.
func (pm *PhysMem) unwritten(rs []FrameRange, op string) error {
	written := false
	for _, r := range rs {
		err := pm.eachAllocated(r.Start, r.Count, op, func(pt part) {
			for i := pt.lo; pt.c.data > 0 && i < pt.hi; i++ {
				written = written || pt.c.pages.slot[i] != nil
			}
		})
		if err != nil {
			return err
		}
	}
	if written {
		return fmt.Errorf("hw: %s written frames", op)
	}
	return nil
}

// ReadRanges returns the contents of the frames of rs in order, a page per
// frame, in buf when it holds them — allocating nothing — and in a fresh
// buffer when it is short. Each page's window is copied at its offset and
// the bytes around it cleared, so every byte of the result is written
// once; the copy runs under the lock.
func (pm *PhysMem) ReadRanges(rs []FrameRange, buf []byte) ([]byte, error) {
	n := CountFrames(rs) * PageSize4K
	if uint64(cap(buf)) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	pm.mu.Lock()
	defer pm.mu.Unlock()
	dst := buf
	for _, r := range rs {
		err := pm.eachAllocated(r.Start, r.Count, "read from", func(pt part) {
			for i := pt.lo; i < pt.hi; i, dst = i+1, dst[PageSize4K:] {
				if p := pt.c.page(i); p == nil {
					clear(dst[:PageSize4K])
				} else {
					clear(dst[:p.lo])
					copy(dst[p.lo:], p.buf)
					clear(dst[p.hi():PageSize4K])
				}
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// Pages is a frozen capture of frames' pages, taken by SharePages: it
// holds one reference on each page, so while a captured page is also in
// a frame its refs exceed one and the frame's next write unshares it
// copy-on-write. A captured page's bytes therefore never change, and a
// frame that holds it reads exactly what the captured frame read.
type Pages struct {
	pm    *PhysMem
	slots []*page // in frame order; nil for a frame never written
}

// SharePages captures the pages of the allocated frames rs, in order, by
// reference: no byte is copied. The capture is the frames' contents at
// the call, whatever is written to them afterwards, until Release.
func (pm *PhysMem) SharePages(rs []FrameRange) (Pages, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := Pages{pm: pm, slots: make([]*page, 0, CountFrames(rs))}
	for _, r := range rs {
		err := pm.eachAllocated(r.Start, r.Count, "share", func(p part) {
			for i := p.lo; i < p.hi; i++ {
				out.slots = append(out.slots, p.c.page(i))
			}
		})
		if err != nil {
			return Pages{}, err
		}
	}
	for _, p := range out.slots {
		if p != nil {
			p.refs++
		}
	}
	return out, nil
}

// InstallPages puts the captured pages p into the frames of rs, in order,
// by reference — the inverse of SharePages, with no byte copied. Every
// frame must be allocated and never written since it was (claimed frames
// are), and rs must cover exactly as many frames as p captured, on this
// machine; otherwise nothing is installed.
func (pm *PhysMem) InstallPages(rs []FrameRange, p Pages) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.pm != pm || CountFrames(rs) != uint64(len(p.slots)) {
		return fmt.Errorf("hw: install of a released or foreign capture of %d pages into %d frames",
			len(p.slots), CountFrames(rs))
	}
	if err := pm.unwritten(rs, "install into"); err != nil {
		return err
	}
	k := 0
	for _, r := range rs {
		_ = pm.eachAllocated(r.Start, r.Count, "install into", func(pt part) {
			for i := pt.lo; i < pt.hi; i, k = i+1, k+1 {
				// A frame rs names twice takes its last page, as a write would.
				pm.releaseDataAt(pt.c, i)
				if pg := p.slots[k]; pg != nil {
					pm.pageTable(pt.c)
					pt.c.pages.slot[i] = pg
					pt.c.data++
					pg.refs++
				}
			}
		})
	}
	return nil
}

// Holds reports whether the frames of rs, all allocated, hold exactly the
// captured pages p, in order: page identity, which implies byte identity,
// since a captured page is never written in place.
func (pm *PhysMem) Holds(rs []FrameRange, p Pages) bool {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if p.pm != pm || CountFrames(rs) != uint64(len(p.slots)) {
		return false
	}
	k, held := 0, true
	for _, r := range rs {
		err := pm.eachAllocated(r.Start, r.Count, "hold", func(pt part) {
			for i := pt.lo; held && i < pt.hi; i, k = i+1, k+1 {
				held = pt.c.page(i) == p.slots[k]
			}
		})
		if err != nil || !held {
			return false
		}
	}
	return true
}

// Release drops the capture's references; the frames that hold its pages
// keep them. A released capture installs nowhere and is held by no frame.
func (p *Pages) Release() {
	pm := p.pm
	if pm == nil {
		return
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, pg := range p.slots {
		if pg != nil {
			pm.unref(pg)
		}
	}
	p.pm, p.slots = nil, nil
}

// internPage registers the freshly-written page p of chunk c's frame i
// under its content hash h — which is also its checksum, cached from here
// on — or, when a byte-identical page is registered, shares that one
// instead. pm.mu held.
func (pm *PhysMem) internPage(c *chunk, i uint64, p *page, h uint64) {
	if pm.intern == nil {
		pm.intern = make(map[uint64][]*page)
	}
	for _, q := range pm.intern[h] {
		if q != p && samePage(q, p) {
			q.refs++
			c.pages.slot[i] = q
			pm.dedupHits++
			return
		}
	}
	p.sum, p.summed, p.interned = h, true, true
	pm.intern[h] = append(pm.intern[h], p)
}

// uninternPage removes p from the content-intern table. pm.mu held.
func (pm *PhysMem) uninternPage(p *page) {
	bucket := pm.intern[p.sum]
	for i, q := range bucket {
		if q == p {
			bucket[i] = bucket[len(bucket)-1]
			bucket = bucket[:len(bucket)-1]
			break
		}
	}
	if len(bucket) == 0 {
		delete(pm.intern, p.sum)
	} else {
		pm.intern[p.sum] = bucket
	}
	p.interned = false
}

// SetPageDedup enables or disables content-hash page dedup. Enabling
// starts interning pages written from now on; disabling stops interning
// but existing shared pages stay safely copy-on-write.
func (pm *PhysMem) SetPageDedup(on bool) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	pm.dedup = on
}

// PageDedupHits reports how many writes produced a page byte-identical
// to one already resident, and the number of distinct shared pages
// currently interned.
func (pm *PhysMem) PageDedupHits() (hits uint64, interned int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.dedupHits, len(pm.intern)
}

// ReadInto copies len(dst) bytes from the frame starting at offset off
// into dst, without allocating. Untouched frames read as zeros, matching
// real RAM handed out by a hypervisor.
func (pm *PhysMem) ReadInto(m MFN, off int, dst []byte) error {
	if off < 0 || off+len(dst) > PageSize4K {
		return fmt.Errorf("hw: read [%d, %d) outside frame", off, off+len(dst))
	}
	pm.mu.Lock()
	c, i, err := pm.slot(m, "read from")
	if err != nil {
		pm.mu.Unlock()
		return err
	}
	p := c.page(i)
	pm.mu.Unlock()
	clear(dst)
	if p == nil {
		return nil
	}
	if s, e := max(int(p.lo), off), min(p.hi(), off+len(dst)); s < e {
		copy(dst[s-off:], p.buf[s-int(p.lo):e-int(p.lo)]) // the window's overlap
	}
	return nil
}

// Checksum returns a CRC-64 of the frame's contents. Untouched frames
// checksum as all-zero pages. Results are cached per page until the next
// write, so repeated full-memory sweeps only pay for dirty frames.
func (pm *PhysMem) Checksum(m MFN) (uint64, error) {
	pm.mu.Lock()
	c, i, err := pm.slot(m, "checksum of")
	if err != nil {
		pm.mu.Unlock()
		return 0, err
	}
	p := c.page(i)
	if p == nil || p.summed {
		sum := zeroPageSum
		if p != nil {
			sum = p.sum
		}
		pm.mu.Unlock()
		return sum, nil
	}
	pm.mu.Unlock()
	// The hash runs outside the lock; the same distinct-frames contract
	// that makes the payload copy in Write safe applies here.
	sum := pageSum(p)
	pm.mu.Lock()
	p.sum, p.summed = sum, true
	pm.mu.Unlock()
	return sum, nil
}

var (
	zeroPage    [PageSize4K]byte
	zeroPageSum = crc64.Checksum(zeroPage[:], CRCTable)
)

// eachAllocated calls fn for every chunk part of [start, start+count),
// in order, after checking that the part's frames are all allocated; the
// first that is not fails the walk with an access error naming op.
// pm.mu held.
func (pm *PhysMem) eachAllocated(start MFN, count uint64, op string, fn func(part)) error {
	end := uint64(start) + count
	limit := min(end, pm.totalFrames)
	for f := uint64(start); f < limit; {
		p := pm.partAt(f, limit)
		if m, found := p.find(true); found {
			return &accessError{op, m}
		}
		fn(p)
		f = uint64(p.base) + p.hi
	}
	if end > pm.totalFrames {
		return &accessError{op, MFN(max(uint64(start), pm.totalFrames))}
	}
	return nil
}

// ForEachTouched calls fn, in frame order, for every frame of the
// allocated run [start, start+count) that has ever been written
// (untouched frames are logically zero and need no migration traffic).
// The lock is taken once for the whole run and chunks that were never
// written are skipped in O(1); fn runs outside it. data is the frame's
// live backing store: fn must not modify it or keep it past the call. It
// is the frame's written window, bytes [off, off+len(data)): the bytes
// around it are zero, and a consumer that wants the whole frame adds them.
func (pm *PhysMem) ForEachTouched(start MFN, count uint64, fn func(m MFN, off int, data []byte) error) error {
	type touched struct {
		m MFN
		p *page
	}
	var hits []touched
	pm.mu.Lock()
	err := pm.eachAllocated(start, count, "read from", func(p part) {
		hits = slices.Grow(hits, int(min(uint64(p.c.data), p.hi-p.lo)))
		for i := p.lo; p.c.data > 0 && i < p.hi; i++ {
			if pg := p.c.pages.slot[i]; pg != nil {
				hits = append(hits, touched{p.base + MFN(i), pg})
			}
		}
	})
	pm.mu.Unlock()
	if err != nil {
		return err
	}
	for _, h := range hits {
		if err := fn(h.m, int(h.p.lo), h.p.buf); err != nil {
			return err
		}
	}
	return nil
}

// checksumKey is the weight of guest frame g's page checksum in a
// combined checksum. The combination is a wrapping sum, so it does not
// depend on the order the pages are visited in or the frames behind them.
func checksumKey(g uint64) uint64 { return g*2654435761 + 97 }

// checksumKeys returns the wrapping sum of checksumKey(g+k) for k in
// [0, n) in closed form, 2654435761·(n·g + n(n-1)/2) + 97·n. Halving the
// even factor of n(n-1) first keeps it exact modulo 2^64.
func checksumKeys(g, n uint64) uint64 {
	tri := n / 2 * (n - 1)
	if n%2 == 1 {
		tri = n * ((n - 1) / 2)
	}
	return 2654435761*(n*g+tri) + 97*n
}

// ChecksumRange returns the combined checksum of the allocated run
// [start, start+count) mapped at guest frames gfn, gfn+1, ...: the
// wrapping sum of Checksum(start+k)·checksumKey(gfn+k). It crosses the
// lock once for the whole run (twice when pages need hashing; the CRCs
// run outside it, under the distinct-frames rule), and a run of frames in
// chunks that were never written contributes in closed form, so an
// untouched guest extent costs O(1).
func (pm *PhysMem) ChecksumRange(start MFN, count uint64, gfn GFN) (uint64, error) {
	type unsummed struct {
		p        *page
		key, sum uint64
	}
	var total uint64
	var todo []unsummed
	pm.mu.Lock()
	err := pm.eachAllocated(start, count, "checksum of", func(p part) {
		g := uint64(gfn) + uint64(p.base) + p.lo - uint64(start)
		if p.c.data == 0 {
			total += zeroPageSum * checksumKeys(g, p.hi-p.lo)
			return
		}
		for i := p.lo; i < p.hi; i, g = i+1, g+1 {
			switch pg := p.c.pages.slot[i]; {
			case pg == nil:
				total += zeroPageSum * checksumKey(g)
			case pg.summed:
				total += pg.sum * checksumKey(g)
			default:
				todo = append(todo, unsummed{p: pg, key: checksumKey(g)})
			}
		}
	})
	pm.mu.Unlock()
	if err != nil {
		return 0, err
	}
	if len(todo) == 0 {
		return total, nil
	}
	for k := range todo {
		todo[k].sum = pageSum(todo[k].p)
		total += todo[k].sum * todo[k].key
	}
	pm.mu.Lock()
	for _, u := range todo {
		u.p.sum, u.p.summed = u.sum, true
	}
	pm.mu.Unlock()
	return total, nil
}

// WipeRanges zeroes and frees every allocated frame outside the keep set
// (sorted, disjoint runs) and returns the number of frames wiped. This is
// the destructive half of the kexec micro-reboot: only explicitly
// preserved memory survives. It visits occupied chunks only: those wholly
// outside the keep set are wiped at summary granularity, and chunks a keep
// run covers whole are stepped over in one move, so a micro-reboot costs
// O(occupied chunks not kept + keep runs), not O(frames) or O(machine).
func (pm *PhysMem) WipeRanges(keep []FrameRange) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	wiped := 0
	ki := 0
	for ci := pm.nextOccupied(0); ci >= 0; ci = pm.nextOccupied(ci + 1) {
		c := pm.chunk(ci)
		base, size := pm.chunkSpan(ci)
		end := uint64(base) + size
		for ki < len(keep) && keep[ki].End() <= base {
			ki++
		}
		if ki >= len(keep) || uint64(keep[ki].Start) >= end {
			// No keep range touches this chunk.
			wiped += pm.wipeChunk(ci, size)
			continue
		}
		// Fully covered by keep ranges? Walk the ranges across the chunk.
		covered := true
		pos := uint64(base)
		for j := ki; pos < end; j++ {
			if j >= len(keep) || uint64(keep[j].Start) > pos {
				covered = false
				break
			}
			pos = uint64(keep[j].End())
		}
		if covered {
			// The last run covers every chunk up to the one holding pos.
			ci = max(ci, chunkOf(MFN(pos))-1)
			continue
		}
		// Partial overlap: per-frame, with a chunk-local range index.
		if c.tags == nil {
			pm.explode(c, size)
		}
		j := ki
		for i := uint64(0); i < size; i++ {
			m := base + MFN(i)
			for j < len(keep) && m >= keep[j].End() {
				j++
			}
			if (j < len(keep) && m >= keep[j].Start) || c.tags.owner[i] == OwnerFree {
				continue
			}
			pm.freeFrame(c, i)
			wiped++
		}
		pm.collapseIfFree(ci)
	}
	return wiped
}

// FrameRange is a contiguous run of machine frames.
type FrameRange struct {
	Start MFN
	Count uint64
}

// End returns the frame after the run's last.
func (r FrameRange) End() MFN { return r.Start + MFN(r.Count) }

// AppendRange appends r to the runs rs, extending the last run when r
// directly follows it.
func AppendRange(rs []FrameRange, r FrameRange) []FrameRange {
	if n := len(rs); n > 0 && rs[n-1].End() == r.Start {
		rs[n-1].Count += r.Count
		return rs
	}
	return append(rs, r)
}

// MergeRanges sorts rs by start frame and merges runs that touch or
// overlap, in place: the sorted, disjoint form WipeRanges takes. Ranges
// derived from cursor allocations usually arrive ascending already, which
// costs one pass instead of a sort.
func MergeRanges(rs []FrameRange) []FrameRange {
	if len(rs) == 0 {
		return rs
	}
	if !slices.IsSortedFunc(rs, byStart) {
		slices.SortFunc(rs, byStart)
	}
	out := rs[:1]
	for _, r := range rs[1:] {
		last := &out[len(out)-1]
		if last.End() < r.Start {
			out = append(out, r)
		} else if r.End() > last.End() {
			last.Count = uint64(r.End() - last.Start)
		}
	}
	return out
}

func byStart(a, b FrameRange) int { return cmp.Compare(a.Start, b.Start) }

// SameFrames reports whether a and b cover the same set of frames, in
// whatever order, split or repeated: whether their merged runs are equal.
// Neither slice is modified; each is merged in a copy, on the stack up
// to 64 runs.
func SameFrames(a, b []FrameRange) bool {
	var bufA, bufB [64]FrameRange
	merged := func(rs, buf []FrameRange) []FrameRange {
		empty := func(r FrameRange) bool { return r.Count == 0 }
		return MergeRanges(slices.DeleteFunc(append(buf[:0], rs...), empty))
	}
	return slices.Equal(merged(a, bufA[:]), merged(b, bufB[:]))
}

// CountFrames returns the number of frames in rs.
func CountFrames(rs []FrameRange) uint64 {
	var n uint64
	for _, r := range rs {
		n += r.Count
	}
	return n
}

// CountByOwner returns the number of frames per owner category — the
// memory-separation census of Fig. 2.
func (pm *PhysMem) CountByOwner() map[Owner]uint64 {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	out := make(map[Owner]uint64)
	for o := Owner(1); o < numOwners; o++ {
		if pm.byOwner[o] > 0 {
			out[o] = pm.byOwner[o]
		}
	}
	return out
}
