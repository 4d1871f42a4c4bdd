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

// chunkFrames is the frame count of one chunk, the unit PhysMem keeps page
// contents in: a page table per chunk written into. It is the 2 MiB
// huge-page run, so a huge page's contents are one chunk's.
const chunkFrames = FramesPer2M

// leafChunks is the chunk count of one leaf, the unit PhysMem builds its
// state in: 512 chunks, one GiB of frames. leafWords is the leaf's
// written-chunk bitmap in words.
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

// pageTable holds the pages of one written chunk, n of them non-nil; next
// links a spare one.
type pageTable struct {
	slot [chunkFrames]*page
	n    uint32
	next *pageTable
}

// page returns the page of the table's i-th frame, nil if it has none or
// there is no table.
func (t *pageTable) page(i uint64) *page {
	if t == nil {
		return nil
	}
	return t.slot[i]
}

// run is a stretch of allocated frames of one leaf that share one tag:
// frames [start, start+count) counted from the leaf's first.
type run struct {
	start, count uint32
	vm           int32
	owner        Owner
}

func (r run) end() uint32 { return r.start + r.count }

// appendRun appends r to rs, extending the last run when r directly
// follows it under the same tag.
func appendRun(rs []run, r run) []run {
	if n := len(rs); n > 0 && rs[n-1].end() == r.start && rs[n-1].owner == r.owner && rs[n-1].vm == r.vm {
		rs[n-1].count += r.count
		return rs
	}
	return append(rs, r)
}

// leaf is the state of one GiB of frames. runs is its ownership: the
// allocated frames as ordered, disjoint runs, merged wherever two that
// touch share a tag; a frame in no run is free. pages has the page table
// of each chunk written into, and written a bit per chunk that has one. A
// leaf is built only when an allocation or claim first enters its GiB, so
// a built leaf always has a run: when its last run goes it has no page
// table either, and it goes on the PhysMem's spare list, linked through
// next, its run slice kept for the next leaf built. The runs live in
// inline until they outgrow it, so most leaves allocate nothing for them.
type leaf struct {
	runs    []run
	hint    int // where the last find ended
	inline  [16]run
	pages   [leafChunks]*pageTable
	written [leafWords]uint64
	next    *leaf
}

// find returns the index of the leaf's first run ending after frame off.
// It gallops forward from where the last find ended before it bisects, so
// a walk up a leaf — a retag or free of many small ranges in frame order —
// finds each next run in O(1), not O(log runs). pm.mu held.
func (l *leaf) find(off uint32) int {
	lo, hi := 0, len(l.runs)
	if h := l.hint; h < hi && (h == 0 || l.runs[h-1].end() <= off) {
		lo = h
		for step := 1; h < hi; h, step = h+step, step*2 {
			if l.runs[h].end() > off {
				hi = h
				break
			}
			lo = h + 1
		}
	}
	l.hint = lo + search(l.runs[lo:hi], off)
	return l.hint
}

// search returns the index of the first run of rs ending after frame off,
// by bisection.
func search(rs []run, off uint32) int {
	lo, hi := 0, len(rs)
	for lo < hi {
		if h := int(uint(lo+hi) >> 1); rs[h].end() > off {
			hi = h
		} else {
			lo = h + 1
		}
	}
	return lo
}

// nextWritten returns the first written chunk at or after k, or
// leafChunks.
func (l *leaf) nextWritten(k int) int {
	for w, mask := k/64, ^uint64(0)<<(uint(k)%64); w < leafWords; w, mask = w+1, ^uint64(0) {
		if word := l.written[w] & mask; word != 0 {
			return w*64 + bits.TrailingZeros64(word)
		}
	}
	return leafChunks
}

// leafSpan returns the overlap of frames [f, limit) with the leaf holding
// f: frames [lo, hi) of leaf li.
func leafSpan(f, limit uint64) (li int, lo, hi uint32) {
	lo = uint32(f % leafFrames)
	return int(f / leafFrames), lo, uint32(min(uint64(lo)+limit-f, leafFrames))
}

// build returns leaf li, building it off the spare list first if it is not
// built. Only the allocators — AllocRanges, AllocHuge, ClaimRange — build:
// every other mutator acts on allocated frames, whose leaf exists. pm.mu
// held.
func (pm *PhysMem) build(li int) *leaf {
	l := pm.dir[li]
	if l == nil {
		if l = pm.spareLeaves; l == nil {
			l = new(leaf)
		}
		pm.spareLeaves, l.next = l.next, nil
		pm.dir[li] = l
		if l.runs == nil {
			l.runs = l.inline[:0]
		}
	}
	return l
}

// releaseIfDrained puts leaf li on the spare list if it has no run left.
// pm.mu held.
func (pm *PhysMem) releaseIfDrained(li int) {
	if l := pm.dir[li]; len(l.runs) == 0 {
		pm.dir[li] = nil
		l.next, pm.spareLeaves = pm.spareLeaves, l
	}
}

// PhysMem is the physical memory of one machine, held in 1 GiB leaves that
// a directory builds on the first allocation into their GiB and recycles
// when they drain, so a machine pays for the memory it holds, not for its
// size, and a GiB never allocated into reads as free. A leaf holds its
// ownership as runs of frames that share an (owner, vm) tag, so the
// transplant's ownership walks — allocation, claim, free, the
// address-space retag and the micro-reboot wipe — cost O(log runs + runs
// touched) per leaf a range crosses, whatever its frame count: a huge-page
// guest extent, a hypervisor resident set, PRAM are each a run or a few.
// Contents are kept per 2 MiB chunk: a page table for each chunk written
// into, on its first write, and untouched frames cost nothing and read as
// zeros. A chunk's last page freed hands its table to the next, and a
// leaf's last run freed the leaf itself to the next leaf built. Looking up
// one frame (OwnerOf, and every per-frame content access) costs O(log
// runs) of its leaf.
//
// Concurrency: one mutex guards all bookkeeping, and every method is safe
// to call from the internal/par worker pools under two rules. Ownership
// mutations (alloc, claim, free, retag, wipe) take the lock for the whole
// call and belong in sequential stages, so frame assignment stays
// deterministic. Content access (Write, ReadInto, Checksum and the range
// visitors ForEachTouched and ChecksumRange) takes the lock once per call
// — once per set of runs, not per frame — and copies and hashes page
// payloads outside it, so concurrent calls must target *distinct* frames.
// The bulk write WriteFrames copies and hashes under its one hold of the
// lock: its payloads are a working set's records or a copy's pages.
type PhysMem struct {
	mu          sync.Mutex
	totalFrames uint64
	next        MFN // bump cursor for allocation
	allocated   uint64
	byOwner     [numOwners]uint64
	// dir has entry li, frames [li·leafFrames, (li+1)·leafFrames), nil
	// while the leaf is not built; dirSlots backs it, allocation-free, on
	// every profile's machine (≤ 96 GiB). first is the first leaf built:
	// NewPhysMem seeds the spare list with it.
	dir         []*leaf
	dirSlots    [96 * GiB / (leafFrames * PageSize4K)]*leaf
	first       leaf
	spareLeaves *leaf
	sparePages  *pageTable
	work        Work

	// Content-hash page dedup (opt-in, see SetPageDedup): intern maps a
	// content hash to the pages registered under it; writes that produce
	// a byte-identical page share the existing one copy-on-write.
	dedup     bool
	intern    map[uint64][]*page
	dedupHits uint64
}

// Work counts what a PhysMem's ownership walks did since it was built:
// the runs and the written chunks they visited, and the frames retagged
// by SetOwnerRanges and freed by WipeRanges.
type Work struct {
	Runs, Chunks, Retagged, Wiped uint64
}

// Work returns the machine's ownership-walk counts.
func (pm *PhysMem) Work() Work {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	return pm.work
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

// part is the overlap of a frame range with one chunk: frames
// [base+lo, base+hi) of chunk k of leaf l.
type part struct {
	l      *leaf
	k      int
	base   MFN
	lo, hi uint64
}

// table returns the part's page table, nil while its chunk is unwritten.
func (p part) table() *pageTable { return p.l.pages[p.k] }

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

// set gives frames [lo, hi) of leaf l the tag (owner, vm) — frees them,
// with OwnerFree — whatever they held: the runs it covers are cut to its
// edges, it goes in as one run, merged with the runs it touches under the
// same tag. The counters follow; contents are the caller's. pm.mu held.
func (pm *PhysMem) set(l *leaf, lo, hi uint32, owner Owner, vm int32) {
	rs := l.runs
	i := l.find(lo)
	n := uint64(hi - lo)
	// In place, the cases a cursor makes: free frames that extend the run
	// before them under its tag, and the head of a run freed.
	switch {
	case owner != OwnerFree && i > 0 && rs[i-1].end() == lo && rs[i-1].owner == owner && rs[i-1].vm == vm &&
		(i == len(rs) || rs[i].start > hi):
		rs[i-1].count += hi - lo
		pm.byOwner[owner] += n
		pm.allocated += n
		return
	case owner == OwnerFree && i < len(rs) && rs[i].start == lo && rs[i].end() > hi:
		rs[i].start, rs[i].count = hi, rs[i].count-(hi-lo)
		pm.byOwner[rs[i].owner] -= n
		pm.allocated -= n
		pm.work.Runs++
		return
	}
	var buf [3]run
	repl := buf[:0]
	j := i
	for ; j < len(rs) && rs[j].start < hi; j++ {
		r := rs[j]
		cut := uint64(min(r.end(), hi) - max(r.start, lo))
		pm.byOwner[r.owner] -= cut
		pm.allocated -= cut
		if r.start < lo {
			repl = append(repl, run{r.start, lo - r.start, r.vm, r.owner})
		}
	}
	pm.work.Runs += uint64(j - i)
	if owner != OwnerFree {
		pm.byOwner[owner] += n
		pm.allocated += n
		repl = appendRun(repl, run{lo, hi - lo, vm, owner})
	}
	if j > i && rs[j-1].end() > hi {
		r := rs[j-1]
		repl = appendRun(repl, run{hi, r.end() - hi, r.vm, r.owner})
	}
	if len(repl) > 0 {
		if first := repl[0]; i > 0 && rs[i-1].end() == first.start && rs[i-1].owner == first.owner && rs[i-1].vm == first.vm {
			i--
			repl[0] = run{rs[i].start, rs[i].count + first.count, first.vm, first.owner}
		}
		if last := &repl[len(repl)-1]; j < len(rs) && last.end() == rs[j].start && last.owner == rs[j].owner && last.vm == rs[j].vm {
			last.count += rs[j].count
			j++
		}
	}
	if len(repl) == j-i {
		// In place: slices.Replace would move the tail onto itself, and a
		// copy of a run or two costs more as a memmove call.
		for k, r := range repl {
			rs[i+k] = r
		}
		return
	}
	l.runs = slices.Replace(rs, i, j, repl...)
}

// allocatedTo returns the first free frame of [lo, hi) of leaf l, or hi.
// pm.mu held.
func (pm *PhysMem) allocatedTo(l *leaf, lo, hi uint32) uint32 {
	pos := lo
	for i := l.find(lo); i < len(l.runs) && l.runs[i].start <= pos && pos < hi; i++ {
		pos = l.runs[i].end()
		pm.work.Runs++
	}
	return min(pos, hi)
}

// untilFree calls fn, in order, for each leaf span of the allocated
// frames of [start, start+count) up to its first frame that is free or
// past the end of memory, and returns that frame; ok when there is none.
// fn may be nil: the call is then a check. pm.mu held.
func (pm *PhysMem) untilFree(start MFN, count uint64, fn func(li int, l *leaf, lo, hi uint32)) (m MFN, ok bool) {
	end := uint64(start) + count
	limit := min(end, pm.totalFrames)
	for f := uint64(start); f < limit; {
		li, lo, hi := leafSpan(f, limit)
		stop := lo
		if l := pm.dir[li]; l != nil {
			if stop = pm.allocatedTo(l, lo, hi); stop > lo && fn != nil {
				fn(li, l, lo, stop)
			}
		}
		if stop < hi {
			return MFN(uint64(li)*leafFrames + uint64(stop)), false
		}
		f += uint64(hi - lo)
	}
	if end > pm.totalFrames {
		return MFN(max(uint64(start), pm.totalFrames)), false
	}
	return 0, true
}

// AllocRanges allocates n frames for the given owner and VM id and
// returns them as coalesced runs in assignment order. Frames are assigned
// from a bump cursor that wraps, which — combined with frames freed and
// reallocated over a machine's lifetime — leaves VM memory scattered
// rather than contiguous, as the paper observes (§4.2.2). The cursor steps
// over allocated runs and takes free gaps whole, up to what is left to
// take; the assigned frame sequence is identical to a frame-by-frame scan.
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
	for left := uint64(n); left > 0; {
		li, off, limit := leafSpan(uint64(pm.next), pm.totalFrames)
		base := uint64(li) * leafFrames
		gap := limit
		if l := pm.dir[li]; l != nil {
			i := l.find(off)
			for ; i < len(l.runs) && l.runs[i].start <= off; i++ {
				off = l.runs[i].end()
				pm.work.Runs++
			}
			if i < len(l.runs) {
				gap = l.runs[i].start
			}
		}
		if off < gap {
			take := uint32(min(uint64(gap-off), left))
			pm.set(pm.build(li), off, off+take, owner, int32(vm))
			out = AppendRange(out, FrameRange{Start: MFN(base + uint64(off)), Count: uint64(take)})
			left -= uint64(take)
			off += take
		}
		if pm.next = MFN(base + uint64(off)); uint64(pm.next) >= pm.totalFrames {
			pm.next = 0
		}
	}
	return out, nil
}

// Alloc2M allocates one 2 MiB-aligned run of 512 contiguous frames,
// returning the first MFN: AllocHuge of one page.
func (pm *PhysMem) Alloc2M(owner Owner, vm int) (MFN, error) {
	var buf [1]FrameRange
	rs, err := pm.AllocHuge(1, owner, vm, buf[:0])
	if err != nil {
		return 0, err
	}
	return rs[0].Start, nil
}

// AllocHuge allocates n 2 MiB-aligned runs of 512 contiguous frames, all
// or nothing, and returns them as coalesced runs in buf's storage: the
// frames, in order, that n calls of Alloc2M would return. The scan tries aligned
// chunks from the cursor, steps over each allocated run it meets in one
// move and takes each free gap's chunks whole, in one set per leaf; it
// tries every chunk at most once, and on failure nothing is taken and the
// cursor stays.
func (pm *PhysMem) AllocHuge(n int, owner Owner, vm int, buf []FrameRange) ([]FrameRange, error) {
	if owner == OwnerFree {
		return nil, fmt.Errorf("hw: cannot allocate with OwnerFree")
	}
	out := buf[:0]
	if n <= 0 {
		return out, nil
	}
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if uint64(n)*FramesPer2M > pm.totalFrames-pm.allocated {
		return nil, fmt.Errorf("hw: out of memory for %d 2M pages", n)
	}
	nRuns := pm.totalFrames / FramesPer2M
	ci := (uint64(pm.next) + FramesPer2M - 1) / FramesPer2M
	for need, tries := uint64(n), uint64(0); need > 0; {
		if tries >= nRuns {
			return nil, fmt.Errorf("hw: no aligned 2M run available (fragmentation)")
		}
		ci %= nRuns
		li, off, _ := leafSpan(ci*FramesPer2M, pm.totalFrames)
		// The free gap at chunk ci ends at the leaf's end, the last
		// chunk, the cycle's end, or the next run's first chunk.
		end := min(uint64(li+1)*leafChunks, nRuns, ci+nRuns-tries)
		if l := pm.dir[li]; l != nil {
			pm.work.Runs++
			if i := l.find(off); i < len(l.runs) {
				r := l.runs[i]
				if r.start < off+FramesPer2M {
					// Every chunk up to the one holding the run's end is taken.
					past := min((uint64(li)*leafFrames+uint64(r.end())+FramesPer2M-1)/FramesPer2M, nRuns)
					tries += past - ci
					ci = past
					continue
				}
				end = min(end, (uint64(li)*leafFrames+uint64(r.start))/FramesPer2M)
			}
		}
		take := min(end-ci, need)
		out = AppendRange(out, FrameRange{Start: MFN(ci * FramesPer2M), Count: take * FramesPer2M})
		need -= take
		tries += take
		ci += take
	}
	for _, r := range out {
		for f, end := uint64(r.Start), uint64(r.End()); f < end; {
			li, lo, hi := leafSpan(f, end)
			pm.set(pm.build(li), lo, hi, owner, int32(vm))
			f += uint64(hi - lo)
		}
	}
	last := out[len(out)-1]
	pm.next = MFN(uint64(last.End()) % pm.totalFrames)
	return out, nil
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
		li, lo, hi := leafSpan(f, end)
		if l := pm.dir[li]; l != nil {
			pm.work.Runs++
			if i := l.find(lo); i < len(l.runs) && l.runs[i].start < hi {
				return fmt.Errorf("hw: ClaimRange frame %#x not free", uint64(li)*leafFrames+uint64(max(lo, l.runs[i].start)))
			}
		}
		f += uint64(hi - lo)
	}
	for f := uint64(start); f < end; {
		li, lo, hi := leafSpan(f, end)
		pm.set(pm.build(li), lo, hi, owner, int32(vm))
		f += uint64(hi - lo)
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
// checksum) of frame i of chunk k of leaf l, and hands the chunk's page
// table on when that was its last page; pm.mu held.
func (pm *PhysMem) releaseDataAt(l *leaf, k int, i uint64) {
	t := l.pages[k]
	if t == nil || t.slot[i] == nil {
		return
	}
	pm.unref(t.slot[i])
	t.slot[i] = nil
	if t.n--; t.n == 0 {
		l.pages[k] = nil
		l.written[k/64] &^= 1 << (k % 64)
		t.next, pm.sparePages = pm.sparePages, t
	}
}

// unref drops one reference to p, deregistering a shared dedup page from
// the intern table when the last sharer goes. pm.mu held.
func (pm *PhysMem) unref(p *page) {
	p.refs--
	if p.refs <= 0 && p.interned {
		pm.uninternPage(p)
	}
}

// dropPages drops the contents of frames [lo, hi) of leaf l, visiting
// written chunks only. pm.mu held.
func (pm *PhysMem) dropPages(l *leaf, lo, hi uint32) {
	for k := l.nextWritten(int(lo / chunkFrames)); k < leafChunks && uint32(k)*chunkFrames < hi; k = l.nextWritten(k + 1) {
		pm.work.Chunks++
		base := uint32(k) * chunkFrames
		for i := max(lo, base) - base; i < min(hi, base+chunkFrames)-base && l.pages[k] != nil; i++ {
			pm.releaseDataAt(l, k, uint64(i))
		}
	}
}

// free frees frames [lo, hi) of leaf li, all allocated, with their
// contents, and releases the leaf if they were its last. pm.mu held.
func (pm *PhysMem) free(li int, l *leaf, lo, hi uint32) {
	pm.set(l, lo, hi, OwnerFree, 0)
	pm.dropPages(l, lo, hi)
	pm.releaseIfDrained(li)
}

// FreeRange releases the contiguous run [start, start+count) in one
// critical section, leaf span by leaf span. Frames are freed in order;
// the first unallocated frame — freeing one indicates a double-free bug
// in a hypervisor model — aborts with an error, the frames before it
// stay freed.
func (pm *PhysMem) FreeRange(start MFN, count uint64) error {
	return pm.FreeRanges([]FrameRange{{Start: start, Count: count}})
}

// FreeRanges releases every run of rs as FreeRange does, in one critical
// section — the inverse of AllocRanges — stopping at the first error.
func (pm *PhysMem) FreeRanges(rs []FrameRange) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	for _, r := range rs {
		if m, ok := pm.untilFree(r.Start, r.Count, pm.free); !ok {
			return fmt.Errorf("hw: double free of frame %#x", uint64(m))
		}
	}
	return nil
}

// tagOf returns frame m's run, nil if it is free: its leaf, the run's
// index in it and the frame's offset in the leaf. pm.mu held.
func (pm *PhysMem) tagOf(m MFN) (l *leaf, i int, off uint32) {
	if uint64(m) >= pm.totalFrames {
		return nil, 0, 0
	}
	li, off := int(m/leafFrames), uint32(m%leafFrames)
	if l = pm.dir[li]; l != nil {
		if i = l.find(off); i < len(l.runs) && l.runs[i].start <= off {
			return l, i, off
		}
	}
	return nil, 0, 0
}

// OwnerOf reports a frame's owner tag (OwnerFree if unallocated) and
// owning VM id.
func (pm *PhysMem) OwnerOf(m MFN) (Owner, int) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	if l, i, _ := pm.tagOf(m); l != nil {
		return l.runs[i].owner, int(l.runs[i].vm)
	}
	return OwnerFree, -1
}

// SetOwnerRanges retags the allocated runs rs, in order, in one critical
// section — used when the target hypervisor adopts preserved guest frames
// after a micro-reboot. Each leaf a run crosses costs O(log runs + runs
// it covers), whatever its frame count. The first unallocated frame
// aborts with an error; the frames before it stay retagged.
func (pm *PhysMem) SetOwnerRanges(rs []FrameRange, owner Owner, vm int) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	retag := func(_ int, l *leaf, lo, hi uint32) {
		pm.set(l, lo, hi, owner, int32(vm))
		pm.work.Retagged += uint64(hi - lo)
	}
	for _, r := range rs {
		if m, ok := pm.untilFree(r.Start, r.Count, retag); !ok {
			return fmt.Errorf("hw: SetOwner on unallocated frame %#x", uint64(m))
		}
	}
	return nil
}

// slot resolves allocated frame m to its leaf, the chunk of the leaf
// holding it and its index in the chunk; pm.mu held. op names the access
// for the error ("write to", ...).
func (pm *PhysMem) slot(m MFN, op string) (*leaf, int, uint64, error) {
	if l, _, off := pm.tagOf(m); l != nil {
		return l, int(off / chunkFrames), uint64(off % chunkFrames), nil
	}
	return nil, 0, 0, &accessError{op, m}
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
	if err := checkWindow(off, data); err != nil {
		return err
	}
	pm.mu.Lock()
	l, k, i, err := pm.slot(m, "write to")
	if err != nil {
		pm.mu.Unlock()
		return err
	}
	p, lo := pm.writable(pm.table(l, k), i, off, data, nil)
	dedup := pm.dedup
	pm.mu.Unlock()
	copy(p.buf[off-lo:], data) // what a trimmed window leaves out is zeros
	if dedup {
		h := pageSum(p)
		pm.mu.Lock()
		pm.internPage(l.pages[k], i, p, h)
		pm.mu.Unlock()
	}
	return nil
}

// checkWindow fails a write of data at off that leaves the frame.
func checkWindow(off int, data []byte) error {
	if off < 0 || off+len(data) > PageSize4K {
		return fmt.Errorf("hw: write [%d, %d) outside frame", off, off+len(data))
	}
	return nil
}

// freshWindow is the window [lo, lo+size) a first write of data at off
// gives its page: the prefix up to its last non-zero quantum from offset
// 0, or the data less its trailing zero quanta.
func freshWindow(off int, data []byte) (lo, size int) {
	if off == 0 {
		return 0, prefixLen(data)
	}
	return off, min(prefixLen(data), len(data))
}

// writable readies slot i of page table t for a write of data at off,
// under the window rules: a fresh page gets freshWindow, a write inside
// the window keeps it, any other regrows the page to the whole frame; a
// shared page is unshared copy-on-write and an interned one deregistered
// first. It returns the page, its checksum invalidated, and its window's
// offset lo: the caller copies data to p.buf[off-lo:]. A fresh page comes
// from s, or from the heap when s is nil or spent. pm.mu held.
func (pm *PhysMem) writable(t *pageTable, i uint64, off int, data []byte, s *slabs) (*page, int) {
	p := t.slot[i]
	// [lo, lo+size) is the window the page must hold after this write.
	lo, size := 0, PageSize4K
	switch {
	case p == nil:
		lo, size = freshWindow(off, data)
	case off >= int(p.lo) && off+len(data) <= p.hi():
		lo, size = int(p.lo), len(p.buf)
	}
	switch {
	case p == nil:
		p = s.page(size)
		p.lo, p.refs = uint16(lo), 1
		t.slot[i] = p
		t.n++
	case p.refs > 1:
		// Copy-on-write unshare: other frames keep the shared original.
		p.refs--
		np := &page{buf: make([]byte, size), lo: uint16(lo), refs: 1}
		copy(np.buf[int(p.lo)-lo:], p.buf)
		t.slot[i] = np
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
	return p, lo
}

// slabs are the fresh pages of one bulk write and their windows, carved
// in order from one allocation each. Only windows under a prefix quantum
// — a record's — come from the window slab: one of a quantum or more, as
// a first write at offset 0 makes, is a size class of its own, and taking
// it from the slab would push the slab into the next class up.
type slabs struct {
	pages []page
	bytes []byte
}

// slabbed reports whether a fresh window of size bytes comes from the
// window slab.
func slabbed(size int) bool { return size < prefixQuantum }

// page returns a fresh page with a size-byte window, carved from s, or
// from the heap when s is nil. WriteFrames's sizing pass counts every
// fresh page and slabbed window its apply pass takes (a frame written
// twice, twice), so s never runs out.
func (s *slabs) page(size int) *page {
	if s == nil {
		return &page{buf: make([]byte, size)}
	}
	p := &s.pages[0]
	s.pages = s.pages[1:]
	if slabbed(size) {
		p.buf, s.bytes = s.bytes[:size:size], s.bytes[size:]
	} else {
		p.buf = make([]byte, size)
	}
	return p
}

// FrameWrite is one write of a bulk write: Data at byte Off of the frame
// at index Index of the runs written, the frames of the runs counted in
// order.
type FrameWrite struct {
	Index uint64
	Off   int
	Data  []byte
}

// runCursor maps an index within runs to its frame, stepping forward from
// the run the last index it mapped fell in: indexes in order cost
// O(runs + indexes) in all.
type runCursor struct {
	rs   []FrameRange
	r    int    // the run the last index fell in
	base uint64 // the index of run r's first frame
}

func (c *runCursor) frame(i uint64) (MFN, bool) {
	if i < c.base {
		c.r, c.base = 0, 0
	}
	for ; c.r < len(c.rs); c.r++ {
		if i-c.base < c.rs[c.r].Count {
			return c.rs[c.r].Start + MFN(i-c.base), true
		}
		c.base += c.rs[c.r].Count
	}
	return 0, false
}

// target resolves write w into the runs of c to its frame's leaf, the
// chunk holding it and its index in the chunk. pm.mu held.
func (pm *PhysMem) target(c *runCursor, w FrameWrite) (*leaf, int, uint64, error) {
	if err := checkWindow(w.Off, w.Data); err != nil {
		return nil, 0, 0, err
	}
	m, ok := c.frame(w.Index)
	if !ok {
		return nil, 0, 0, fmt.Errorf("hw: write to frame %d of runs of %d frames", w.Index, CountFrames(c.rs))
	}
	return pm.slot(m, "write to")
}

// WriteFrames applies ws, in order, to the frames of the runs rs, with
// the outcome of one Write per element — the same window, regrow,
// copy-on-write and dedup rules — in one hold of the lock: a sizing pass
// counts the fresh pages and their windows, which are then carved from
// one allocation each (see slabs), and an apply pass copies each payload (and, under
// dedup, hashes each page) there. Indexes in order cost O(runs) to
// resolve in all. It returns how many writes it applied: all of them, or
// those before the first that fails — a write outside its frame, past rs
// or to an unallocated frame — whose error it returns. A payload may be
// one ForEachTouched handed out, of this machine or another.
func (pm *PhysMem) WriteFrames(rs []FrameRange, ws []FrameWrite) (int, error) {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	n, pages, bytes := len(ws), 0, 0
	var err error
	c := runCursor{rs: rs}
	for k, w := range ws {
		l, ck, i, werr := pm.target(&c, w)
		if werr != nil {
			n, err = k, werr
			break
		}
		if l.pages[ck].page(i) == nil {
			pages++
			if _, size := freshWindow(w.Off, w.Data); slabbed(size) {
				bytes += size
			}
		}
	}
	var s slabs
	if pages > 0 {
		s = slabs{make([]page, pages), make([]byte, bytes)}
	}
	for _, w := range ws[:n] {
		l, ck, i, _ := pm.target(&c, w)
		t := pm.table(l, ck)
		p, lo := pm.writable(t, i, w.Off, w.Data, &s)
		copy(p.buf[w.Off-lo:], w.Data)
		if pm.dedup {
			pm.internPage(t, i, p, pageSum(p))
		}
	}
	return n, err
}

// table returns chunk k of leaf l's page table, giving the chunk one off
// the spare list if it has none. pm.mu held.
func (pm *PhysMem) table(l *leaf, k int) *pageTable {
	t := l.pages[k]
	if t == nil {
		if t = pm.sparePages; t == nil {
			t = new(pageTable)
		}
		pm.sparePages, t.next = t.next, nil
		l.pages[k] = t
		l.written[k/64] |= 1 << (k % 64)
	}
	return t
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
				pm.releaseDataAt(pt.l, pt.k, i) // a frame rs names twice takes its last page
				t := pm.table(pt.l, pt.k)
				t.slot[i] = p
				t.n++
				if pm.dedup {
					pm.internPage(t, i, p, pageSum(p))
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
			for i, t := pt.lo, pt.table(); t != nil && i < pt.hi; i++ {
				written = written || t.slot[i] != nil
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
				if p := pt.table().page(i); p == nil {
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
				out.slots = append(out.slots, p.table().page(i))
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
				pm.releaseDataAt(pt.l, pt.k, i)
				if pg := p.slots[k]; pg != nil {
					t := pm.table(pt.l, pt.k)
					t.slot[i] = pg
					t.n++
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
				held = pt.table().page(i) == p.slots[k]
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

// internPage registers the freshly-written page p of frame i of page table
// t under its content hash h — which is also its checksum, cached from
// here on — or, when a byte-identical page is registered, shares that one
// instead. pm.mu held.
func (pm *PhysMem) internPage(t *pageTable, i uint64, p *page, h uint64) {
	if pm.intern == nil {
		pm.intern = make(map[uint64][]*page)
	}
	for _, q := range pm.intern[h] {
		if q != p && samePage(q, p) {
			q.refs++
			t.slot[i] = q
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
	l, k, i, err := pm.slot(m, "read from")
	if err != nil {
		pm.mu.Unlock()
		return err
	}
	p := l.pages[k].page(i)
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
	l, k, i, err := pm.slot(m, "checksum of")
	if err != nil {
		pm.mu.Unlock()
		return 0, err
	}
	p := l.pages[k].page(i)
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
// in order, once it has checked, run by run, that every frame of the
// range is allocated: the first that is not fails the walk with an access
// error naming op, before fn is called. pm.mu held.
func (pm *PhysMem) eachAllocated(start MFN, count uint64, op string, fn func(part)) error {
	if m, ok := pm.untilFree(start, count, nil); !ok {
		return &accessError{op, m}
	}
	end := uint64(start) + count
	for f := uint64(start); f < end; {
		ci := chunkOf(MFN(f))
		base := uint64(ci) * chunkFrames
		p := part{pm.dir[ci/leafChunks], ci % leafChunks, MFN(base), f - base, min(chunkFrames, end-base)}
		fn(p)
		f = base + p.hi
	}
	return nil
}

// ForEachTouched calls fn, in order, for every frame of the allocated
// runs rs that has ever been written (untouched frames are logically zero
// and need no migration traffic), with the frame's index within rs, the
// frames of the runs counted in order. The lock is taken once for all the
// runs; only written chunks are visited, through each leaf's written
// bitmap (counted in Work().Chunks), so a walk costs O(runs + written
// chunks + frames visited) whatever the runs' size. The visits are listed
// under the lock, in storage sized from the page tables' counts, and fn
// runs outside it. A frame of rs that is not allocated fails the walk
// before fn is called. data is the frame's written window, bytes [off,
// off+len(data)): the bytes around it are zero, and a consumer that wants
// the whole frame adds them. It is the live backing store: fn must not
// modify it, and it holds the frame's contents until the frame is next
// written or freed.
func (pm *PhysMem) ForEachTouched(rs []FrameRange, fn func(i uint64, off int, data []byte) error) error {
	type touched struct {
		i uint64
		p *page
	}
	pm.mu.Lock()
	for _, r := range rs {
		if m, ok := pm.untilFree(r.Start, r.Count, nil); !ok {
			pm.mu.Unlock()
			return &accessError{"read from", m}
		}
	}
	n := 0
	pm.eachWritten(rs, func(_ uint64, t *pageTable, lo, hi uint64) {
		if hi-lo == chunkFrames {
			n += int(t.n)
			return
		}
		for s := lo; s < hi; s++ {
			if t.slot[s] != nil {
				n++
			}
		}
	})
	hits := make([]touched, 0, n)
	pm.eachWritten(rs, func(i uint64, t *pageTable, lo, hi uint64) {
		pm.work.Chunks++
		for s := lo; s < hi; s++ {
			if p := t.slot[s]; p != nil {
				hits = append(hits, touched{i + s - lo, p})
			}
		}
	})
	pm.mu.Unlock()
	for _, h := range hits {
		if err := fn(h.i, int(h.p.lo), h.p.buf); err != nil {
			return err
		}
	}
	return nil
}

// eachWritten calls fn, in order, for the overlap of each run of rs, all
// allocated, with each written chunk: slots [lo, hi) of the chunk's page
// table t, slot lo at index i within rs. Chunks never written are skipped
// through their leaf's bitmap. pm.mu held.
func (pm *PhysMem) eachWritten(rs []FrameRange, fn func(i uint64, t *pageTable, lo, hi uint64)) {
	var base uint64 // the index of the run's first frame
	for _, r := range rs {
		for f, end := uint64(r.Start), uint64(r.End()); f < end; {
			li, lo, hi := leafSpan(f, end)
			l := pm.dir[li]
			for k := l.nextWritten(int(lo / chunkFrames)); k < leafChunks && uint32(k)*chunkFrames < hi; k = l.nextWritten(k + 1) {
				first := uint32(k) * chunkFrames
				s, e := max(lo, first), min(hi, first+chunkFrames)
				fn(base+uint64(li)*leafFrames+uint64(s)-uint64(r.Start), l.pages[k], uint64(s-first), uint64(e-first))
			}
			f += uint64(hi - lo)
		}
		base += r.Count
	}
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
		t := p.table()
		if t == nil {
			total += zeroPageSum * checksumKeys(g, p.hi-p.lo)
			return
		}
		for i := p.lo; i < p.hi; i, g = i+1, g+1 {
			switch pg := t.slot[i]; {
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
// preserved memory survives. In each built leaf it finds the runs in the
// gaps between keep runs, frees their frames there and drops the contents
// of the written chunks they cover; runs a keep run covers are not
// visited, only moved down over what was freed before them. A
// micro-reboot costs O(gaps·log runs + runs wiped + written chunks
// wiped), not O(frames) or O(machine).
func (pm *PhysMem) WipeRanges(keep []FrameRange) int {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	before := pm.work.Wiped
	for li, l := range pm.dir {
		if l == nil {
			continue
		}
		base := uint64(li) * leafFrames
		_, _, limit := leafSpan(base, pm.totalFrames)
		// The runs are compacted in place: rs[:w] are final, rs[r:] not yet
		// visited, and w <= r.
		rs, w, r := l.runs, 0, 0
		for pos := uint32(0); pos < limit && r < len(rs); {
			for len(keep) > 0 && uint64(keep[0].End()) <= base+uint64(pos) {
				keep = keep[1:]
			}
			end := limit
			if len(keep) > 0 && uint64(keep[0].Start) < base+uint64(limit) {
				if ks := uint32(max(uint64(keep[0].Start), base) - base); ks > pos {
					end = ks
				} else {
					pos = uint32(min(uint64(keep[0].End())-base, uint64(limit)))
					continue
				}
			}
			// The gap [pos, end): runs before it are kept whole.
			i := r + search(rs[r:], pos)
			w += copy(rs[w:], rs[r:i])
			pm.work.Runs++
			for r = i; r < len(rs) && rs[r].start < end; r++ {
				x := rs[r]
				lo, hi := max(x.start, pos), min(x.end(), end)
				pm.byOwner[x.owner] -= uint64(hi - lo)
				pm.allocated -= uint64(hi - lo)
				pm.work.Wiped += uint64(hi - lo)
				pm.work.Runs++
				pm.dropPages(l, lo, hi)
				if x.start < lo { // kept: the run's part before the gap
					if w == r {
						rs = slices.Insert(rs, r, run{})
						r++
					}
					rs[w] = run{x.start, lo - x.start, x.vm, x.owner}
					w++
				}
				if x.end() > hi { // the run's part past the gap, for the next gap
					rs[r] = run{hi, x.end() - hi, x.vm, x.owner}
					break
				}
			}
			pos = end
		}
		l.runs = rs[:w+copy(rs[w:], rs[r:])]
		pm.releaseIfDrained(li)
	}
	return int(pm.work.Wiped - before)
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
