package hw

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math/rand"
	"slices"
	"testing"

	"hypertp/internal/fuzzseed"
)

// refMem is the naive per-frame reference PhysMem is checked against: one
// tag and one optional page per frame, a frame-by-frame cursor scan, no
// chunks, no summaries, no sharing.
type refMem struct {
	owner []Owner
	vm    []int
	data  [][]byte // nil: never written
	next  int
	// tok names each frame's contents: 0 while untouched, a fresh value
	// on every write. A captured frame keeps the captured page exactly
	// while its token is the captured one.
	tok     []uint64
	lastTok uint64
}

func newRefMem(frames int) *refMem {
	return &refMem{owner: make([]Owner, frames), vm: make([]int, frames), data: make([][]byte, frames),
		tok: make([]uint64, frames)}
}

func (r *refMem) free() int {
	n := 0
	for _, o := range r.owner {
		if o == OwnerFree {
			n++
		}
	}
	return n
}

func (r *refMem) take(m int, owner Owner, vm int) { r.owner[m], r.vm[m] = owner, vm }

func (r *refMem) release(m int) { r.owner[m], r.vm[m], r.data[m], r.tok[m] = OwnerFree, 0, nil, 0 }

func (r *refMem) alloc(n int, owner Owner, vm int) ([]MFN, bool) {
	if n > r.free() {
		return nil, false
	}
	var out []MFN
	for len(out) < n {
		if r.owner[r.next] == OwnerFree {
			r.take(r.next, owner, vm)
			out = append(out, MFN(r.next))
		}
		r.next = (r.next + 1) % len(r.owner)
	}
	return out, true
}

func (r *refMem) allFree(start, count int) bool {
	for m := start; m < start+count; m++ {
		if r.owner[m] != OwnerFree {
			return false
		}
	}
	return true
}

func (r *refMem) alloc2M(owner Owner, vm int) (MFN, bool) {
	if r.free() < FramesPer2M {
		return 0, false
	}
	runs := len(r.owner) / FramesPer2M
	start := (r.next + FramesPer2M - 1) / FramesPer2M * FramesPer2M
	for try := 0; try < runs; try++ {
		base := (start + try*FramesPer2M) % (runs * FramesPer2M)
		if r.allFree(base, FramesPer2M) {
			for m := base; m < base+FramesPer2M; m++ {
				r.take(m, owner, vm)
			}
			r.next = (base + FramesPer2M) % len(r.owner)
			return MFN(base), true
		}
	}
	return 0, false
}

// allocHuge is n alloc2M calls, all or nothing: on a failure the
// reference is put back as it was.
func (r *refMem) allocHuge(n int, owner Owner, vm int) ([]MFN, bool) {
	owners, vms, next := slices.Clone(r.owner), slices.Clone(r.vm), r.next
	var out []MFN
	for range n {
		base, ok := r.alloc2M(owner, vm)
		if !ok {
			r.owner, r.vm, r.next = owners, vms, next
			return nil, false
		}
		out = append(out, base)
	}
	return out, true
}

func (r *refMem) claim(start, count int, owner Owner, vm int) bool {
	if start+count > len(r.owner) || !r.allFree(start, count) {
		return false
	}
	for m := start; m < start+count; m++ {
		r.take(m, owner, vm)
	}
	return true
}

// freeRange and setOwner stop at the first unallocated frame, keeping
// what they did before it — the documented partial effect.
func (r *refMem) freeRange(start, count int) bool {
	for m := start; m < start+count; m++ {
		if m >= len(r.owner) || r.owner[m] == OwnerFree {
			return false
		}
		r.release(m)
	}
	return true
}

func (r *refMem) setOwner(start, count int, owner Owner, vm int) bool {
	for m := start; m < start+count; m++ {
		if m >= len(r.owner) || r.owner[m] == OwnerFree {
			return false
		}
		r.take(m, owner, vm)
	}
	return true
}

// runs returns the reference's maximal stretches of allocated frames
// that share a tag, as [start, end) pairs in frame order.
func (r *refMem) runs() [][2]int {
	var out [][2]int
	for m := 0; m < len(r.owner); m++ {
		if r.owner[m] == OwnerFree {
			continue
		}
		if n := len(out); n > 0 && out[n-1][1] == m && r.owner[m-1] == r.owner[m] && r.vm[m-1] == r.vm[m] {
			out[n-1][1]++
		} else {
			out = append(out, [2]int{m, m + 1})
		}
	}
	return out
}

func (r *refMem) write(m, off int, data []byte) bool {
	if m >= len(r.owner) || r.owner[m] == OwnerFree {
		return false
	}
	if r.data[m] == nil {
		r.data[m] = make([]byte, PageSize4K)
	}
	copy(r.data[m][off:], data)
	r.lastTok++
	r.tok[m] = r.lastTok
	return true
}

// frameAt maps index i within the runs rs to its frame, -1 past them.
func frameAt(rs []FrameRange, i int) int {
	for _, r := range rs {
		if i < int(r.Count) {
			return int(r.Start) + i
		}
		i -= int(r.Count)
	}
	return -1
}

// writeFrames applies ws to the frames of rs as WriteFrames must: frame
// by frame, stopping at the first write outside its frame, past rs or to
// a free frame; it returns how many it applied.
func (r *refMem) writeFrames(rs []FrameRange, ws []FrameWrite) int {
	for k, w := range ws {
		m := frameAt(rs, int(w.Index))
		if w.Off < 0 || w.Off+len(w.Data) > PageSize4K || m < 0 || !r.write(m, w.Off, w.Data) {
			return k
		}
	}
	return len(ws)
}

// touched lists, in order, the index within rs and frame of every written
// frame of rs; false when rs holds a free frame or one past memory.
func (r *refMem) touched(rs []FrameRange) (idx, frames []int, ok bool) {
	i := 0
	for _, run := range rs {
		for m := int(run.Start); m < int(run.End()); m, i = m+1, i+1 {
			if m >= len(r.owner) || r.owner[m] == OwnerFree {
				return nil, nil, false
			}
			if r.data[m] != nil {
				idx, frames = append(idx, i), append(frames, m)
			}
		}
	}
	return idx, frames, true
}

// fill lays img into the frames of rs in order, a frame per page from
// offset 0: every frame allocated and untouched, and rs holding img.
func (r *refMem) fill(rs []FrameRange, img []byte) bool {
	var ms []int
	for _, run := range rs {
		for m := int(run.Start); m < int(run.End()); m++ {
			if m >= len(r.owner) || r.owner[m] == OwnerFree || r.data[m] != nil {
				return false
			}
			ms = append(ms, m)
		}
	}
	if len(img) > len(ms)*PageSize4K {
		return false
	}
	for k, m := range ms {
		if k*PageSize4K >= len(img) {
			break
		}
		r.data[m] = make([]byte, PageSize4K) // a zero frame with its part of img laid in
		copy(r.data[m], img[k*PageSize4K:])
		r.lastTok++
		r.tok[m] = r.lastTok
	}
	return true
}

// read returns [start, +count) as ReadRanges lays it out.
func (r *refMem) read(start, count int) ([]byte, bool) {
	out := make([]byte, 0, count*PageSize4K)
	for m := start; m < start+count; m++ {
		if m >= len(r.owner) || r.owner[m] == OwnerFree {
			return nil, false
		}
		if r.data[m] == nil {
			out = append(out, zeroPage[:]...)
		} else {
			out = append(out, r.data[m]...)
		}
	}
	return out, true
}

// refCapture is a SharePages capture beside what the reference says it
// holds: the captured frames' tokens and bytes, and the frame runs it was
// taken from or installed at.
type refCapture struct {
	p     Pages
	live  bool
	toks  []uint64
	data  [][]byte // nil: an untouched frame
	sites []int
}

// share captures [start, start+count) in the reference.
func (r *refMem) share(start, count int) (*refCapture, bool) {
	if start+count > len(r.owner) {
		return nil, false
	}
	c := &refCapture{live: true, sites: []int{start}}
	for m := start; m < start+count; m++ {
		if r.owner[m] == OwnerFree {
			return nil, false
		}
		c.toks = append(c.toks, r.tok[m])
		c.data = append(c.data, bytes.Clone(r.data[m]))
	}
	return c, true
}

// install puts capture c at [start, +len): every frame allocated and
// untouched, the capture live.
func (r *refMem) install(start int, c *refCapture) bool {
	if !c.live || start+len(c.toks) > len(r.owner) {
		return false
	}
	for k := range c.toks {
		if m := start + k; r.owner[m] == OwnerFree || r.data[m] != nil {
			return false
		}
	}
	for k := range c.toks {
		r.data[start+k], r.tok[start+k] = bytes.Clone(c.data[k]), c.toks[k]
	}
	c.sites = append(c.sites, start)
	return true
}

// holds reports whether [start, +len) holds capture c by the tokens.
func (r *refMem) holds(start int, c *refCapture) bool {
	if !c.live || start+len(c.toks) > len(r.owner) {
		return false
	}
	for k, tok := range c.toks {
		if m := start + k; r.owner[m] == OwnerFree || r.tok[m] != tok {
			return false
		}
	}
	return true
}

// sameBytes reports whether [start, +len) reads what capture c captured.
func (r *refMem) sameBytes(start int, c *refCapture) bool {
	for k, want := range c.data {
		got := r.data[start+k]
		if want == nil {
			want = zeroPage[:]
		}
		if got == nil {
			got = zeroPage[:]
		}
		if !bytes.Equal(got, want) {
			return false
		}
	}
	return true
}

// checkCaptures checks that every live capture still holds its captured
// bytes, whatever was written since, and that every page's reference
// count is the frames and live captures that hold it.
func checkCaptures(pm *PhysMem, caps []*refCapture) error {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	refs := map[*page]int32{}
	for _, l := range pm.dir {
		for k := 0; l != nil && k < leafChunks; k++ {
			if t := l.pages[k]; t != nil {
				for _, p := range t.slot {
					if p != nil {
						refs[p]++
					}
				}
			}
		}
	}
	for ci, c := range caps {
		if !c.live {
			continue
		}
		for k, p := range c.p.slots {
			if (p == nil) != (c.data[k] == nil) {
				return fmt.Errorf("capture %d page %d: captured %v, reference touched %v", ci, k, p != nil, c.data[k] != nil)
			}
			if p == nil {
				continue
			}
			refs[p]++
			if !samePage(p, &page{buf: c.data[k]}) {
				return fmt.Errorf("capture %d page %d changed after it was captured", ci, k)
			}
		}
	}
	for p, n := range refs {
		if p.refs != n {
			return fmt.Errorf("page with %d references counts %d", n, p.refs)
		}
	}
	return nil
}

func (r *refMem) wipe(keep []FrameRange) int {
	kept := make([]bool, len(r.owner))
	for _, k := range keep {
		for m := k.Start; m < k.Start+MFN(k.Count) && int(m) < len(kept); m++ {
			kept[m] = true
		}
	}
	wiped := 0
	for m, o := range r.owner {
		if o != OwnerFree && !kept[m] {
			r.release(m)
			wiped++
		}
	}
	return wiped
}

func (r *refMem) sum(m int) uint64 {
	if r.data[m] == nil {
		return zeroPageSum
	}
	return crc64.Checksum(r.data[m], CRCTable)
}

// modelFrames is three whole chunks and a partial last one.
const modelFrames = 3*chunkFrames + 200

// modelCheck compares every observable of pm with the reference: its
// runs, read under one lock, against the reference's; contents by range
// (modelCheckRanges: every written frame's bytes, and no other frame
// written); and the per-frame calls at the first and last frame of every
// run and every free stretch, and at every written frame. The machine is
// one leaf, so its runs are the leaf's.
func modelCheck(pm *PhysMem, ref *refMem) error {
	// Ranges first: the per-frame Checksum calls below would leave no
	// page for ChecksumRange to hash.
	if err := modelCheckRanges(pm, ref); err != nil {
		return err
	}
	var want []run
	var allocated uint64
	counts := map[Owner]uint64{}
	live := map[int]bool{}
	for m, o := range ref.owner {
		if o != OwnerFree {
			want = appendRun(want, run{uint32(m), 1, int32(ref.vm[m]), o})
			allocated++
			counts[o]++
			live[ref.vm[m]] = true
		}
	}
	pm.mu.Lock()
	var got []run
	if l := pm.dir[0]; l != nil {
		got = slices.Clone(l.runs)
	}
	pm.mu.Unlock()
	if !slices.Equal(got, want) {
		return fmt.Errorf("runs %v, reference %v", got, want)
	}
	page := make([]byte, PageSize4K)
	for start := 0; start < modelFrames; {
		end := start + 1
		for end < modelFrames && ref.owner[end] == ref.owner[start] && ref.vm[end] == ref.vm[start] {
			end++
		}
		for _, m := range []int{start, end - 1} {
			if err := modelCheckFrame(pm, ref, m, page); err != nil {
				return err
			}
		}
		start = end
	}
	for m, d := range ref.data {
		if d != nil {
			if err := modelCheckFrame(pm, ref, m, page); err != nil {
				return err
			}
		}
	}
	if got := pm.AllocatedFrames(); got != allocated {
		return fmt.Errorf("AllocatedFrames = %d, reference %d", got, allocated)
	}
	if got := pm.FreeFrames(); got != modelFrames-allocated {
		return fmt.Errorf("FreeFrames = %d, reference %d", got, modelFrames-allocated)
	}
	byOwner := pm.CountByOwner()
	if len(byOwner) != len(counts) {
		return fmt.Errorf("CountByOwner = %v, reference %v", byOwner, counts)
	}
	for o, n := range counts {
		if byOwner[o] != n {
			return fmt.Errorf("CountByOwner = %v, reference %v", byOwner, counts)
		}
	}
	if vs := pm.AuditOwners(live); vs != nil {
		return fmt.Errorf("AuditOwners: %v", vs)
	}
	return nil
}

// modelCheckFrame compares OwnerOf, Checksum and ReadInto of frame m with
// the reference: on a free frame the two content calls fail.
func modelCheckFrame(pm *PhysMem, ref *refMem, m int, page []byte) error {
	wantO, wantVM := ref.owner[m], ref.vm[m]
	if wantO == OwnerFree {
		wantVM = -1
	}
	if o, vm := pm.OwnerOf(MFN(m)); o != wantO || vm != wantVM {
		return fmt.Errorf("frame %d: OwnerOf = %v/%d, reference %v/%d", m, o, vm, wantO, wantVM)
	}
	sum, err := pm.Checksum(MFN(m))
	if wantO == OwnerFree {
		if rerr := pm.ReadInto(MFN(m), 0, page[:1]); err == nil || rerr == nil {
			return fmt.Errorf("free frame %d: Checksum err %v, ReadInto err %v, want errors", m, err, rerr)
		}
		return nil
	}
	if want := ref.sum(m); err != nil || sum != want {
		return fmt.Errorf("frame %d: Checksum %#x, %v; reference %#x", m, sum, err, want)
	}
	// An untouched frame that matched the zero-page checksum needs no
	// byte compare; read a little of it all the same.
	want, got := ref.data[m], page
	if want == nil {
		want, got = zeroPage[:64], page[:64]
	}
	if err := pm.ReadInto(MFN(m), 0, got); err != nil || !bytes.Equal(got, want) {
		return fmt.Errorf("frame %d: contents differ from reference (err %v)", m, err)
	}
	return nil
}

// modelCheckRanges compares the range visitors over every maximal
// allocated run, and over the run's interior, with per-frame reference
// walks; a range holding a free frame must fail.
func modelCheckRanges(pm *PhysMem, ref *refMem) error {
	for start := 0; start < modelFrames; {
		if ref.owner[start] == OwnerFree {
			start++
			continue
		}
		end := start
		for end < modelFrames && ref.owner[end] != OwnerFree {
			end++
		}
		for _, r := range [][2]int{{start, end}, {start + (end-start)/3, end - (end-start)/3}} {
			lo, n := r[0], r[1]-r[0]
			gfn := GFN(lo*7 + 3)
			var want uint64
			var touched []MFN
			for k := 0; k < n; k++ {
				want += ref.sum(lo+k) * checksumKey(uint64(gfn)+uint64(k))
				if ref.data[lo+k] != nil {
					touched = append(touched, MFN(lo+k))
				}
			}
			if got, err := pm.ChecksumRange(MFN(lo), uint64(n), gfn); err != nil || got != want {
				return fmt.Errorf("ChecksumRange [%d,+%d) = %#x, %v; reference %#x", lo, n, got, err, want)
			}
			var visited []MFN
			err := pm.ForEachTouched([]FrameRange{{Start: MFN(lo), Count: uint64(n)}}, func(i uint64, off int, data []byte) error {
				m := MFN(lo) + MFN(i)
				// data is the written window at off, in a zero frame.
				if off < 0 || off+len(data) > PageSize4K {
					return fmt.Errorf("frame %d window [%d,+%d) outside the frame", m, off, len(data))
				}
				frame := make([]byte, PageSize4K)
				copy(frame[off:], data)
				if !bytes.Equal(frame, ref.data[m]) {
					return fmt.Errorf("frame %d contents differ (window [%d,+%d))", m, off, len(data))
				}
				visited = append(visited, m)
				return nil
			})
			if err != nil || fmt.Sprint(visited) != fmt.Sprint(touched) {
				return fmt.Errorf("ForEachTouched [%d,+%d) visited %v, %v; reference %v", lo, n, visited, err, touched)
			}
		}
		// One frame past the run is free, or past the end of memory.
		if _, err := pm.ChecksumRange(MFN(start), uint64(end-start+1), 0); err == nil {
			return fmt.Errorf("ChecksumRange [%d,+%d) over a free frame succeeded", start, end-start+1)
		}
		if err := pm.ForEachTouched([]FrameRange{{Start: MFN(start), Count: uint64(end - start + 1)}}, func(uint64, int, []byte) error { return nil }); err == nil {
			return fmt.Errorf("ForEachTouched [%d,+%d) over a free frame succeeded", start, end-start+1)
		}
		start = end
	}
	return nil
}

// modelRun interprets ops, four bytes each (opcode, a, b, c), against a
// PhysMem and the reference, checking every observable after each step.
func modelRun(ops []byte, dedup bool) error {
	pm, ref := NewPhysMem(modelFrames*PageSize4K), newRefMem(modelFrames)
	pm.SetPageDedup(dedup)
	var caps []*refCapture
	dedupped := dedup // whether any write so far could have interned a page
	for step := 0; len(ops) >= 4 && step < 96; step, ops = step+1, ops[4:] {
		a, b, c := int(ops[1]), int(ops[2]), int(ops[3])
		frame := (a<<8 | b) % modelFrames
		owner, vm := Owner(1+c%int(numOwners-1)), c%3
		// Counts up to a chunk and a half, so ranges straddle chunks.
		count := 1 + (b*c)%(3*chunkFrames/2)
		var desc string
		var got, want any
		op := ops[0] % modelOps
		switch op {
		case 0:
			rs, err := pm.AllocRanges(count, owner, vm)
			mfns, _ := frames(rs, nil)
			wantFrames, ok := ref.alloc(count, owner, vm)
			desc, got, want = fmt.Sprintf("AllocRanges(%d)", count), fmt.Sprint(mfns, err == nil), fmt.Sprint(wantFrames, ok)
		case 1:
			base, err := pm.Alloc2M(owner, vm)
			wantBase, ok := ref.alloc2M(owner, vm)
			desc, got, want = "Alloc2M", fmt.Sprint(base, err == nil), fmt.Sprint(wantBase, ok)
		case 2:
			err := pm.ClaimRange(MFN(frame), uint64(count), owner, vm)
			desc, got, want = fmt.Sprintf("ClaimRange(%d,%d)", frame, count), err == nil, ref.claim(frame, count, owner, vm)
		case 3:
			err := pm.FreeRange(MFN(frame), uint64(count))
			desc, got, want = fmt.Sprintf("FreeRange(%d,%d)", frame, count), err == nil, ref.freeRange(frame, count)
		case 4:
			err := pm.SetOwnerRanges([]FrameRange{{Start: MFN(frame), Count: uint64(count)}}, owner, vm)
			desc, got, want = fmt.Sprintf("SetOwnerRanges(%d,%d)", frame, count), err == nil, ref.setOwner(frame, count, owner, vm)
		case 5:
			// A few distinct payloads, so dedup finds identical pages;
			// short ones at an offset, so shared pages get unshared.
			data := bytes.Repeat([]byte{byte(c % 3)}, PageSize4K)
			off := 0
			switch {
			case c >= 192:
				// Past whatever window the page holds: it regrows whole;
				// a fresh frame stores a 16-byte window.
				data, off = data[:16], PageSize4K/2+b*4
			case c >= 128:
				// A short run at offset 0 with zeros behind it (all zeros
				// when c%3 is 0): the page is sized to what was written.
				data = append(data[:1+(c-128)*20], make([]byte, b)...)
			case c%5 == 0:
				data, off = data[:16], b*8
			}
			for k := 0; k < 1+c%4; k++ {
				m := (frame + k) % modelFrames
				err := pm.Write(MFN(m), off, data)
				if ok := ref.write(m, off, data); ok != (err == nil) {
					return fmt.Errorf("step %d: Write(%d): err %v, reference ok=%v", step, m, err, ok)
				}
			}
			desc = fmt.Sprintf("Write(%d..)", frame)
		case 6:
			var keep []FrameRange
			if c%4 != 0 {
				keep = MergeRanges([]FrameRange{
					{Start: MFN(frame), Count: uint64(count)},
					{Start: MFN(a * 5), Count: uint64(c)},
					{Start: MFN(b * 6), Count: uint64(a)},
				})
			}
			w := pm.Work()
			desc, got, want = fmt.Sprintf("WipeRanges(%v)", keep), pm.WipeRanges(keep), ref.wipe(keep)
			if wiped := pm.Work().Wiped - w.Wiped; int(wiped) != got {
				return fmt.Errorf("step %d: %s counted %d wiped frames, returned %v", step, desc, wiped, got)
			}
		case 7:
			pm.SetPageDedup(c%2 == 0)
			dedupped = dedupped || c%2 == 0
			desc = "SetPageDedup"
		case 8:
			// Unsorted, possibly overlapping runs: the contract is the
			// reference retagging run by run, a failing run included.
			rs := []FrameRange{
				{Start: MFN(frame), Count: uint64(count)},
				{Start: MFN(a * 5), Count: uint64(1 + c)},
				{Start: MFN(b * 6), Count: uint64(1 + a)},
			}
			ok := true
			for _, r := range rs {
				if ok = ref.setOwner(int(r.Start), int(r.Count), owner, vm); !ok {
					break
				}
			}
			err := pm.SetOwnerRanges(rs, owner, vm)
			desc, got, want = fmt.Sprintf("SetOwnerRanges(%v)", rs), err == nil, ok
		case 9:
			// Up to four captures; a new one releases the one it replaces.
			n := 1 + b%40
			rc, ok := ref.share(frame, n)
			p, err := pm.SharePages([]FrameRange{{Start: MFN(frame), Count: uint64(n)}})
			desc, got, want = fmt.Sprintf("SharePages(%d,%d)", frame, n), err == nil, ok
			if err == nil && ok {
				rc.p = p
				if i := c % 4; i < len(caps) {
					caps[i].p.Release()
					caps[i] = rc
				} else {
					caps = append(caps, rc)
				}
			}
		case 10, 11:
			if len(caps) == 0 {
				desc = "no capture"
				break
			}
			rc := caps[c%len(caps)]
			// Where the capture was taken or installed, or anywhere.
			at := frame
			if i := b % (len(rc.sites) + 1); i < len(rc.sites) {
				at = rc.sites[i]
			}
			rs := []FrameRange{{Start: MFN(at), Count: uint64(len(rc.toks))}}
			if op == 10 {
				err := pm.InstallPages(rs, rc.p)
				desc, got, want = fmt.Sprintf("InstallPages(%v)", rs), err == nil, ref.install(at, rc)
				break
			}
			held, refHeld := pm.Holds(rs, rc.p), ref.holds(at, rc)
			desc, got, want = fmt.Sprintf("Holds(%v)", rs), held, refHeld
			if dedupped && held && !refHeld && ref.sameBytes(at, rc) {
				// A write of the captured bytes may re-share the captured
				// page through the intern table: held, and rightly so.
				want = true
			}
		case 12:
			if len(caps) > 0 {
				rc := caps[c%len(caps)]
				rc.p.Release()
				rc.live = false
			}
			desc = "Release"
		case 13:
			// An image of a quarter to all of its frames, short of a few
			// bytes or not, over one run or two: one of the payloads
			// Write lays, so dedup can find a filled page resident.
			rs := []FrameRange{{Start: MFN(frame), Count: uint64(1 + b%6)}}
			if c%4 == 3 {
				rs = append(rs, FrameRange{Start: MFN(a * 5), Count: uint64(1 + c%3)})
			}
			total := int(CountFrames(rs)) * PageSize4K
			img := bytes.Repeat([]byte{byte(c % 3)}, max(0, total*(1+c%4)/4-b%3*700))
			if c&8 != 0 {
				for k := 0; k < len(img); k += 512 {
					img[k] = byte(k / PageSize4K)
				}
			}
			err := pm.FillRanges(rs, len(img), func(b []byte) { copy(b, img) })
			desc, got, want = fmt.Sprintf("FillRanges(%v, %d)", rs, len(img)), err == nil, ref.fill(rs, img)
			dedupped = dedupped || pm.dedup
		case 14:
			// Into no buffer, one exactly large enough, or a larger one of
			// stale bytes: the result is the frames, in the buffer it fits.
			n := 1 + b%40
			var buf []byte
			switch c % 3 {
			case 1:
				buf = make([]byte, 0, n*PageSize4K)
			case 2:
				buf = bytes.Repeat([]byte{0xaa}, (n+1)*PageSize4K)
			}
			out, err := pm.ReadRanges([]FrameRange{{Start: MFN(frame), Count: uint64(n)}}, buf)
			refOut, ok := ref.read(frame, n)
			desc, got, want = fmt.Sprintf("ReadRanges(%d,%d)", frame, n), err == nil, ok
			if err == nil && ok && !bytes.Equal(out, refOut) {
				return fmt.Errorf("step %d: %s contents differ from reference", step, desc)
			}
			if err == nil && buf != nil && &out[:1][0] != &buf[:1][0] {
				return fmt.Errorf("step %d: %s allocated with a large enough buffer", step, desc)
			}
		case 15, 16, 17:
			// On the runs themselves: retag a run's middle, splitting it
			// in three; free a stretch at one of its edges; claim a gap
			// between two runs under the tag of the one before it, the
			// one after it (both merging with it) or another.
			runs := ref.runs()
			if len(runs) == 0 {
				desc = "no run"
				break
			}
			r := runs[a%len(runs)]
			n := r[1] - r[0]
			switch op {
			case 15:
				lo, hi := r[0]+n/3, r[1]-n/3
				err := pm.SetOwnerRanges([]FrameRange{{Start: MFN(lo), Count: uint64(hi - lo)}}, owner, vm)
				desc, got, want = fmt.Sprintf("SetOwnerRanges(%d,%d)", lo, hi-lo), err == nil, ref.setOwner(lo, hi-lo, owner, vm)
			case 16:
				k, lo := 1+b%n, r[0]
				if c%2 == 1 {
					lo = r[1] - k
				}
				err := pm.FreeRange(MFN(lo), uint64(k))
				desc, got, want = fmt.Sprintf("FreeRange(%d,%d)", lo, k), err == nil, ref.freeRange(lo, k)
			default:
				var gaps [][2]int
				for i := 1; i < len(runs); i++ {
					if runs[i-1][1] < runs[i][0] {
						gaps = append(gaps, [2]int{i - 1, i})
					}
				}
				if len(gaps) == 0 {
					desc = "no gap"
					break
				}
				g := gaps[a%len(gaps)]
				lo, hi := runs[g[0]][1], runs[g[1]][0]
				switch c % 3 {
				case 0:
					owner, vm = ref.owner[lo-1], ref.vm[lo-1]
				case 1:
					owner, vm = ref.owner[hi], ref.vm[hi]
				}
				err := pm.ClaimRange(MFN(lo), uint64(hi-lo), owner, vm)
				desc, got, want = fmt.Sprintf("ClaimRange(%d,%d)", lo, hi-lo), err == nil, ref.claim(lo, hi-lo, owner, vm)
			}
		case 18:
			// Up to one page more than the machine has chunks, so some
			// requests fail once part of them is found: those must leave
			// the machine, its cursor included, as it was.
			n, next := 1+b%4, pm.next
			rs, err := pm.AllocHuge(n, owner, vm, nil)
			var bases []MFN
			for _, r := range rs {
				for m := r.Start; m < r.End(); m += FramesPer2M {
					bases = append(bases, m)
				}
			}
			wantBases, ok := ref.allocHuge(n, owner, vm)
			desc, got, want = fmt.Sprintf("AllocHuge(%d)", n), fmt.Sprint(bases, err == nil), fmt.Sprint(wantBases, ok)
			if err != nil && pm.next != next {
				return fmt.Errorf("step %d: failed %s moved the cursor from %d to %d", step, desc, next, pm.next)
			}
		case 19:
			rs := modelRuns(frame, a, b, c)
			var idx []int
			var visited []int
			err := pm.ForEachTouched(rs, func(i uint64, off int, data []byte) error {
				m := frameAt(rs, int(i))
				frame := make([]byte, PageSize4K)
				copy(frame[off:], data)
				if m < 0 || !bytes.Equal(frame, ref.data[m]) {
					return fmt.Errorf("index %d (frame %d) contents differ (window [%d,+%d))", i, m, off, len(data))
				}
				idx, visited = append(idx, int(i)), append(visited, m)
				return nil
			})
			wantIdx, wantFrames, ok := ref.touched(rs)
			desc, got, want = fmt.Sprintf("ForEachTouched(%v)", rs), fmt.Sprint(idx, visited, err == nil), fmt.Sprint(wantIdx, wantFrames, ok)
		case 20:
			rs := modelRuns(frame, a, b, c)
			ws := modelWrites(rs, a, b, c)
			n, err := pm.WriteFrames(rs, ws)
			wantN := ref.writeFrames(rs, ws)
			desc, got, want = fmt.Sprintf("WriteFrames(%v, %d writes)", rs, len(ws)), fmt.Sprint(n, err == nil), fmt.Sprint(wantN, wantN == len(ws))
		}
		if got != want {
			return fmt.Errorf("step %d: %s = %v, reference %v", step, desc, got, want)
		}
		if err := modelCheck(pm, ref); err != nil {
			return fmt.Errorf("step %d after %s: %w", step, desc, err)
		}
		if err := checkCaptures(pm, caps); err != nil {
			return fmt.Errorf("step %d after %s: %w", step, desc, err)
		}
	}
	return nil
}

// modelOps is the opcode count modelRun decodes: op is the first byte of
// each step modulo it.
const modelOps = 21

// modelRuns is one to three runs from a step's arguments — unsorted,
// possibly overlapping, possibly reaching free frames or past memory —
// for the run-wise walk and the bulk write.
func modelRuns(frame, a, b, c int) []FrameRange {
	rs := []FrameRange{{Start: MFN(frame), Count: uint64(1 + (b*c)%(3*chunkFrames/2))}}
	if c%3 >= 1 {
		rs = append(rs, FrameRange{Start: MFN(a * 5), Count: uint64(1 + c)})
	}
	if c%3 == 2 {
		rs = append(rs, FrameRange{Start: MFN(b * 6), Count: uint64(1 + a)})
	}
	return rs
}

// modelWrites is a bulk write of one to eight writes into the runs rs:
// their indexes climb from b and wrap, so some go past rs and some repeat
// a frame; their payloads are Write's (step op 5): whole pages, short runs
// at an offset and prefixes at offset 0 of a few distinct fillers, so
// dedup finds identical pages; with c past 240, the last leaves its frame.
func modelWrites(rs []FrameRange, a, b, c int) []FrameWrite {
	total := int(CountFrames(rs))
	ws := make([]FrameWrite, 1+c%8)
	for k := range ws {
		data := bytes.Repeat([]byte{byte((c + k) % 3)}, PageSize4K)
		w := FrameWrite{Index: uint64((b + k*(1+a%5)) % (total + 2)), Data: data}
		switch (a + k) % 4 {
		case 1:
			w.Off, w.Data = (b*8+k*40)%(PageSize4K-16), data[:16]
		case 2:
			w.Data = append(data[:1+k*20], make([]byte, b)...)
		case 3:
			w.Off, w.Data = PageSize4K/2+b*4, data[:16] // past a prefix: the page regrows
		}
		ws[k] = w
	}
	if c > 240 {
		ws[len(ws)-1].Off = PageSize4K - 8
	}
	return ws
}

// TestPhysMemMatchesModel drives random operation sequences through
// PhysMem and the per-frame reference, with dedup on and off.
func TestPhysMemMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 24
	if testing.Short() {
		n = 10
	}
	for i := 0; i < n; i++ {
		ops := make([]byte, 4*(8+rng.Intn(40)))
		rng.Read(ops)
		for _, dedup := range []bool{false, true} {
			if err := modelRun(ops, dedup); err != nil {
				t.Fatalf("sequence %d (dedup %v) %x: %v", i, dedup, ops, err)
			}
		}
	}
}

// physMemOpsSeeds are hand-written sequences that reach the paths random
// bytes find slowly: whole-chunk claims, a wrap of the cursor, a wipe
// with a partial keep, dedup sharing and unsharing, prefix-sized pages,
// windows written at an offset, runs split and merged, huge pages taken
// in one call or refused whole.
func physMemOpsSeeds() [][]byte {
	return [][]byte{
		// Two huge pages, write into both, wipe keeping the first.
		{1, 0, 0, 1, 1, 0, 0, 2, 5, 0, 10, 3, 5, 2, 10, 3, 6, 0, 0, 0, 6, 0, 255, 1},
		// Small allocs, frees in the middle, refill past the wrap.
		{0, 0, 9, 7, 0, 0, 200, 9, 3, 0, 3, 1, 0, 0, 255, 255, 0, 0, 255, 251, 3, 1, 0, 250, 0, 0, 90, 5},
		// Claim across chunks, retag part, write identical pages, free.
		{2, 1, 144, 200, 4, 1, 200, 7, 5, 1, 150, 3, 5, 1, 160, 3, 5, 1, 150, 5, 3, 1, 144, 200},
		// Dedup toggled mid-sequence with shared pages resident.
		{0, 0, 4, 2, 5, 0, 0, 3, 5, 0, 0, 7, 7, 0, 0, 1, 5, 0, 1, 10, 7, 0, 0, 0, 5, 0, 2, 0, 6, 0, 0, 4},
		// Prefix-sized pages: short writes at offset 0, a write past the
		// prefix, all-zero writes and a write into their empty prefix, then
		// the same under dedup with a shared prefix page unshared and grown.
		{0, 0, 4, 2, 5, 0, 0, 130, 5, 0, 0, 193, 5, 0, 3, 129, 5, 0, 3, 131, 7, 0, 0, 0,
			5, 0, 5, 132, 5, 0, 6, 134, 5, 0, 7, 194, 5, 0, 6, 134, 6, 0, 2, 5},
		// SetOwnerRanges over two huge pages and a small run: the first run
		// splits a huge page's run, the second hits a free frame and fails, the
		// third is never applied; then one that succeeds, a write, a wipe.
		{1, 0, 0, 1, 1, 0, 0, 2, 0, 0, 9, 7, 8, 220, 10, 20, 8, 0, 10, 20, 5, 0, 12, 3, 6, 0, 12, 5},
		// Pages by reference: capture three written frames, install them
		// into untouched ones, write one (it unshares), write the captured
		// bytes back (under dedup the captured page is shared again), free
		// and reclaim the originals and install there, release, then wipe.
		{0, 0, 8, 2, 5, 0, 2, 2, 9, 0, 2, 0, 10, 0, 11, 0, 11, 0, 1, 0, 5, 0, 11, 1, 11, 0, 1, 0,
			5, 0, 11, 2, 11, 0, 1, 0, 11, 0, 0, 0, 3, 0, 2, 1, 11, 0, 0, 0, 2, 0, 2, 1, 10, 0, 0, 0,
			11, 0, 0, 0, 12, 0, 0, 0, 11, 0, 0, 0, 10, 0, 0, 0, 6, 0, 0, 0},
		// Windows: 16-byte writes at an offset into fresh frames, then a
		// write after, across the end of, around, before and across the
		// start of one; an all-zero write at an offset and a write over its
		// empty window. Then under dedup: four frames share one window,
		// are captured, and are written inside, before, across the end of
		// and after it, each unsharing the captured page; then a wipe.
		{0, 0, 60, 3, 5, 0, 10, 35, 5, 0, 10, 196, 5, 0, 11, 20, 5, 0, 12, 148,
			5, 0, 20, 20, 5, 0, 17, 35, 5, 0, 30, 40, 5, 0, 29, 25, 5, 0, 50, 60, 5, 0, 50, 100,
			7, 0, 0, 0, 5, 0, 100, 35, 9, 0, 100, 0, 5, 0, 100, 40, 5, 0, 98, 55, 5, 0, 101, 25,
			5, 0, 103, 196, 6, 0, 0, 0},
		// Filled images: fill three frames, fill them again (refused),
		// read two through a stale buffer, write inside a filled window;
		// then under dedup fill five zero frames and one more elsewhere,
		// capture across them, write two of them, read them back into no
		// buffer, and wipe.
		{0, 0, 20, 2, 13, 0, 2, 1, 13, 0, 2, 1, 14, 0, 1, 2, 5, 0, 3, 0,
			7, 0, 0, 0, 13, 0, 10, 3, 9, 0, 10, 0, 5, 0, 11, 1, 14, 0, 10, 0, 6, 0, 0, 0},
		// Runs split and merged: claim two runs of one tag with a gap
		// between them and bridge it under that tag (one run); retag its
		// middle (three); free the first's tail edge; bridge that gap under
		// the tag of the run after it (merging with it); write into the
		// merged run, then wipe everything.
		{2, 0, 10, 1, 2, 0, 30, 1, 17, 0, 0, 0, 15, 0, 0, 4, 16, 0, 3, 1, 17, 0, 0, 1,
			5, 0, 25, 1, 6, 0, 0, 1},
		// Huge pages in one call: one frame claimed in the middle chunk;
		// three pages, which the free frames hold and the two whole chunks
		// do not (refused after both are found, the cursor kept); a small
		// run from the cursor the refusal must not have moved; one page,
		// the last chunk; one more, refused with every chunk held; then,
		// after a wipe of everything, all three chunks as one run.
		{2, 2, 88, 0, 18, 0, 2, 1, 0, 0, 9, 7, 18, 0, 0, 1, 18, 0, 0, 2,
			6, 0, 0, 0, 18, 0, 2, 5},
		// By runs: two huge pages and writes into both; a walk of one run,
		// and of one reaching the free frames past the pages (refused); a
		// bulk write, and one whose second index is past its runs (it
		// stops there); under dedup a bulk write of identical pages over
		// written and regrown ones, and one whose last write leaves its
		// frame, each walked after; then a capture, a bulk write over it,
		// and a wipe.
		{1, 0, 0, 1, 1, 0, 0, 2, 5, 0, 10, 3, 5, 2, 10, 3, 19, 0, 2, 3, 19, 3, 232, 5,
			20, 0, 7, 4, 20, 2, 7, 1, 19, 0, 0, 0, 7, 0, 0, 0, 20, 3, 12, 9, 19, 0, 10, 6,
			20, 1, 9, 250, 19, 0, 9, 0, 9, 0, 10, 0, 20, 0, 10, 6, 11, 0, 0, 0, 6, 0, 0, 0},
	}
}

// TestOpModulusKeepsCheckedInSeeds: the walk and bulk-write ops widened
// the opcode modulus from 19 to 21; every step of every seed checked in
// before them decodes to the op it did under 19.
func TestOpModulusKeepsCheckedInSeeds(t *testing.T) {
	seeds := physMemOpsSeeds()
	for i, ops := range seeds[:len(seeds)-1] {
		for step := 0; 4*step+4 <= len(ops) && step < 96; step++ {
			if op := ops[4*step]; op%19 != op%modelOps {
				t.Errorf("seed-%02d step %d: opcode %d decodes to %d, was %d", i, step, op, op%modelOps, op%19)
			}
		}
	}
}

func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzPhysMemOps", physMemOpsSeeds()...)
}

// FuzzPhysMemOps: no operation sequence may make PhysMem and the
// per-frame reference disagree, with dedup on or off.
func FuzzPhysMemOps(f *testing.F) {
	for _, seed := range physMemOpsSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, dedup := range []bool{false, true} {
			if err := modelRun(ops, dedup); err != nil {
				t.Fatalf("dedup %v: %v", dedup, err)
			}
		}
	})
}
