// Package pram implements the PRAM structure of the paper (§4.2.2,
// Fig. 4): a persistent-over-kexec filesystem-like structure that records
// each VM's guest memory map so the target hypervisor can find and adopt
// Guest State after the micro-reboot.
//
// The structure is built from 4 KiB metadata pages written into simulated
// physical memory (owner tag hw.OwnerPRAM):
//
//	PRAM pointer ─→ root directory page ─→ (chain of root pages)
//	                  │ file pointers
//	                  ▼
//	                file info page (one per VM)
//	                  │ first-node pointer
//	                  ▼
//	                node page ─→ node page ─→ …
//	                  │ page entries (8 bytes each)
//
// Each page entry packs (GFN, MFN, order) into 8 bytes — the paper's
// "8-byte records for every VM's memory page" — which is what produces
// the Fig. 14 overhead numbers: 4 KiB of entries per GiB of 2 MiB-backed
// guest memory, plus three fixed metadata pages per structure/VM.
package pram

import (
	"encoding/binary"
	"fmt"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// Page-level layout constants.
const (
	rootMagic uint64 = 0x4d4152506f6f72 // "rooPRAM"
	fileMagic uint64 = 0x4d415250656c69 // "ilePRAM"
	nodeMagic uint64 = 0x4d415250646f6e // "nodPRAM"

	rootHeaderSize = 24 // magic, next, count
	nodeHeaderSize = 32 // magic, next, count, reserved
	// EntriesPerNode is how many 8-byte page entries fit in one node
	// page after its header.
	EntriesPerNode = (hw.PageSize4K - nodeHeaderSize) / 8
	// filePointersPerRoot is how many file-info pointers fit in one
	// root directory page.
	filePointersPerRoot = (hw.PageSize4K - rootHeaderSize) / 8

	// maxNameLen is the file (VM) name field width in a file info page.
	maxNameLen = 64
)

// Entry packing: order in the low 4 bits, then GFN/2^order in 28 bits,
// then MFN/2^order in the top 32 bits. Orders above 15 are rejected.
const (
	orderBits = 4
	gfnBits   = 28
	gfnShift  = orderBits
	mfnShift  = orderBits + gfnBits
)

func packEntry(e uisr.PageExtent) (uint64, error) {
	if e.Order >= 1<<orderBits {
		return 0, fmt.Errorf("pram: order %d too large", e.Order)
	}
	g := e.GFN >> e.Order
	m := e.MFN >> e.Order
	if g>>gfnBits != 0 {
		return 0, fmt.Errorf("pram: gfn %d does not fit entry encoding", e.GFN)
	}
	if m>>32 != 0 {
		return 0, fmt.Errorf("pram: mfn %d does not fit entry encoding", e.MFN)
	}
	if (e.GFN|e.MFN)&(e.Pages()-1) != 0 {
		return 0, fmt.Errorf("pram: extent gfn %d/mfn %d misaligned for order %d", e.GFN, e.MFN, e.Order)
	}
	return uint64(e.Order) | g<<gfnShift | m<<mfnShift, nil
}

func unpackEntry(raw uint64) uisr.PageExtent {
	order := uint8(raw & (1<<orderBits - 1))
	g := (raw >> gfnShift) & (1<<gfnBits - 1)
	m := raw >> mfnShift
	return uisr.PageExtent{GFN: g << order, MFN: m << order, Order: order}
}

// File is one VM's memory image as recorded in PRAM.
type File struct {
	Name    string
	VMID    uint32
	Extents uisr.MemMap
}

// Bytes returns the guest memory size the file covers.
func (f *File) Bytes() uint64 { return f.Extents.Pages() * hw.PageSize4K }

// Structure is a built PRAM instance resident in physical memory.
type Structure struct {
	// Pointer is the machine frame of the first root directory page —
	// the "PRAM pointer" handed to the target hypervisor on its boot
	// command line.
	Pointer hw.MFN
	// MetaFrames are all metadata frames, as runs in allocation order.
	MetaFrames []hw.FrameRange
	// Files are the recorded VM images.
	Files []File
	// ranges memoizes FrameRanges; populated by snapshot replay/capture.
	ranges []hw.FrameRange
}

// MetadataBytes returns the PRAM structure's own memory footprint — the
// quantity plotted in Fig. 14.
func (s *Structure) MetadataBytes() uint64 {
	return hw.CountFrames(s.MetaFrames) * hw.PageSize4K
}

// FrameRanges returns the frame runs that must survive the micro-reboot:
// the metadata pages and every guest frame the entries reference.
func (s *Structure) FrameRanges() []hw.FrameRange {
	if s.ranges != nil {
		return s.ranges
	}
	n := len(s.MetaFrames)
	for i := range s.Files {
		n += s.Files[i].Extents.Len()
	}
	out := append(make([]hw.FrameRange, 0, n), s.MetaFrames...)
	for _, f := range s.Files {
		for _, e := range f.Extents.Extents() {
			out = append(out, hw.FrameRange{Start: hw.MFN(e.MFN), Count: e.Pages()})
		}
	}
	return hw.MergeRanges(out)
}

// BuildOptions tune PRAM construction; the defaults match the paper's
// optimized configuration (§4.2.5).
type BuildOptions struct {
	// SplitHugePages disables the huge-page adaptation: order-9 extents
	// are recorded as 512 individual 4 KiB entries. Used by the
	// ablation experiments; costs ~512x metadata and parse time.
	SplitHugePages bool
	// Snapshot, when non-nil, memoizes the built structure per fileset:
	// a repeat build of an identical fileset that lands on the same
	// frames installs the cached metadata pages by reference instead of
	// re-serializing them. The result is byte-identical to a cold build.
	Snapshot *Snapshot
}

// Build serializes the memory maps of the given files into a PRAM
// structure in mem. Metadata frames are tagged hw.OwnerPRAM. The
// structure, and a snapshot, keep files: the caller must not modify them
// afterwards.
//
// The metadata pages are counted and their frames allocated in one call,
// then handed out and written in a fixed order (per file, node frames
// then the info page; then the root chain), which fixes every MFN.
func Build(mem *hw.PhysMem, files []File, opts BuildOptions) (*Structure, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("pram: no files to record")
	}
	var snapKey uint64
	if opts.Snapshot != nil {
		snapKey = filesKey(files, opts.SplitHugePages)
		if st, ok := opts.Snapshot.tryReplay(mem, files, snapKey); ok {
			return st, nil
		}
	}
	// Stage 1 — validate every file and count the metadata pages, so one
	// allocation claims them all, or none.
	nRoots := (len(files) + filePointersPerRoot - 1) / filePointersPerRoot
	total := nRoots
	for fi := range files {
		f := &files[fi]
		if len(f.Name) > maxNameLen {
			return nil, fmt.Errorf("pram: file name %q too long", f.Name)
		}
		entries := f.Extents.Len()
		if opts.SplitHugePages {
			entries = int(f.Bytes() / hw.PageSize4K)
		}
		if entries == 0 {
			return nil, fmt.Errorf("pram: file has no extents")
		}
		total += (entries+EntriesPerNode-1)/EntriesPerNode + 1
	}
	s := &Structure{}
	var err error
	if s.MetaFrames, err = mem.AllocRanges(total, hw.OwnerPRAM, -1); err != nil {
		return nil, err
	}
	// pages are the metadata frames in allocation order: per file its
	// node frames then its info page, then the root chain.
	pages := make([]hw.MFN, 0, total)
	for _, r := range s.MetaFrames {
		for m := r.Start; m < r.End(); m++ {
			pages = append(pages, m)
		}
	}
	roots := pages[total-nRoots:]

	// Stage 2 — write each already-placed page.
	infoPages := make([]hw.MFN, len(files))
	for fi := range files {
		f := &files[fi]
		extents := f.Extents.Extents()
		if opts.SplitHugePages {
			extents = splitExtents(f.Extents)
		}
		nNodes := (len(extents) + EntriesPerNode - 1) / EntriesPerNode
		nodes := pages[:nNodes]
		infoPages[fi], pages = pages[nNodes], pages[nNodes+1:]
		for ni, frame := range nodes {
			next := hw.MFN(0)
			if ni+1 < nNodes {
				next = nodes[ni+1]
			}
			lo := ni * EntriesPerNode
			if err := (pageJob{frame: frame, next: next, extents: extents[lo:min(lo+EntriesPerNode, len(extents))]}).write(mem); err != nil {
				return nil, err
			}
		}
		if err := (pageJob{frame: infoPages[fi], next: nodes[0], file: f, entries: len(extents)}).write(mem); err != nil {
			return nil, err
		}
	}
	for ri, root := range roots {
		next := hw.MFN(0)
		if ri+1 < len(roots) {
			next = roots[ri+1]
		}
		lo := ri * filePointersPerRoot
		if err := (pageJob{frame: root, next: next, infos: infoPages[lo:min(lo+filePointersPerRoot, len(infoPages))]}).write(mem); err != nil {
			return nil, err
		}
	}
	s.Pointer = roots[0]
	s.Files = files
	if opts.Snapshot != nil {
		opts.Snapshot.capture(mem, s, snapKey)
	}
	return s, nil
}

// Parse reconstructs a PRAM structure from physical memory starting at
// the PRAM pointer. This is what the target hypervisor runs during early
// boot (§4.2.4); it is strict because adopting a corrupt map would hand
// guests the wrong frames.
func Parse(mem *hw.PhysMem, pointer hw.MFN) (*Structure, error) {
	s := &Structure{Pointer: pointer}

	// Stage 1 — walk the root directory chain sequentially (it is a linked
	// list) and collect the file-info pointers per root page.
	type rootPage struct {
		frame hw.MFN
		infos []hw.MFN
	}
	var rootPages []rootPage
	seenRoots := map[hw.MFN]bool{}
	var scratch [hw.PageSize4K]byte
	page := scratch[:]
	root := pointer
	for root != 0 {
		if seenRoots[root] {
			return nil, fmt.Errorf("pram: metadata cycle at frame %#x", uint64(root))
		}
		seenRoots[root] = true
		if err := mem.ReadInto(root, 0, page); err != nil {
			return nil, fmt.Errorf("pram: root page: %w", err)
		}
		r := uisr.NewReader(page)
		magic, next := r.U64(), hw.MFN(r.U64())
		if magic != rootMagic {
			return nil, fmt.Errorf("pram: bad root magic at frame %#x", uint64(root))
		}
		count := r.U64()
		rp := rootPage{frame: root, infos: make([]hw.MFN, r.Count(count, filePointersPerRoot, 8))}
		if r.Err() != nil {
			return nil, fmt.Errorf("pram: root page count %d too large", count)
		}
		for i := range rp.infos {
			rp.infos[i] = hw.MFN(r.U64())
		}
		rootPages = append(rootPages, rp)
		root = next
	}

	// Stage 2 — parse every file: each walks only its own node chain.
	// Cycle detection within a chain is local; sharing of frames *across*
	// files is caught by the merge below, so a malformed file is reported
	// before any cross-file sharing.
	nFiles := 0
	for _, rp := range rootPages {
		nFiles += len(rp.infos)
	}
	type parsedFile struct {
		f     File
		nodes []hw.MFN
	}
	parsed := make([]parsedFile, 0, nFiles)
	for _, rp := range rootPages {
		for _, info := range rp.infos {
			f, nodes, err := parseFile(mem, info)
			if err != nil {
				return nil, err
			}
			parsed = append(parsed, parsedFile{f, nodes})
		}
	}

	// Stage 3 — merge in visit order (root, then per info: info page,
	// then its node chain), checking that no frame is used twice.
	nMeta := len(rootPages) + nFiles
	for i := range parsed {
		nMeta += len(parsed[i].nodes)
	}
	seen := make(map[hw.MFN]bool, nMeta)
	s.Files = make([]File, 0, nFiles)
	visit := func(m hw.MFN) error {
		if seen[m] {
			return fmt.Errorf("pram: metadata cycle at frame %#x", uint64(m))
		}
		seen[m] = true
		s.MetaFrames = hw.AppendRange(s.MetaFrames, hw.FrameRange{Start: m, Count: 1})
		return nil
	}
	idx := 0
	for _, rp := range rootPages {
		if err := visit(rp.frame); err != nil {
			return nil, err
		}
		for _, info := range rp.infos {
			if err := visit(info); err != nil {
				return nil, err
			}
			p := parsed[idx]
			idx++
			for _, n := range p.nodes {
				if err := visit(n); err != nil {
					return nil, err
				}
			}
			s.Files = append(s.Files, p.f)
		}
	}
	if len(s.Files) == 0 {
		return nil, fmt.Errorf("pram: structure records no files")
	}
	return s, nil
}

// Release frees all metadata frames: step ❼ of Fig. 3, returning the
// ephemeral memory after resume.
func (s *Structure) Release(mem *hw.PhysMem) error {
	if err := mem.FreeRanges(s.MetaFrames); err != nil {
		return err
	}
	s.MetaFrames = nil
	return nil
}

// --- page writers ------------------------------------------------------------

// pageJob is one placed metadata page: a node page (extents, next the
// next node), a file info page (file, next its first node) or a root
// page (infos, next the next root).
type pageJob struct {
	frame, next hw.MFN
	extents     []uisr.PageExtent
	file        *File
	entries     int
	infos       []hw.MFN
}

// write serializes the page: every kind opens with magic, next and a
// count, and only the bytes it uses are written.
func (j pageJob) write(mem *hw.PhysMem) error {
	var page [hw.PageSize4K]byte
	le := binary.LittleEndian
	le.PutUint64(page[8:], uint64(j.next))
	var used int
	switch {
	case j.file != nil:
		le.PutUint64(page[0:], fileMagic)
		le.PutUint64(page[16:], uint64(j.entries))
		le.PutUint64(page[24:], j.file.Bytes())
		le.PutUint32(page[32:], j.file.VMID)
		le.PutUint32(page[36:], uint32(len(j.file.Name)))
		used = 40 + copy(page[40:40+maxNameLen], j.file.Name)
	case j.infos != nil:
		le.PutUint64(page[0:], rootMagic)
		le.PutUint64(page[16:], uint64(len(j.infos)))
		for i, m := range j.infos {
			le.PutUint64(page[rootHeaderSize+8*i:], uint64(m))
		}
		used = rootHeaderSize + 8*len(j.infos)
	default:
		le.PutUint64(page[0:], nodeMagic)
		le.PutUint64(page[16:], uint64(len(j.extents)))
		for i, e := range j.extents {
			raw, err := packEntry(e)
			if err != nil {
				return err
			}
			le.PutUint64(page[nodeHeaderSize+8*i:], raw)
		}
		used = nodeHeaderSize + 8*len(j.extents)
	}
	return mem.Write(j.frame, 0, page[:used])
}

// parseFile reads one file-info page and walks its node chain, returning
// the file and the node frames in chain order.
func parseFile(mem *hw.PhysMem, info hw.MFN) (f File, nodes []hw.MFN, err error) {
	// One scratch page serves the whole chain: everything a page holds is
	// copied out before the next one is read.
	var scratch [hw.PageSize4K]byte
	page := scratch[:]
	if err := mem.ReadInto(info, 0, page); err != nil {
		return f, nil, fmt.Errorf("pram: file info page: %w", err)
	}
	r := uisr.NewReader(page)
	if r.U64() != fileMagic {
		return f, nil, fmt.Errorf("pram: bad file magic at frame %#x", uint64(info))
	}
	node, wantEntries, wantBytes := hw.MFN(r.U64()), r.U64(), r.U64()
	f.VMID = r.U32()
	nameLen := r.U32()
	if f.Name = string(r.Bytes(r.Count(uint64(nameLen), maxNameLen, 1))); r.Err() != nil {
		return f, nil, fmt.Errorf("pram: file name length %d too large", nameLen)
	}
	// The info page records the entry count, so the extents and the node
	// list are sized once — after the count is checked against the
	// machine: every entry maps at least one frame of it.
	if wantEntries > mem.TotalFrames() {
		return f, nil, fmt.Errorf("pram: file %q claims %d entries on a machine of %d frames",
			f.Name, wantEntries, mem.TotalFrames())
	}
	extents := make([]uisr.PageExtent, 0, wantEntries)
	nodes = make([]hw.MFN, 0, (wantEntries+EntriesPerNode-1)/EntriesPerNode)

	local := map[hw.MFN]bool{}
	for node != 0 {
		if local[node] {
			return f, nil, fmt.Errorf("pram: metadata cycle at frame %#x", uint64(node))
		}
		local[node] = true
		nodes = append(nodes, node)
		if err := mem.ReadInto(node, 0, page); err != nil {
			return f, nil, fmt.Errorf("pram: node page: %w", err)
		}
		r := uisr.NewReader(page)
		if r.U64() != nodeMagic {
			return f, nil, fmt.Errorf("pram: bad node magic at frame %#x", uint64(node))
		}
		next, count := hw.MFN(r.U64()), r.U64()
		r.U64() // reserved
		n := r.Count(count, EntriesPerNode, 8)
		if r.Err() != nil {
			return f, nil, fmt.Errorf("pram: node entry count %d too large", count)
		}
		for range n {
			extents = append(extents, unpackEntry(r.U64()))
		}
		node = next
	}
	if uint64(len(extents)) != wantEntries {
		return f, nil, fmt.Errorf("pram: file %q has %d entries, info page says %d",
			f.Name, len(extents), wantEntries)
	}
	f.Extents = uisr.NewMemMap(extents)
	if f.Bytes() != wantBytes {
		return f, nil, fmt.Errorf("pram: file %q covers %d bytes, info page says %d",
			f.Name, f.Bytes(), wantBytes)
	}
	return f, nodes, nil
}

// splitExtents expands huge extents into order-0 entries (the
// non-huge-page ablation).
func splitExtents(in uisr.MemMap) []uisr.PageExtent {
	out := make([]uisr.PageExtent, 0, in.Pages())
	for _, e := range in.Extents() {
		if e.Order == 0 {
			out = append(out, e)
			continue
		}
		for p := uint64(0); p < e.Pages(); p++ {
			out = append(out, uisr.PageExtent{GFN: e.GFN + p, MFN: e.MFN + p, Order: 0})
		}
	}
	return out
}
