package pram

import (
	"slices"
	"sync"

	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// Snapshot memoizes built PRAM structures for repeat transplants of the
// same host. A structure's metadata pages are a pure function of the
// fileset (names, VM ids, extents) and the frames the builder was
// handed, so when the same fileset comes back — the steady state of a
// fleet ping-ponging between two hypervisor kinds — and the allocator
// hands back the same frames, the cached pages are installed directly,
// skipping layout and serialization. If the frames differ the replay is
// abandoned and the cold builder runs; the result is byte-identical
// either way.
//
// An entry is found by a 64-bit key (filesKey) but installed only for
// the fileset it was built from: a key collision is a miss. Maps are
// immutable (uisr.MemMap), so the entry's own map is equal without a
// read; an equal map held elsewhere is compared once and adopted, and the
// parse memo hands the target the entry's maps, so in steady state no
// extent is read.
//
// The cached pages are held by reference (hw.Pages), not as a copy: a
// replay installs the very pages the cold build wrote, shared
// copy-on-write, so a later write to a replayed frame unshares it and the
// capture stays what the cold build wrote. That makes page identity a
// proof of byte identity, which the parse memo (Parse) rests on: a
// structure whose frames still hold the captured pages parses to what
// those pages parsed to the first time.
//
// Snapshots only skip wall-clock work. Virtual-time PRAM costs are
// charged by the engine from the cost model and are identical with or
// without a snapshot.
//
// A warm host still misses now and then: the kexec image is staged at the
// bump cursor before PRAM is built (Fig. 3 ❶), and as the cursor sweeps
// the machine it lands on frames a cached structure occupied. That build
// runs cold, the UISR blobs then find cached frames taken, and the build
// carrying them misses once more with a changed fileset. Staging the image
// elsewhere would move frames, and with them every digest.
type Snapshot struct {
	mu      sync.Mutex
	entries map[uint64]*snapEntry
	order   []uint64 // insertion order, for bounded eviction

	hits, misses, parseHits, extentReads uint64
}

type snapEntry struct {
	files      []File // built from, or the latest equal fileset replayed
	metaFrames []hw.FrameRange
	pointer    hw.MFN
	pages      hw.Pages // the metadata pages, in metaFrames order
	ranges     []hw.FrameRange
	// parsedFrames and parsed are what a cold Parse of exactly pages at
	// metaFrames returned; parsed is nil until the first Parse.
	parsedFrames []hw.FrameRange
	parsed       []File
}

// maxSnapshotEntries bounds one machine's cached structures: a host in
// steady state cycles between two filesets (memory maps only, then
// memory maps + UISR blobs, per direction).
const maxSnapshotEntries = 8

// NewSnapshot creates an empty PRAM build snapshot.
func NewSnapshot() *Snapshot {
	return &Snapshot{entries: make(map[uint64]*snapEntry)}
}

// Stats reports how many Build calls replayed a cached structure vs
// built cold.
func (s *Snapshot) Stats() (hits, misses uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hits, s.misses
}

// ParseHits reports how many Parse calls the memo answered.
func (s *Snapshot) ParseHits() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.parseHits
}

// ExtentReads reports how many extents replays and parse memos read to
// prove a memory map equal to an entry's: 0 while every map they meet is
// an entry's own.
func (s *Snapshot) ExtentReads() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.extentReads
}

// filesKey fingerprints a fileset (plus the layout-changing option) for
// snapshot lookup: a 64-bit mix over every field that reaches the
// serialized pages, each map by the fingerprint it was built with, so it
// costs O(files) and reads no extent.
func filesKey(files []File, split bool) uint64 {
	h := uint64(0x9e3779b97f4a7c15)
	if split {
		h = uisr.Mix(h, 1)
	}
	h = uisr.Mix(h, uint64(len(files)))
	for i := range files {
		f := &files[i]
		h = uisr.Mix(h, uint64(len(f.Name)))
		for j := 0; j < len(f.Name); j++ {
			h = uisr.Mix(h, uint64(f.Name[j]))
		}
		h = uisr.Mix(uisr.Mix(h, uint64(f.VMID)), f.Extents.Fingerprint())
	}
	return h
}

// sameMap reports whether a and b are equal maps, counting the extents
// read to tell: none when they share one backing array. s.mu held.
func (s *Snapshot) sameMap(a, b uisr.MemMap) bool {
	if a.Same(b) {
		return true
	}
	if a.Len() != b.Len() || a.Fingerprint() != b.Fingerprint() {
		return false
	}
	s.extentReads += uint64(a.Len())
	return slices.Equal(a.Extents(), b.Extents())
}

// builtFrom reports whether e was built from files, and if so adopts
// them. s.mu held.
func (s *Snapshot) builtFrom(e *snapEntry, files []File) bool {
	if len(files) != len(e.files) {
		return false
	}
	for i := range files {
		f, g := &files[i], &e.files[i]
		if f.Name != g.Name || f.VMID != g.VMID || !s.sameMap(f.Extents, g.Extents) {
			return false
		}
	}
	e.files = files
	return true
}

// tryReplay attempts to satisfy a Build from the snapshot by claiming
// the exact frames the cached build occupied — the structure pages were
// released after the last handover, so in steady state they are free
// again even though the bump cursor has long moved past them — and
// installing the captured pages into them. It returns (structure, true)
// on success; (nil, false) falls back to the cold builder. If any cached
// frame is occupied, or the install fails, the claim is undone and the
// replay reported as a miss — the cached pages embed these frames'
// addresses, so they cannot be relocated.
func (s *Snapshot) tryReplay(mem *hw.PhysMem, files []File, key uint64) (*Structure, bool) {
	s.mu.Lock()
	e := s.entries[key]
	if e != nil && !s.builtFrom(e, files) {
		e = nil
	}
	s.mu.Unlock()
	ok := e != nil && s.install(mem, e)
	s.mu.Lock()
	if ok {
		s.hits++
	} else {
		s.misses++
	}
	s.mu.Unlock()
	if !ok {
		return nil, false
	}
	return &Structure{
		Pointer:    e.pointer,
		MetaFrames: slices.Clone(e.metaFrames),
		Files:      files,
		ranges:     e.ranges,
	}, true
}

// install claims entry e's frames and installs its pages into them, all
// or nothing.
func (s *Snapshot) install(mem *hw.PhysMem, e *snapEntry) bool {
	if mem.ClaimRanges(e.metaFrames, hw.OwnerPRAM, -1) != nil {
		return false
	}
	if err := mem.InstallPages(e.metaFrames, e.pages); err != nil {
		_ = mem.FreeRanges(e.metaFrames)
		return false
	}
	return true
}

// capture records a cold build's result: the metadata pages, captured by
// reference (they were just written, so this is the exact content a
// replay will reproduce), along with the preserve ranges. An entry it
// replaces or evicts releases its capture.
func (s *Snapshot) capture(mem *hw.PhysMem, st *Structure, key uint64) {
	pages, err := mem.SharePages(st.MetaFrames)
	if err != nil {
		return
	}
	st.ranges = st.FrameRanges()
	e := &snapEntry{
		files:      st.Files,
		metaFrames: slices.Clone(st.MetaFrames),
		pointer:    st.Pointer,
		pages:      pages,
		ranges:     st.ranges,
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, exists := s.entries[key]; exists {
		old.pages.Release()
	} else {
		s.order = append(s.order, key)
		if len(s.order) > maxSnapshotEntries {
			s.entries[s.order[0]].pages.Release()
			delete(s.entries, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.entries[key] = e
}

// Parse is pram.Parse with a memo keyed by page identity: when the
// frames of a cached structure at pointer still hold the pages its
// capture took, the structure parses to what a cold Parse of those pages
// returned the first time, and that is returned without reading a page.
// Identity implies identical bytes (see Snapshot), so no hash is needed;
// a flipped bit, a rewritten frame or a freed frame breaks it, and the
// cold Parse runs, with every check it makes. The returned Structure is
// fresh, but a memo hit shares its MetaFrames and Files slices with the
// memo: callers must not modify them. A memoized file whose map equals
// the one the entry was built from holds that map, so a warm target
// adopts the map its source built from. A nil snapshot is plain Parse.
func (s *Snapshot) Parse(mem *hw.PhysMem, pointer hw.MFN) (*Structure, error) {
	if s == nil {
		return Parse(mem, pointer)
	}
	s.mu.Lock()
	e := s.heldAt(mem, pointer)
	if e != nil && e.parsed != nil {
		s.parseHits++
		s.mu.Unlock()
		return &Structure{Pointer: pointer, MetaFrames: e.parsedFrames, Files: e.parsed}, nil
	}
	s.mu.Unlock()
	st, err := Parse(mem, pointer)
	// The memo stands only for a parse that read exactly the captured
	// frames: its result is a function of their bytes alone.
	if err != nil || e == nil || !hw.SameFrames(st.MetaFrames, e.metaFrames) {
		return st, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// Memoize only if the pages are still the capture's, so that what the
	// parse read is them even if another goroutine wrote a frame meanwhile.
	if s.heldAt(mem, pointer) == e {
		for i := range min(len(st.Files), len(e.files)) {
			if s.sameMap(st.Files[i].Extents, e.files[i].Extents) {
				st.Files[i].Extents = e.files[i].Extents
			}
		}
		e.parsedFrames, e.parsed = st.MetaFrames, st.Files
	}
	return st, nil
}

// heldAt returns the entry whose structure starts at pointer and whose
// frames mem holds the captured pages of, or nil. s.mu held.
func (s *Snapshot) heldAt(mem *hw.PhysMem, pointer hw.MFN) *snapEntry {
	for _, key := range s.order {
		if e := s.entries[key]; e.pointer == pointer && mem.Holds(e.metaFrames, e.pages) {
			return e
		}
	}
	return nil
}
