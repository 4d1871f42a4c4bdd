package pram

import (
	"slices"
	"sync"

	"hypertp/internal/hw"
)

// Snapshot memoizes built PRAM structures for repeat transplants of the
// same host. A structure's metadata pages are a pure function of the
// fileset (names, VM ids, extents) and the frames the builder was
// handed, so when the same fileset comes back — the steady state of a
// fleet ping-ponging between two hypervisor kinds — and the allocator
// hands back the same frames, the cached page images can be written
// directly, skipping layout and serialization. If the frames differ the
// replay is abandoned and the cold builder runs; the result is
// byte-identical either way.
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
	hits    uint64
	misses  uint64
}

type snapEntry struct {
	metaFrames []hw.FrameRange
	pointer    hw.MFN
	image      []byte // the metadata pages' contents, in metaFrames order
	ranges     []hw.FrameRange
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

// filesKey fingerprints a fileset (plus the layout-changing option) for
// snapshot lookup. A 64-bit mix over every field that reaches the
// serialized pages; extents fold in independent GFN/MFN/order lanes.
func filesKey(files []File, split bool) uint64 {
	const seed = 0x9e3779b97f4a7c15
	mix := func(h, v uint64) uint64 {
		h ^= v + seed + (h << 12) + (h >> 4)
		return h * 0xff51afd7ed558ccd
	}
	h := uint64(seed)
	if split {
		h = mix(h, 1)
	}
	h = mix(h, uint64(len(files)))
	for i := range files {
		f := &files[i]
		h = mix(h, uint64(len(f.Name)))
		for j := 0; j < len(f.Name); j++ {
			h = mix(h, uint64(f.Name[j]))
		}
		h = mix(mix(h, uint64(f.VMID)), uint64(len(f.Extents)))
		g, m, o := uint64(seed), uint64(seed), uint64(seed)
		for _, e := range f.Extents {
			g, m, o = mix(g, e.GFN), mix(m, e.MFN), mix(o, uint64(e.Order))
		}
		h = mix(mix(mix(h, g), m), o)
	}
	return h
}

// tryReplay attempts to satisfy a Build from the snapshot by claiming
// the exact frames the cached build occupied — the structure pages were
// released after the last handover, so in steady state they are free
// again even though the bump cursor has long moved past them. It returns
// (structure, true) on success; (nil, false) falls back to the cold
// builder. If any cached frame is occupied the claim is undone and the
// replay reported as a miss — the cached images embed these frames'
// addresses, so they cannot be relocated.
func (s *Snapshot) tryReplay(mem *hw.PhysMem, files []File, key uint64) (*Structure, bool) {
	s.mu.Lock()
	e := s.entries[key]
	if e == nil {
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	s.mu.Unlock()
	for i, r := range e.metaFrames {
		if err := mem.ClaimRange(r.Start, r.Count, hw.OwnerPRAM, -1); err != nil {
			_ = mem.FreeRanges(e.metaFrames[:i])
			s.mu.Lock()
			s.misses++
			s.mu.Unlock()
			return nil, false
		}
	}
	if err := mem.WriteRanges(e.metaFrames, e.image); err != nil {
		return nil, false
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return &Structure{
		Pointer:    e.pointer,
		MetaFrames: slices.Clone(e.metaFrames),
		Files:      files,
		ranges:     e.ranges,
	}, true
}

// capture records a cold build's result: the metadata page images are
// read back from memory (they were just written, so this is the exact
// byte content a replay will reproduce) along with the preserve ranges.
func (s *Snapshot) capture(mem *hw.PhysMem, st *Structure, key uint64) {
	image, err := mem.ReadRanges(st.MetaFrames)
	if err != nil {
		return
	}
	e := &snapEntry{
		metaFrames: slices.Clone(st.MetaFrames),
		pointer:    st.Pointer,
		image:      image,
		ranges:     st.FrameRanges(),
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, exists := s.entries[key]; !exists {
		s.order = append(s.order, key)
		if len(s.order) > maxSnapshotEntries {
			delete(s.entries, s.order[0])
			s.order = s.order[1:]
		}
	}
	s.entries[key] = e
}
