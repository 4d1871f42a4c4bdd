// Package tpcache is the transplant cache: the warm-path subsystem that
// makes repeat transplants cheap. It memoizes the three expensive
// wall-clock products of the InPlaceTP workflow —
//
//   - encoded UISR translation blobs, keyed by (source kind, VM state
//     fingerprint), so a host ping-ponging between hypervisor kinds
//     stops re-walking and re-encoding identical platform state;
//   - each blob's image in preserved RAM, captured by reference where it
//     re-landed, so a repeat landing installs the captured pages instead
//     of writing the image (InstallBlob), and the target's decode of
//     frames that still hold them returns the memoized VM state
//     (DecodedBlob);
//   - built PRAM metadata structures, via pram.Snapshot, so repeat
//     builds of an identical fileset install the cached pages by
//     reference, and the target's parse of a structure whose frames
//     still hold them returns the memoized result.
//
// Page identity proves byte identity, since a captured page is never
// written in place (hw.Pages): a flipped bit, a rewrite or a freed frame
// misses, and the cold read, parse or decode runs with all its checks.
//
// The cache is deterministic by construction: a hit returns the exact
// bytes a cold run would produce (fingerprints chain through the blobs
// themselves — see the fingerprint notes on RecordRestore), and virtual
// time is charged by the engine identically on hit and miss. Caching is
// therefore invisible in reports, guest checksums, and span trees; only
// wall-clock time and the hit counters change.
//
// A nil *Cache disables caching everywhere it is consulted.
package tpcache

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"slices"
	"sync"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/pram"
	"hypertp/internal/uisr"
)

// Stats is a point-in-time census of cache effectiveness.
type Stats struct {
	// Hits and Misses count translation-cache lookups by outcome.
	Hits, Misses uint64
	// Stale counts entries poisoned by the cache.stale fault site and
	// discarded at lookup.
	Stale uint64
	// PRAMHits and PRAMMisses count PRAM snapshot replays vs cold
	// builds, and PRAMParseHits the PRAM parses its memo answered.
	PRAMHits, PRAMMisses, PRAMParseHits uint64
	// BlobInstalls counts blob landings served by installing a captured
	// image, and BlobDecodeHits the blob decodes the memo answered.
	BlobInstalls, BlobDecodeHits uint64
}

// String renders the census compactly.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (ratio %.2f) stale=%d pram=%d/%d",
		s.Hits, s.Misses, s.HitRatio(), s.Stale, s.PRAMHits, s.PRAMHits+s.PRAMMisses)
}

// Sub returns the counter deltas since prev — the activity of one
// window (e.g. one transplant cycle) on a long-lived cache.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		Stale:      s.Stale - prev.Stale,
		PRAMHits:   s.PRAMHits - prev.PRAMHits,
		PRAMMisses: s.PRAMMisses - prev.PRAMMisses,

		PRAMParseHits:  s.PRAMParseHits - prev.PRAMParseHits,
		BlobInstalls:   s.BlobInstalls - prev.BlobInstalls,
		BlobDecodeHits: s.BlobDecodeHits - prev.BlobDecodeHits,
	}
}

// HitRatio returns hits over lookups (0 when there were none).
func (s Stats) HitRatio() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

type blobKey struct {
	kind hv.Kind
	fp   uint64
}

type blobEntry struct {
	blob []byte
	hash uint64
}

// machineFPs tracks the VM-state fingerprints of one machine's current
// boot generation. A generation bump (micro-reboot) invalidates all of
// them at once.
type machineFPs struct {
	gen  int
	byVM map[hv.VMID]uint64
}

// maxBlobEntries bounds the translation cache; in steady state a
// ping-ponging host needs two entries per VM (one per direction), so
// this is far above any fleet this simulation runs — it exists to keep
// long chaos soaks from growing without bound. Eviction is FIFO in
// insertion order, which is deterministic.
const maxBlobEntries = 4096

// Cache is a shared transplant cache. One Cache may serve many engines
// and machines (the fleet case); all methods are safe for concurrent
// use.
type Cache struct {
	mu     sync.Mutex
	blobs  map[blobKey]*blobEntry
	order  []blobKey
	fps    map[*hw.Machine]*machineFPs
	snaps  map[*hw.Machine]*pram.Snapshot
	places map[*hw.Machine]*blobPlaces
	stats  Stats
}

// blobPlaces remembers where each blob (by content hash) last landed in
// one machine's physical memory, so a repeat transplant can land it at
// the same frames — which keeps the PRAM fileset byte-stable and lets
// the pram.Snapshot replay fire.
type blobPlaces struct {
	byHash map[uint64]blobPlace
	order  []uint64
}

// blobPlace is one blob's place on one machine. Once the blob has landed
// at the same frames twice, image holds the pages it was written to
// there, extents those frames as the blob file's memory map (boxed, so a
// place fits its map unboxed), and state, once the target has decoded
// them, what they decode to; all are of blob, and go together.
type blobPlace struct {
	frames  []hw.FrameRange
	blob    []byte
	image   hw.Pages
	extents *uisr.MemMap
	state   *uisr.VMState
}

// forget drops the place's capture and what was derived from it.
func (p *blobPlace) forget() {
	p.image.Release()
	p.blob, p.extents, p.state = nil, nil, nil
}

// New creates an empty transplant cache.
func New() *Cache {
	return &Cache{
		blobs:  make(map[blobKey]*blobEntry),
		fps:    make(map[*hw.Machine]*machineFPs),
		snaps:  make(map[*hw.Machine]*pram.Snapshot),
		places: make(map[*hw.Machine]*blobPlaces),
	}
}

var crcTable = crc64.MakeTable(crc64.ECMA)

// BlobHash fingerprints an encoded UISR blob.
func BlobHash(blob []byte) uint64 {
	return crc64.Checksum(blob, crcTable) ^ uint64(len(blob))<<32
}

// fingerprint derives the state fingerprint of a VM restored from (or,
// for the tag "fresh", first saved as) the blob with the given hash.
func fingerprint(tag uint64, kind hv.Kind, id hv.VMID, blobHash uint64) uint64 {
	h := uisr.Mix(tag, uint64(kind))
	h = uisr.Mix(h, uint64(id))
	return uisr.Mix(h, blobHash)
}

const (
	tagFresh    = 0xf4e5
	tagRestored = 0x4e57
)

func (c *Cache) ensureFPs(m *hw.Machine, gen int) *machineFPs {
	e := c.fps[m]
	if e == nil || e.gen != gen {
		e = &machineFPs{gen: gen, byVM: make(map[hv.VMID]uint64)}
		c.fps[m] = e
	}
	return e
}

// LookupTranslation returns the cached UISR blob for VM id on machine m
// at boot generation gen, if its state fingerprint is known and an
// encoding of that exact state is cached.
func (c *Cache) LookupTranslation(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID) (blob []byte, blobHash uint64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.fps[m]
	if e == nil || e.gen != gen {
		c.stats.Misses++
		return nil, 0, false
	}
	fp, known := e.byVM[id]
	if !known {
		c.stats.Misses++
		return nil, 0, false
	}
	be := c.blobs[blobKey{kind, fp}]
	if be == nil {
		c.stats.Misses++
		return nil, 0, false
	}
	c.stats.Hits++
	return be.blob, be.hash, true
}

// StoreTranslation records a freshly encoded blob under the VM's current
// fingerprint (deriving and recording a fresh-state fingerprint when
// none is known), and returns the blob's hash.
func (c *Cache) StoreTranslation(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID, blob []byte) uint64 {
	h := BlobHash(blob)
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ensureFPs(m, gen)
	fp, known := e.byVM[id]
	if !known {
		fp = fingerprint(tagFresh, kind, id, h)
		e.byVM[id] = fp
	}
	key := blobKey{kind, fp}
	if c.blobs[key] == nil {
		c.order = append(c.order, key)
		if len(c.order) > maxBlobEntries {
			delete(c.blobs, c.order[0])
			c.order = c.order[1:]
		}
	}
	c.blobs[key] = &blobEntry{blob: blob, hash: h}
	return h
}

// RecordRestore chains the fingerprint forward: the VM restored as
// newID on machine m (now at boot generation gen) carries exactly the
// platform state encoded in the blob with hash blobHash, so its next
// save under any source kind is keyed by a fingerprint derived from
// that hash. After one ping-pong cycle the save∘restore chain reaches a
// fixed point and every subsequent lookup hits. The fingerprint is a
// pure function of blob content and restore identity — independent of
// wall clock, worker count, and fault seed — which is what makes cached
// and cold runs byte-identical.
func (c *Cache) RecordRestore(target hv.Kind, m *hw.Machine, gen int, newID hv.VMID, blobHash uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.ensureFPs(m, gen)
	e.byVM[newID] = fingerprint(tagRestored, target, newID, blobHash)
}

// Invalidate poisons the cached translation for VM id: the blob entry is
// dropped (the fingerprint survives, so the next cold save re-populates
// it). This is the cache.stale fault-injection hook.
func (c *Cache) Invalidate(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.fps[m]
	if e == nil || e.gen != gen {
		return
	}
	fp, known := e.byVM[id]
	if !known {
		return
	}
	key := blobKey{kind, fp}
	if c.blobs[key] == nil {
		return
	}
	delete(c.blobs, key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.stats.Stale++
}

// placeLocked returns the place of the blob with the given content hash
// on machine m, the zero place if unknown. c.mu held.
func (c *Cache) placeLocked(m *hw.Machine, hash uint64) blobPlace {
	if ps := c.places[m]; ps != nil {
		return ps.byHash[hash]
	}
	return blobPlace{}
}

// BlobFrames returns the frames the blob with the given content hash
// occupied the last time it was written into machine m's memory, or nil
// if unknown or c is nil.
func (c *Cache) BlobFrames(m *hw.Machine, hash uint64) []hw.FrameRange {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.placeLocked(m, hash).frames
}

// SetBlobFrames records that blob, whose content hash is hash, was
// written at frames on machine m. A blob written again at the frames
// remembered for it is captured there — the frames' pages taken by
// reference, not a byte copied — for InstallBlob to land from then on;
// a first landing only remembers the frames. A nil c records nothing.
func (c *Cache) SetBlobFrames(m *hw.Machine, hash uint64, blob []byte, frames []hw.FrameRange) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	ps := c.places[m]
	if ps == nil {
		ps = &blobPlaces{byHash: make(map[uint64]blobPlace)}
		c.places[m] = ps
	}
	p, known := ps.byHash[hash]
	if !known {
		ps.order = append(ps.order, hash)
		if len(ps.order) > maxBlobEntries {
			old := ps.byHash[ps.order[0]]
			old.forget()
			delete(ps.byHash, ps.order[0])
			ps.order = ps.order[1:]
		}
	} else if hw.SameFrames(frames, p.frames) {
		if image, err := m.Mem.SharePages(frames); err == nil {
			p.forget()
			p.blob, p.image = blob, image
		}
	}
	// A capture lands wherever the blob's frames are now.
	if p.blob != nil && (p.extents == nil || !hw.SameFrames(frames, p.frames)) {
		extents := hv.FrameExtents(frames)
		p.extents = &extents
	}
	p.frames = slices.Clone(frames)
	ps.byHash[hash] = p
}

// InstallBlob lands blob, whose content hash is hash, in machine m's
// memory by reference: if its image was captured (SetBlobFrames), it
// claims the remembered frames for PRAM and installs the captured pages
// there, all or nothing, and returns the frames, which the caller must
// not modify, and the memory map of them the capture holds
// (hv.FrameExtents), one map for every install. It returns nil frames,
// with nothing claimed, when there is no capture of these bytes, a frame
// is taken or c is nil: the caller writes the image itself.
func (c *Cache) InstallBlob(m *hw.Machine, hash uint64, blob []byte) ([]hw.FrameRange, uisr.MemMap) {
	if c == nil {
		return nil, uisr.MemMap{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.placeLocked(m, hash)
	if p.blob == nil || !bytes.Equal(p.blob, blob) || m.Mem.ClaimRanges(p.frames, hw.OwnerPRAM, -1) != nil {
		return nil, uisr.MemMap{}
	}
	if m.Mem.InstallPages(p.frames, p.image) != nil {
		_ = m.Mem.FreeRanges(p.frames)
		return nil, uisr.MemMap{}
	}
	c.stats.BlobInstalls++
	return p.frames, *p.extents
}

// DecodedBlob answers the decode of the blob image at frames on machine
// m from the memo: when frames hold the captured image of the blob with
// content hash hash, and that image has been decoded before, it returns
// a copy of the state — top-level fields the caller's, slices shared with
// the memo and read-only. On a miss it returns nil, and held reports
// whether frames hold the capture, which SetDecodedBlob needs. A nil
// cache always misses.
func (c *Cache) DecodedBlob(m *hw.Machine, hash uint64, frames []hw.FrameRange) (st *uisr.VMState, held bool) {
	if c == nil {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.placeLocked(m, hash)
	if p.blob == nil || !m.Mem.Holds(frames, p.image) {
		return nil, false
	}
	if p.state == nil {
		return nil, true
	}
	c.stats.BlobDecodeHits++
	cp := *p.state
	return &cp, true
}

// SetDecodedBlob memoizes st, the cold decode of the image read from
// frames, which held the capture when DecodedBlob was asked: a copy of
// it is kept if they still hold it, so what the decode read was the
// capture. The caller keeps st.
func (c *Cache) SetDecodedBlob(m *hw.Machine, hash uint64, frames []hw.FrameRange, st *uisr.VMState) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p := c.placeLocked(m, hash); p.blob != nil && m.Mem.Holds(frames, p.image) {
		cp := *st
		p.state = &cp
		c.places[m].byHash[hash] = p
	}
}

// PRAMSnapshot returns machine m's PRAM build snapshot, creating it on
// first use.
func (c *Cache) PRAMSnapshot(m *hw.Machine) *pram.Snapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.snaps[m]
	if s == nil {
		s = pram.NewSnapshot()
		c.snaps[m] = s
	}
	return s
}

// Stats returns a snapshot of the cache counters, with the per-machine
// PRAM snapshot counters folded in.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	out := c.stats
	snaps := make([]*pram.Snapshot, 0, len(c.snaps))
	for _, s := range c.snaps {
		snaps = append(snaps, s)
	}
	c.mu.Unlock()
	for _, s := range snaps {
		h, m := s.Stats()
		out.PRAMHits += h
		out.PRAMMisses += m
		out.PRAMParseHits += s.ParseHits()
	}
	return out
}
