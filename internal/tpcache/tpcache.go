// Package tpcache is the transplant cache: the warm-path subsystem that
// makes repeat transplants cheap. It memoizes the two expensive
// wall-clock products of the InPlaceTP workflow —
//
//   - encoded UISR translation blobs, keyed by (source kind, VM state
//     fingerprint), so a host ping-ponging between hypervisor kinds
//     stops re-walking and re-encoding identical platform state;
//   - built PRAM metadata structures, via pram.Snapshot, so repeat
//     builds of an identical fileset install the cached pages by
//     reference, and the target's parse of a structure whose frames
//     still hold them returns the memoized result.
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
	"fmt"
	"hash/crc64"
	"sync"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/pram"
)

// Stats is a point-in-time census of cache effectiveness.
type Stats struct {
	// Hits and Misses count translation-cache lookups by outcome.
	Hits, Misses uint64
	// WarmStarts counts hits served from entries pre-staged by the warm
	// pool (orchestrator.WarmPool) rather than left by a prior
	// transplant.
	WarmStarts uint64
	// Stale counts entries poisoned by the cache.stale fault site and
	// discarded at lookup.
	Stale uint64
	// PRAMHits and PRAMMisses count PRAM snapshot replays vs cold
	// builds, and PRAMParseHits the PRAM parses its memo answered.
	PRAMHits, PRAMMisses, PRAMParseHits uint64
	// WarmSlots is the number of pre-staged entries currently unconsumed.
	WarmSlots int
}

// String renders the census compactly.
func (s Stats) String() string {
	return fmt.Sprintf("hits=%d misses=%d (ratio %.2f) warm-starts=%d stale=%d pram=%d/%d warm-slots=%d",
		s.Hits, s.Misses, s.HitRatio(), s.WarmStarts, s.Stale,
		s.PRAMHits, s.PRAMHits+s.PRAMMisses, s.WarmSlots)
}

// Sub returns the counter deltas since prev — the activity of one
// window (e.g. one transplant cycle) on a long-lived cache. WarmSlots
// is a gauge, not a counter, so the current value is kept as-is.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:       s.Hits - prev.Hits,
		Misses:     s.Misses - prev.Misses,
		WarmStarts: s.WarmStarts - prev.WarmStarts,
		Stale:      s.Stale - prev.Stale,
		PRAMHits:   s.PRAMHits - prev.PRAMHits,
		PRAMMisses: s.PRAMMisses - prev.PRAMMisses,
		WarmSlots:  s.WarmSlots,

		PRAMParseHits: s.PRAMParseHits - prev.PRAMParseHits,
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
	warm bool
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
	mu        sync.Mutex
	blobs     map[blobKey]*blobEntry
	order     []blobKey
	fps       map[*hw.Machine]*machineFPs
	snaps     map[*hw.Machine]*pram.Snapshot
	places    map[*hw.Machine]*blobPlaces
	warmSlots int
	stats     Stats
}

// blobPlaces remembers where each blob (by content hash) last landed in
// one machine's physical memory, so a repeat transplant can re-write it
// at the same frames — which keeps the PRAM fileset byte-stable and lets
// the pram.Snapshot replay fire.
type blobPlaces struct {
	byHash map[uint64][]hw.FrameRange
	order  []uint64
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

func mix(h, v uint64) uint64 {
	h ^= v + 0x9e3779b97f4a7c15 + (h << 12) + (h >> 4)
	h *= 0xff51afd7ed558ccd
	return h
}

// fingerprint derives the state fingerprint of a VM restored from (or,
// for the tag "fresh", first saved as) the blob with the given hash.
func fingerprint(tag uint64, kind hv.Kind, id hv.VMID, blobHash uint64) uint64 {
	h := mix(tag, uint64(kind))
	h = mix(h, uint64(id))
	return mix(h, blobHash)
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
// encoding of that exact state is cached. warm reports whether the entry
// was pre-staged by the warm pool (the flag is consumed by the lookup).
func (c *Cache) LookupTranslation(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID) (blob []byte, blobHash uint64, warm, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.fps[m]
	if e == nil || e.gen != gen {
		c.stats.Misses++
		return nil, 0, false, false
	}
	fp, known := e.byVM[id]
	if !known {
		c.stats.Misses++
		return nil, 0, false, false
	}
	be := c.blobs[blobKey{kind, fp}]
	if be == nil {
		c.stats.Misses++
		return nil, 0, false, false
	}
	c.stats.Hits++
	warm = be.warm
	if warm {
		be.warm = false
		c.warmSlots--
		c.stats.WarmStarts++
	}
	return be.blob, be.hash, warm, true
}

// HasTranslation reports whether a lookup for the VM would hit, without
// consuming the warm flag or touching the counters. The warm pool uses
// it to skip VMs that are already staged.
func (c *Cache) HasTranslation(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.fps[m]
	if e == nil || e.gen != gen {
		return false
	}
	fp, known := e.byVM[id]
	if !known {
		return false
	}
	return c.blobs[blobKey{kind, fp}] != nil
}

// StoreTranslation records a freshly encoded blob under the VM's current
// fingerprint (deriving and recording a fresh-state fingerprint when
// none is known), and returns the blob's hash. warm marks the entry as
// pre-staged by the warm pool.
func (c *Cache) StoreTranslation(kind hv.Kind, m *hw.Machine, gen int, id hv.VMID, blob []byte, warm bool) uint64 {
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
	if old := c.blobs[key]; old == nil {
		c.order = append(c.order, key)
		if len(c.order) > maxBlobEntries {
			c.dropLocked(c.order[0])
			c.order = c.order[1:]
		}
	} else if old.warm {
		c.warmSlots--
	}
	c.blobs[key] = &blobEntry{blob: blob, hash: h, warm: warm}
	if warm {
		c.warmSlots++
	}
	return h
}

func (c *Cache) dropLocked(key blobKey) {
	if e := c.blobs[key]; e != nil && e.warm {
		c.warmSlots--
	}
	delete(c.blobs, key)
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
	c.dropLocked(key)
	for i, k := range c.order {
		if k == key {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.stats.Stale++
}

// BlobFrames returns the frames the blob with the given content hash
// occupied the last time it was written into machine m's memory, or nil
// if unknown.
func (c *Cache) BlobFrames(m *hw.Machine, hash uint64) []hw.FrameRange {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.places[m]
	if p == nil {
		return nil
	}
	return p.byHash[hash]
}

// SetBlobFrames records where the blob with the given content hash was
// written on machine m.
func (c *Cache) SetBlobFrames(m *hw.Machine, hash uint64, frames []hw.FrameRange) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.places[m]
	if p == nil {
		p = &blobPlaces{byHash: make(map[uint64][]hw.FrameRange)}
		c.places[m] = p
	}
	if _, exists := p.byHash[hash]; !exists {
		p.order = append(p.order, hash)
		if len(p.order) > maxBlobEntries {
			delete(p.byHash, p.order[0])
			p.order = p.order[1:]
		}
	}
	p.byHash[hash] = append([]hw.FrameRange(nil), frames...)
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

// WarmSlots reports the number of pre-staged, unconsumed warm entries.
func (c *Cache) WarmSlots() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.warmSlots
}

// Stats returns a snapshot of the cache counters, with the per-machine
// PRAM snapshot counters folded in.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	out := c.stats
	out.WarmSlots = c.warmSlots
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
