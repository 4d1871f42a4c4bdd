package tpcache

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/pram"
	"hypertp/internal/uisr"
)

// lookupHits reports whether a lookup for the VM hits.
func lookupHits(c *Cache, kind hv.Kind, m *hw.Machine, gen int, id hv.VMID) bool {
	_, _, ok := c.LookupTranslation(kind, m, gen, id)
	return ok
}

func TestLookupMisses(t *testing.T) {
	c := New()
	m, other := &hw.Machine{}, &hw.Machine{}
	blob := []byte("xen-state")
	c.StoreTranslation(hv.KindXen, m, 3, 1, blob)
	cases := []struct {
		name string
		kind hv.Kind
		m    *hw.Machine
		gen  int
		id   hv.VMID
	}{
		{"unknown machine", hv.KindXen, other, 3, 1},
		{"bumped generation", hv.KindXen, m, 4, 1},
		{"unknown VM", hv.KindXen, m, 3, 2},
		{"other kind", hv.KindKVM, m, 3, 1},
	}
	for _, tc := range cases {
		if lookupHits(c, tc.kind, tc.m, tc.gen, tc.id) {
			t.Errorf("%s: lookup hit", tc.name)
		}
	}
	if s := c.Stats(); s.Misses != uint64(len(cases)) || s.Hits != 0 {
		t.Fatalf("stats = %+v, want %d misses", s, len(cases))
	}
}

func TestStoreThenHit(t *testing.T) {
	c := New()
	m := &hw.Machine{}
	blob := []byte("xen-state")
	h := c.StoreTranslation(hv.KindXen, m, 0, 7, blob)
	if h != BlobHash(blob) {
		t.Fatalf("store returned hash %x, want %x", h, BlobHash(blob))
	}
	if s := c.Stats(); s.Hits+s.Misses != 0 {
		t.Fatalf("a store touched the lookup counters: %+v", s)
	}
	got, gotHash, ok := c.LookupTranslation(hv.KindXen, m, 0, 7)
	if !ok || string(got) != string(blob) || gotHash != h {
		t.Fatalf("lookup = %q %x ok=%v", got, gotHash, ok)
	}
}

// A VM ping-ponging Xen -> KVM -> Xen with stable blob contents reaches a
// fingerprint fixed point after one cycle: every later save hits.
func TestRecordRestoreFixedPoint(t *testing.T) {
	c := New()
	m := &hw.Machine{}
	const id = hv.VMID(1)
	blobs := map[hv.Kind][]byte{hv.KindXen: []byte("from-xen"), hv.KindKVM: []byte("from-kvm")}
	kind := hv.KindXen
	var hits []bool
	for gen := 0; gen < 6; gen++ {
		blob, ok := blobs[kind], lookupHits(c, kind, m, gen, id)
		hits = append(hits, ok)
		if !ok {
			c.StoreTranslation(kind, m, gen, id, blob)
		}
		target := hv.KindKVM
		if kind == hv.KindKVM {
			target = hv.KindXen
		}
		c.RecordRestore(target, m, gen+1, id, BlobHash(blob))
		kind = target
	}
	want := []bool{false, false, false, true, true, true}
	if fmt.Sprint(hits) != fmt.Sprint(want) {
		t.Fatalf("hits per cycle = %v, want %v", hits, want)
	}
}

// The translation cache is FIFO-bounded at maxBlobEntries: the store
// past the bound evicts the oldest entry.
func TestFIFOEviction(t *testing.T) {
	c := New()
	m := &hw.Machine{}
	for id := 0; id <= maxBlobEntries; id++ {
		c.StoreTranslation(hv.KindXen, m, 0, hv.VMID(id), []byte{byte(id), byte(id >> 8)})
	}
	if lookupHits(c, hv.KindXen, m, 0, 0) {
		t.Fatal("oldest entry survived eviction")
	}
	if !lookupHits(c, hv.KindXen, m, 0, maxBlobEntries) {
		t.Fatal("newest entry missing")
	}
	if len(c.order) != maxBlobEntries || len(c.blobs) != maxBlobEntries {
		t.Fatalf("order %d / blobs %d entries, want %d", len(c.order), len(c.blobs), maxBlobEntries)
	}
}

func TestInvalidate(t *testing.T) {
	c := New()
	m := &hw.Machine{}
	c.StoreTranslation(hv.KindXen, m, 0, 1, []byte("a"))
	c.StoreTranslation(hv.KindXen, m, 0, 2, []byte("b"))
	// No-ops: unknown machine, other generation, unknown VM, other kind.
	c.Invalidate(hv.KindXen, &hw.Machine{}, 0, 1)
	c.Invalidate(hv.KindXen, m, 1, 1)
	c.Invalidate(hv.KindXen, m, 0, 9)
	c.Invalidate(hv.KindKVM, m, 0, 1)
	if s := c.Stats(); s.Stale != 0 {
		t.Fatalf("no-op invalidations counted stale: %+v", s)
	}
	c.Invalidate(hv.KindXen, m, 0, 1)
	if lookupHits(c, hv.KindXen, m, 0, 1) {
		t.Fatal("invalidated entry still hits")
	}
	if !lookupHits(c, hv.KindXen, m, 0, 2) {
		t.Fatal("invalidation dropped a neighbour")
	}
	s := c.Stats()
	if s.Stale != 1 {
		t.Fatalf("stats = %+v, want 1 stale", s)
	}
	if len(c.order) != 1 || len(c.blobs) != 1 {
		t.Fatalf("order %v / %d blobs after invalidation, want 1", c.order, len(c.blobs))
	}
	// The fingerprint survives: the next cold save re-populates the key.
	c.StoreTranslation(hv.KindXen, m, 0, 1, []byte("a"))
	if !lookupHits(c, hv.KindXen, m, 0, 1) {
		t.Fatal("re-stored entry misses")
	}
}

func TestBlobFrames(t *testing.T) {
	c := New()
	m := &hw.Machine{}
	if c.BlobFrames(m, 1) != nil {
		t.Fatal("frames for an unknown machine")
	}
	frames := []hw.FrameRange{{Start: 10, Count: 2}}
	c.SetBlobFrames(m, 1, nil, frames)
	frames[0].Start = 99
	if got := c.BlobFrames(m, 1); len(got) != 1 || got[0].Start != 10 {
		t.Fatalf("stored frames = %v, want a copy of the original", got)
	}
	c.SetBlobFrames(m, 1, nil, []hw.FrameRange{{Start: 20, Count: 1}})
	if got := c.BlobFrames(m, 1); got[0].Start != 20 {
		t.Fatalf("overwrite kept %v", got)
	}
	for h := uint64(2); h <= maxBlobEntries+1; h++ {
		c.SetBlobFrames(m, h, nil, frames)
	}
	if c.BlobFrames(m, 1) != nil {
		t.Fatal("oldest placement survived eviction")
	}
	if c.BlobFrames(m, maxBlobEntries+1) == nil {
		t.Fatal("newest placement missing")
	}
}

// A blob's image is captured where it lands a second time, installed by
// reference from then on, and answers the decode memo while its frames
// hold it; a first landing, other bytes or a taken frame fall back to a
// write with nothing claimed.
func TestBlobImageInstallAndDecodeMemo(t *testing.T) {
	c := New()
	m := &hw.Machine{Mem: hw.NewPhysMem(64 << 20)}
	blob := []byte("uisr-image")
	land := func() []hw.FrameRange {
		t.Helper()
		if at, _ := c.InstallBlob(m, 1, blob); at != nil {
			return at
		}
		at, err := m.Mem.AllocRanges(2, hw.OwnerPRAM, -1)
		if known := c.BlobFrames(m, 1); known != nil {
			at, err = known, m.Mem.ClaimRanges(known, hw.OwnerPRAM, -1)
		}
		if err == nil {
			err = m.Mem.FillRanges(at, len(blob), func(b []byte) { copy(b, blob) })
		}
		if err != nil {
			t.Fatal(err)
		}
		c.SetBlobFrames(m, 1, blob, at)
		return at
	}
	free := func(at []hw.FrameRange) {
		t.Helper()
		if err := m.Mem.FreeRanges(at); err != nil {
			t.Fatal(err)
		}
	}
	at := land() // first landing: frames remembered, nothing captured
	if st, held := c.DecodedBlob(m, 1, at); st != nil || held {
		t.Fatal("a first landing was captured")
	}
	free(at)
	free(land()) // second landing, at the same frames: captured
	at = land()
	if got := c.Stats().BlobInstalls; got != 1 {
		t.Fatalf("third landing: %d installs, want 1", got)
	}
	if image, err := m.Mem.ReadRanges(at, nil); err != nil || string(image[:len(blob)]) != string(blob) {
		t.Fatalf("installed image reads %q, %v", image[:len(blob)], err)
	}
	if st, held := c.DecodedBlob(m, 1, at); st != nil || !held {
		t.Fatalf("undecoded capture: state %v, held %v; want nil, true", st, held)
	}
	c.SetDecodedBlob(m, 1, at, &uisr.VMState{Name: "vm"})
	hit, _ := c.DecodedBlob(m, 1, at)
	if hit == nil || hit.Name != "vm" || c.Stats().BlobDecodeHits != 1 {
		t.Fatalf("decode memo answered %+v, %d hits", hit, c.Stats().BlobDecodeHits)
	}
	hit.Name = "mutated"
	if again, _ := c.DecodedBlob(m, 1, at); again.Name != "vm" {
		t.Fatalf("a mutated hit reached the memo: %q", again.Name)
	}
	if err := m.Mem.Write(at[0].Start, 0, []byte{'U'}); err != nil {
		t.Fatal(err)
	}
	if st, held := c.DecodedBlob(m, 1, at); st != nil || held {
		t.Fatal("a written frame still answered from the memo")
	}
	free(at)
	if at, _ := c.InstallBlob(m, 1, []byte("uisr-other")); at != nil {
		t.Fatal("a capture of other bytes was installed")
	}
	if err := m.Mem.ClaimRange(at[0].Start+1, 1, hw.OwnerGuest, 1); err != nil {
		t.Fatal(err)
	}
	if at, _ := c.InstallBlob(m, 1, blob); at != nil {
		t.Fatal("installed over a taken frame")
	}
	if err := m.Mem.ClaimRange(at[0].Start, 1, hw.OwnerGuest, 1); err != nil {
		t.Fatalf("a failed install left its claim: %v", err)
	}
	var none *Cache
	if st, held := none.DecodedBlob(m, 1, at); st != nil || held {
		t.Fatal("a nil cache answered a decode")
	}
}

// PRAMSnapshot hands each machine one snapshot, and Stats folds its
// replay counters in.
func TestPRAMSnapshotPerMachine(t *testing.T) {
	c := New()
	a, b := &hw.Machine{}, &hw.Machine{}
	snap := c.PRAMSnapshot(a)
	if c.PRAMSnapshot(a) != snap || c.PRAMSnapshot(b) == snap {
		t.Fatal("snapshot identity is not per machine")
	}
	mem := hw.NewPhysMem(64 << 20)
	base, err := mem.Alloc2M(hw.OwnerGuest, 1)
	if err != nil {
		t.Fatal(err)
	}
	files := []pram.File{{Name: "vm", VMID: 1, Extents: uisr.NewMemMap([]uisr.PageExtent{{MFN: uint64(base), Order: 9}})}}
	for i := 0; i < 2; i++ {
		st, err := pram.Build(mem, files, pram.BuildOptions{Snapshot: snap})
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Release(mem); err != nil {
			t.Fatal(err)
		}
	}
	if s := c.Stats(); s.PRAMHits != 1 || s.PRAMMisses != 1 {
		t.Fatalf("pram stats = %d/%d, want 1 hit, 1 miss", s.PRAMHits, s.PRAMMisses)
	}
}

func TestStatsArithmetic(t *testing.T) {
	if r := (Stats{}).HitRatio(); r != 0 {
		t.Fatalf("empty hit ratio = %v", r)
	}
	prev := Stats{Hits: 1, Misses: 2, Stale: 1, PRAMHits: 1, PRAMMisses: 1, PRAMParseHits: 1,
		BlobInstalls: 2, BlobDecodeHits: 1}
	cur := Stats{Hits: 4, Misses: 3, Stale: 1, PRAMHits: 3, PRAMMisses: 2, PRAMParseHits: 4,
		BlobInstalls: 7, BlobDecodeHits: 5}
	d := cur.Sub(prev)
	want := Stats{Hits: 3, Misses: 1, PRAMHits: 2, PRAMMisses: 1, PRAMParseHits: 3,
		BlobInstalls: 5, BlobDecodeHits: 4}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if r := d.HitRatio(); r != 0.75 {
		t.Fatalf("hit ratio = %v, want 0.75", r)
	}
	s := d.String()
	for _, part := range []string{"hits=3", "misses=1", "(ratio 0.75)", "stale=0", "pram=2/3"} {
		if !strings.Contains(s, part) {
			t.Fatalf("String() = %q lacks %q", s, part)
		}
	}
	// The memo lanes stay out of the rendering, which CLI goldens pin.
	if want := "hits=3 misses=1 (ratio 0.75) stale=0 pram=2/3"; s != want {
		t.Fatalf("String() = %q, want %q", s, want)
	}
}

// One cache serves many engines at once: concurrent stores, lookups,
// restores, blob installs and decode-memo hits, one machine per engine,
// stay consistent (run under -race).
func TestConcurrentStoresAndLookups(t *testing.T) {
	c := New()
	const workers, perWorker = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := &hw.Machine{Mem: hw.NewPhysMem(1 << 20)}
			for i := 0; i < perWorker; i++ {
				id := hv.VMID(w*perWorker + i)
				blob := []byte(fmt.Sprintf("vm-%d", id))
				if lookupHits(c, hv.KindXen, m, 0, id) {
					t.Errorf("vm %d hit before its store", id)
				}
				h := c.StoreTranslation(hv.KindXen, m, 0, id, blob)
				if !lookupHits(c, hv.KindXen, m, 0, id) {
					t.Errorf("vm %d missed after its store", id)
				}
				c.RecordRestore(hv.KindKVM, m, 1, id, h)
				// Land the blob twice at one frame, then by reference.
				at := []hw.FrameRange{{Start: hw.MFN(i), Count: 1}}
				for range 2 {
					if err := m.Mem.ClaimRanges(at, hw.OwnerPRAM, -1); err != nil {
						t.Error(err)
						return
					}
					_ = m.Mem.FillRanges(at, len(blob), func(b []byte) { copy(b, blob) })
					c.SetBlobFrames(m, h, blob, at)
					_ = m.Mem.FreeRanges(at)
				}
				if at, _ := c.InstallBlob(m, h, blob); at == nil {
					t.Errorf("vm %d: blob not installed", id)
					return
				}
				c.SetDecodedBlob(m, h, at, &uisr.VMState{Name: string(blob)})
				if st, _ := c.DecodedBlob(m, h, c.BlobFrames(m, h)); st == nil || st.Name != string(blob) {
					t.Errorf("vm %d: decode memo answered %v", id, st)
				}
				_ = m.Mem.FreeRanges(at)
				_ = c.PRAMSnapshot(m)
			}
		}(w)
	}
	wg.Wait()
	s := c.Stats()
	if s.Hits != workers*perWorker || s.Misses != workers*perWorker {
		t.Fatalf("stats = %+v, want %d hits and misses", s, workers*perWorker)
	}
	if s.BlobInstalls != workers*perWorker || s.BlobDecodeHits != workers*perWorker {
		t.Fatalf("blob memo = %+v, want %d installs and decode hits", s, workers*perWorker)
	}
}
