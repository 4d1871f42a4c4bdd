package guest

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hw"
)

// refGuest is the reference the guest's log is checked against: every
// write, working-set records included, logged per page in a map, each
// page read back into a fresh slice.
type refGuest struct {
	name    string
	mem     Memory
	writes  map[hw.GFN]*pageWrites
	written int
	seq     uint64
}

func newRefGuest(name string, mem Memory) *refGuest {
	return &refGuest{name: name, mem: mem, writes: make(map[hw.GFN]*pageWrites)}
}

func (r *refGuest) record(gfn hw.GFN, off int, data []byte) {
	if len(data) == 0 {
		return
	}
	w := r.writes[gfn]
	if w == nil {
		w = &pageWrites{off: off}
		r.writes[gfn] = w
	}
	lo, hi := min(w.off, off), max(w.off+len(w.data), off+len(data))
	if hi-lo > len(w.data) {
		grown := pageWrites{off: lo, data: make([]byte, hi-lo), written: make([]bool, hi-lo)}
		copy(grown.data[w.off-lo:], w.data)
		copy(grown.written[w.off-lo:], w.written)
		*w = grown
	}
	copy(w.data[off-w.off:], data)
	for i := off - w.off; i < off-w.off+len(data); i++ {
		if !w.written[i] {
			w.written[i] = true
			r.written++
		}
	}
}

func (r *refGuest) write(gfn hw.GFN, off int, data []byte) error {
	if err := r.mem.WritePage(gfn, off, data); err != nil {
		return err
	}
	r.record(gfn, off, data)
	return nil
}

func (r *refGuest) writeWorkingSet(startGFN hw.GFN, npages int) error {
	for i := 0; i < npages; i++ {
		if uint64(startGFN)+uint64(i) >= r.mem.NumPages() {
			return fmt.Errorf("guest %s: working set page %d beyond memory", r.name, startGFN+hw.GFN(i))
		}
	}
	base := r.seq
	r.seq += uint64(npages)
	var rec [64]byte
	for i := 0; i < npages; i++ {
		gfn := startGFN + hw.GFN(i)
		fill(rec[:], uint64(gfn)*2654435761+base+uint64(i)+1)
		if err := r.write(gfn, int(uint64(gfn)%(hw.PageSize4K-64)), rec[:]); err != nil {
			return err
		}
	}
	return nil
}

func (r *refGuest) verify() error {
	for _, gfn := range slices.Sorted(maps.Keys(r.writes)) {
		w := r.writes[gfn]
		got := make([]byte, len(w.data))
		if err := r.mem.ReadPage(gfn, w.off, got); err != nil {
			return fmt.Errorf("guest %s: verify gfn %d off %d: %w", r.name, gfn, w.off, err)
		}
		for i, want := range w.data {
			if w.written[i] && got[i] != want {
				return fmt.Errorf("guest %s: corrupt byte at gfn %d off %d: got %#x want %#x",
					r.name, gfn, w.off+i, got[i], want)
			}
		}
	}
	return nil
}

// checkLog checks the log's own invariants: spans non-empty, sorted,
// disjoint, merged where they touch under one seed, and on no page that
// writes holds.
func checkLog(g *Guest) error {
	for i, s := range g.spans {
		if s.lo >= s.hi {
			return fmt.Errorf("span %d [%d,%d) empty", i, s.lo, s.hi)
		}
		if i > 0 {
			if p := g.spans[i-1]; p.hi > s.lo || (p.hi == s.lo && p.c == s.c) {
				return fmt.Errorf("spans %d [%d,%d) and %d [%d,%d) overlap or are unmerged", i-1, p.lo, p.hi, i, s.lo, s.hi)
			}
		}
		for gfn := range g.writes {
			if s.lo <= gfn && gfn < s.hi {
				return fmt.Errorf("span %d [%d,%d) holds page %d, which writes holds", i, s.lo, s.hi, gfn)
			}
		}
	}
	return nil
}

// logPages is the fake guest's size; WriteWorkingSet may start up to 16
// pages past it.
const logPages = 48

func cloneMem(f *fakeMem) *fakeMem {
	c := &fakeMem{pages: make(map[hw.GFN][]byte, len(f.pages)), n: f.n, bad: maps.Clone(f.bad)}
	for gfn, p := range f.pages {
		c.pages[gfn] = bytes.Clone(p)
	}
	return c
}

// logRun interprets ops, four bytes each (opcode, a, b, c), against a
// Guest and the reference, each over its own fake memory, and checks
// after every step that the two memories hold the same bytes and that
// Verify (nil or its exact text) and WrittenBytes agree.
func logRun(ops []byte) error {
	memG, memR := newFakeMem(logPages), newFakeMem(logPages)
	g, ref := New("g", memG), newRefGuest("g", memR)
	for step := 0; len(ops) >= 4 && step < 64; step, ops = step+1, ops[4:] {
		a, b, c := int(ops[1]), int(ops[2]), int(ops[3])
		gfn := hw.GFN(a % logPages)
		var desc string
		var got, want error
		switch ops[0] % 5 {
		case 0:
			// Overlapping, empty, negative and out-of-range working sets.
			start, n := hw.GFN(a%(logPages+16)), b%40-4
			desc = fmt.Sprintf("WriteWorkingSet(%d, %d)", start, n)
			got, want = g.WriteWorkingSet(start, n), ref.writeWorkingSet(start, n)
		case 1:
			// A write that may straddle the page's record, or miss it.
			n := c % 80
			off := min(max(recordOff(gfn)+int(int8(b)), 0), hw.PageSize4K-n)
			data := bytes.Repeat([]byte{byte(c), byte(b)}, 40)[:n]
			desc = fmt.Sprintf("Write(%d, %d, %d bytes)", gfn, off, n)
			got, want = g.Write(gfn, off, data), ref.write(gfn, off, data)
		case 2:
			// A byte changed behind both guests' backs, in or near the
			// page's record.
			off := min(max(recordOff(gfn)+b%80-8, 0), hw.PageSize4K-1)
			desc = fmt.Sprintf("corrupt(%d, %d)", gfn, off)
			for _, m := range []*fakeMem{memG, memR} {
				if m.pages[gfn] == nil {
					m.pages[gfn] = make([]byte, hw.PageSize4K)
				}
				m.pages[gfn][off] ^= byte(1 + c%255)
			}
		case 3:
			// A transplant: the same bytes behind a new accessor.
			memG, memR = cloneMem(memG), cloneMem(memR)
			g.Rebind(memG)
			ref.mem = memR
			desc = "Rebind"
		case 4:
			// A page that fails every access, or none.
			desc = fmt.Sprintf("bad(%d, %v)", gfn, c%2 == 0)
			for _, m := range []*fakeMem{memG, memR} {
				m.bad = nil
				if c%2 == 0 {
					m.bad = map[hw.GFN]bool{gfn: true}
				}
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("step %d: %s = %v, reference %v", step, desc, got, want)
		}
		if !maps.EqualFunc(memG.pages, memR.pages, bytes.Equal) {
			return fmt.Errorf("step %d after %s: memory differs from the reference's", step, desc)
		}
		if got, want := g.WrittenBytes(), ref.written; got != want {
			return fmt.Errorf("step %d after %s: WrittenBytes = %d, reference %d", step, desc, got, want)
		}
		if got, want := g.Verify(), ref.verify(); fmt.Sprint(got) != fmt.Sprint(want) {
			return fmt.Errorf("step %d after %s: Verify = %v, reference %v", step, desc, got, want)
		}
		if err := checkLog(g); err != nil {
			return fmt.Errorf("step %d after %s: %w", step, desc, err)
		}
	}
	return nil
}

// TestGuestLogMatchesModel drives random histories through the guest and
// the per-page reference.
func TestGuestLogMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(52))
	for i := 0; i < 40; i++ {
		ops := make([]byte, 4*(8+rng.Intn(40)))
		rng.Read(ops)
		if err := logRun(ops); err != nil {
			t.Fatalf("sequence %d %x: %v", i, ops, err)
		}
	}
}

// guestLogSeeds are hand-written histories that reach the log's cases
// directly: a span cut at both ends by a newer one, a write inside a span
// and across a record's edge, corruption in a span and in a written page,
// working sets past memory, a bad page mid-working-set, a rebind.
func guestLogSeeds() [][]byte {
	return [][]byte{
		// A working set, a newer one inside it (cutting it in three),
		// one overlapping its tail, then corruption in the middle span.
		{0, 0, 34, 0, 0, 10, 14, 0, 0, 25, 24, 0, 2, 12, 20, 1},
		// A write inside a span, one straddling a record's end, one
		// before its start; a working set over the written pages; a
		// corruption of a written byte and a rebind.
		{0, 0, 44, 0, 1, 5, 10, 20, 1, 7, 60, 30, 1, 9, 200, 70, 0, 3, 14, 0, 2, 7, 70, 3, 3, 0, 0, 0},
		// Working sets past the end, of no pages and of negative length,
		// then one that fits.
		{0, 50, 20, 0, 0, 40, 30, 0, 0, 5, 4, 0, 0, 5, 0, 0, 0, 0, 20, 0},
		// A bad page inside a working set: it stops there; Verify reads
		// the bad page once a write logs it; then the page heals.
		{4, 6, 0, 0, 0, 0, 24, 0, 1, 6, 0, 5, 4, 6, 0, 1, 0, 0, 24, 0, 4, 8, 0, 0, 4, 0, 0, 1},
		// Back-to-back working sets merge into one span; an empty write
		// inside it; a write at its first and last page; corruption at a
		// span page's record edge.
		{0, 0, 14, 0, 0, 10, 14, 0, 1, 4, 0, 0, 1, 0, 2, 9, 1, 19, 2, 9, 2, 12, 71, 9, 2, 12, 8, 9},
	}
}

func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzGuestLog", guestLogSeeds()...)
}

// FuzzGuestLog: no history may make the guest's log and the per-page
// reference disagree on memory, Verify or WrittenBytes.
func FuzzGuestLog(f *testing.F) {
	for _, seed := range guestLogSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, ops []byte) {
		if err := logRun(ops); err != nil {
			t.Fatal(err)
		}
	})
}
