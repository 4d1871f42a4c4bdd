package guest

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"hypertp/internal/hw"
)

// fakeMem is a simple in-process Memory for unit-testing the guest in
// isolation from any hypervisor. The page map is guarded, as a
// hypervisor's memory is. A page in bad fails every access, as an
// unmapped one does.
type fakeMem struct {
	mu    sync.Mutex
	pages map[hw.GFN][]byte
	n     uint64
	bad   map[hw.GFN]bool
}

func newFakeMem(pages uint64) *fakeMem {
	return &fakeMem{pages: make(map[hw.GFN][]byte), n: pages}
}

func (f *fakeMem) WritePage(gfn hw.GFN, off int, data []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bad[gfn] {
		return fmt.Errorf("fake: gfn %d unmapped", gfn)
	}
	p, ok := f.pages[gfn]
	if !ok {
		p = make([]byte, hw.PageSize4K)
		f.pages[gfn] = p
	}
	copy(p[off:], data)
	return nil
}

// WriteRecords writes the records one WritePage each.
func (f *fakeMem) WriteRecords(lo, hi hw.GFN, size int, fill func(hw.GFN, []byte) int) (int, error) {
	rec := make([]byte, size)
	for gfn := lo; gfn < hi; gfn++ {
		if err := f.WritePage(gfn, fill(gfn, rec), rec); err != nil {
			return int(gfn - lo), err
		}
	}
	return int(hi - lo), nil
}

func (f *fakeMem) ReadPage(gfn hw.GFN, off int, dst []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.bad[gfn] {
		return fmt.Errorf("fake: gfn %d unmapped", gfn)
	}
	clear(dst)
	if p, ok := f.pages[gfn]; ok {
		copy(dst, p[off:])
	}
	return nil
}

func (f *fakeMem) NumPages() uint64 { return f.n }

func newTestGuest() *Guest {
	return New("g0", newFakeMem(1024), DefaultDrivers()...)
}

func TestWriteReadVerify(t *testing.T) {
	g := newTestGuest()
	if err := g.Write(5, 100, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 7)
	if err := g.Memory().ReadPage(5, 100, got); err != nil || string(got) != "payload" {
		t.Fatalf("read %q, %v", got, err)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if g.WrittenBytes() != 7 {
		t.Fatalf("WrittenBytes = %d, want 7", g.WrittenBytes())
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	mem := newFakeMem(1024)
	g := New("g0", mem)
	if err := g.Write(3, 0, []byte{0xAA}); err != nil {
		t.Fatal(err)
	}
	mem.pages[3][0] = 0xBB // corrupt behind the guest's back
	if err := g.Verify(); err == nil {
		t.Fatal("Verify missed corruption")
	}
}

// TestVerifyReportsLowestMismatch: with several corrupt bytes the error
// must always name the lowest (gfn, off), whatever order the bookkeeping
// map iterates in and however the pages are split over the par pool.
func TestVerifyReportsLowestMismatch(t *testing.T) {
	mem := newFakeMem(1024)
	g := New("g0", mem)
	if err := g.WriteWorkingSet(0, 64); err != nil {
		t.Fatal(err)
	}
	// A second, disjoint write to page 9 leaves a gap in its hull that
	// the guest never wrote: garbage there is not corruption.
	if err := g.Write(9, 4000, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	mem.pages[9][3000] ^= 0xFF  // in the gap: must be ignored
	mem.pages[40][40+5] ^= 0xFF // record of page 40 starts at offset 40
	mem.pages[9][4001] ^= 0xFF
	mem.pages[9][9+63] ^= 0xFF // record of page 9 starts at offset 9
	want := "guest g0: corrupt byte at gfn 9 off 72: "
	for i := 0; i < 20; i++ {
		err := g.Verify()
		if err == nil || !strings.HasPrefix(err.Error(), want) {
			t.Fatalf("run %d: Verify = %v, want prefix %q", i, err, want)
		}
	}
}

func TestWriteWorkingSet(t *testing.T) {
	g := newTestGuest()
	if err := g.WriteWorkingSet(10, 50); err != nil {
		t.Fatal(err)
	}
	if g.WrittenBytes() != 50*64 {
		t.Fatalf("WrittenBytes = %d, want %d", g.WrittenBytes(), 50*64)
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteWorkingSetBounds(t *testing.T) {
	g := New("g0", newFakeMem(16))
	if err := g.WriteWorkingSet(10, 10); err == nil {
		t.Fatal("working set past end of memory accepted")
	}
}

func TestRebindPreservesVerification(t *testing.T) {
	memA := newFakeMem(64)
	g := New("g0", memA)
	g.Write(1, 10, []byte("hello"))
	// Simulate a transplant: the same backing pages become visible
	// through a new accessor.
	memB := newFakeMem(64)
	memB.pages = memA.pages
	g.Rebind(memB)
	if g.Memory() != Memory(memB) {
		t.Fatal("Rebind did not switch accessor")
	}
	if err := g.Verify(); err != nil {
		t.Fatalf("verify after rebind: %v", err)
	}
}

func TestTransplantProtocol(t *testing.T) {
	g := newTestGuest()
	if !g.AllDriversRunning() {
		t.Fatal("drivers not running initially")
	}
	if err := g.PrepareTransplant(); err != nil {
		t.Fatal(err)
	}
	if g.Driver("virtio-blk").State() != DriverPaused {
		t.Fatalf("emulated driver state = %v, want paused", g.Driver("virtio-blk").State())
	}
	if g.Driver("virtio-net").State() != DriverUnplugged {
		t.Fatalf("network driver state = %v, want unplugged", g.Driver("virtio-net").State())
	}
	if g.AllDriversRunning() {
		t.Fatal("AllDriversRunning true mid-transplant")
	}
	if err := g.CompleteTransplant(); err != nil {
		t.Fatal(err)
	}
	if !g.AllDriversRunning() {
		t.Fatal("drivers not running after completion")
	}
	pauses, resumes, rescans := g.ProtocolCounters()
	if pauses != 2 || resumes != 2 || rescans != 1 {
		t.Fatalf("counters = %d/%d/%d, want 2/2/1", pauses, resumes, rescans)
	}
}

func TestPassthroughDriverPausesInPlace(t *testing.T) {
	d := &Driver{Name: "gpu", Class: DevicePassthrough}
	g := New("g0", newFakeMem(16), d)
	if err := g.PrepareTransplant(); err != nil {
		t.Fatal(err)
	}
	if d.State() != DriverPaused {
		t.Fatalf("passthrough driver = %v, want paused", d.State())
	}
	if err := g.CompleteTransplant(); err != nil {
		t.Fatal(err)
	}
	if d.State() != DriverRunning {
		t.Fatalf("passthrough driver = %v after completion", d.State())
	}
}

func TestDoublePrepareFails(t *testing.T) {
	g := newTestGuest()
	if err := g.PrepareTransplant(); err != nil {
		t.Fatal(err)
	}
	if err := g.PrepareTransplant(); err == nil {
		t.Fatal("double prepare accepted")
	}
}

func TestCompleteWithoutPrepareFails(t *testing.T) {
	g := newTestGuest()
	if err := g.CompleteTransplant(); err == nil {
		t.Fatal("complete without prepare accepted")
	}
}

func TestDriverLookup(t *testing.T) {
	g := newTestGuest()
	if g.Driver("virtio-net") == nil {
		t.Fatal("virtio-net not found")
	}
	if g.Driver("missing") != nil {
		t.Fatal("phantom driver found")
	}
	if len(g.Drivers()) != 3 {
		t.Fatalf("Drivers() len = %d, want 3", len(g.Drivers()))
	}
}

func TestStateStrings(t *testing.T) {
	if DriverRunning.String() != "running" || DriverPaused.String() != "paused" ||
		DriverUnplugged.String() != "unplugged" {
		t.Fatal("driver state strings wrong")
	}
	if DriverState(9).String() == "" {
		t.Fatal("unknown driver state empty")
	}
	if DeviceEmulated.String() != "emulated" || DevicePassthrough.String() != "passthrough" ||
		DeviceNetwork.String() != "network" {
		t.Fatal("device class strings wrong")
	}
	if DeviceClass(9).String() == "" {
		t.Fatal("unknown device class empty")
	}
}

// Property: any sequence of writes verifies as long as memory is not
// corrupted; the latest write to an offset wins.
func TestPropertyWritesVerify(t *testing.T) {
	f := func(ops []uint32) bool {
		g := New("p", newFakeMem(256))
		for _, op := range ops {
			gfn := hw.GFN(op % 256)
			off := int(op>>8) % (hw.PageSize4K - 4)
			val := byte(op >> 24)
			if err := g.Write(gfn, off, []byte{val, val ^ 0xff}); err != nil {
				return false
			}
		}
		return g.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
