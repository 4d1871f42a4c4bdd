package hw

import (
	"bytes"
	"fmt"
	"hash/crc64"
	"math/big"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"hypertp/internal/par"
	"hypertp/internal/simtime"
)

func newTestMem() *PhysMem { return NewPhysMem(64 * 1024 * 1024) } // 64 MiB

// frames expands an AllocRanges result into the frame list, for tests that
// address frames one by one.
func frames(rs []FrameRange, err error) ([]MFN, error) {
	var out []MFN
	for _, r := range rs {
		for m := r.Start; m < r.End(); m++ {
			out = append(out, m)
		}
	}
	return out, err
}

// read returns n bytes of frame m from offset off.
func read(pm *PhysMem, m MFN, off, n int) ([]byte, error) {
	if n < 0 {
		n = 0
	}
	out := make([]byte, n)
	return out, pm.ReadInto(m, off, out)
}

func TestAllocBasics(t *testing.T) {
	pm := newTestMem()
	mfns, err := frames(pm.AllocRanges(10, OwnerGuest, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(mfns) != 10 {
		t.Fatalf("got %d frames, want 10", len(mfns))
	}
	if pm.AllocatedFrames() != 10 {
		t.Fatalf("AllocatedFrames = %d, want 10", pm.AllocatedFrames())
	}
	seen := map[MFN]bool{}
	for _, m := range mfns {
		if seen[m] {
			t.Fatalf("duplicate MFN %d", m)
		}
		seen[m] = true
		owner, vm := pm.OwnerOf(m)
		if owner != OwnerGuest || vm != 1 {
			t.Fatalf("frame %d owner = %v/%d, want guest/1", m, owner, vm)
		}
	}
}

func TestAllocExhaustion(t *testing.T) {
	pm := NewPhysMem(8 * PageSize4K)
	if _, err := pm.AllocRanges(8, OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocRanges(1, OwnerHV, -1); err == nil {
		t.Fatal("allocating past capacity succeeded")
	}
}

func TestAllocFreeReuse(t *testing.T) {
	pm := NewPhysMem(4 * PageSize4K)
	mfns, err := frames(pm.AllocRanges(4, OwnerHV, -1))
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeRange(mfns[2], 1); err != nil {
		t.Fatal(err)
	}
	again, err := frames(pm.AllocRanges(1, OwnerGuest, 7))
	if err != nil {
		t.Fatal(err)
	}
	if again[0] != mfns[2] {
		t.Fatalf("reallocation got frame %d, want recycled %d", again[0], mfns[2])
	}
}

func TestDoubleFree(t *testing.T) {
	pm := newTestMem()
	mfns, _ := frames(pm.AllocRanges(1, OwnerHV, -1))
	if err := pm.FreeRange(mfns[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeRange(mfns[0], 1); err == nil {
		t.Fatal("double free succeeded")
	}
}

func TestAllocFreeOwnerZero(t *testing.T) {
	pm := newTestMem()
	if _, err := pm.AllocRanges(1, OwnerFree, -1); err == nil {
		t.Fatal("Alloc with OwnerFree succeeded")
	}
	if _, err := pm.Alloc2M(OwnerFree, -1); err == nil {
		t.Fatal("Alloc2M with OwnerFree succeeded")
	}
}

func TestAlloc2MAlignmentAndContiguity(t *testing.T) {
	pm := NewPhysMem(16 * PageSize2M)
	// Fragment the start a little.
	if _, err := pm.AllocRanges(3, OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	base, err := pm.Alloc2M(OwnerGuest, 2)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(base)%FramesPer2M != 0 {
		t.Fatalf("2M base %d not aligned", base)
	}
	for i := MFN(0); i < FramesPer2M; i++ {
		owner, vm := pm.OwnerOf(base + i)
		if owner != OwnerGuest || vm != 2 {
			t.Fatalf("frame %d of huge page owner = %v/%d", base+i, owner, vm)
		}
	}
}

func TestAlloc2MFragmentation(t *testing.T) {
	pm := NewPhysMem(2 * PageSize2M)
	// Poison one frame in each aligned 2M run.
	taken, _ := frames(pm.AllocRanges(1, OwnerHV, -1))
	_ = taken
	pm.next = MFN(FramesPer2M) // move cursor; poison second run too
	if _, err := pm.AllocRanges(1, OwnerHV, -1); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.Alloc2M(OwnerGuest, 1); err == nil {
		t.Fatal("Alloc2M succeeded despite fragmentation of every run")
	}
}

func TestReadWrite(t *testing.T) {
	pm := newTestMem()
	mfns, _ := frames(pm.AllocRanges(1, OwnerGuest, 1))
	m := mfns[0]
	payload := []byte("hypervisor transplant")
	if err := pm.Write(m, 100, payload); err != nil {
		t.Fatal(err)
	}
	got, err := read(pm, m, 100, len(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("read back %q, want %q", got, payload)
	}
	// Untouched region reads as zeros.
	zeros, err := read(pm, m, 0, 50)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range zeros {
		if b != 0 {
			t.Fatal("untouched bytes are not zero")
		}
	}
}

func TestReadWriteBounds(t *testing.T) {
	pm := newTestMem()
	mfns, _ := frames(pm.AllocRanges(1, OwnerGuest, 1))
	if err := pm.Write(mfns[0], PageSize4K-1, []byte{1, 2}); err == nil {
		t.Fatal("write past frame end succeeded")
	}
	if err := pm.Write(mfns[0], -1, []byte{1}); err == nil {
		t.Fatal("write at negative offset succeeded")
	}
	if _, err := read(pm, mfns[0], PageSize4K, 1); err == nil {
		t.Fatal("read past frame end succeeded")
	}
}

func TestReadWriteUnallocated(t *testing.T) {
	pm := newTestMem()
	if err := pm.Write(5, 0, []byte{1}); err == nil {
		t.Fatal("write to unallocated frame succeeded")
	}
	if _, err := read(pm, 5, 0, 1); err == nil {
		t.Fatal("read from unallocated frame succeeded")
	}
	if _, err := pm.Checksum(5); err == nil {
		t.Fatal("checksum of unallocated frame succeeded")
	}
}

func TestChecksum(t *testing.T) {
	pm := newTestMem()
	mfns, _ := frames(pm.AllocRanges(2, OwnerGuest, 1))
	a, b := mfns[0], mfns[1]
	ca0, _ := pm.Checksum(a)
	cb0, _ := pm.Checksum(b)
	if ca0 != cb0 {
		t.Fatal("two untouched frames have different checksums")
	}
	pm.Write(a, 0, []byte{0xde, 0xad})
	ca1, _ := pm.Checksum(a)
	if ca1 == ca0 {
		t.Fatal("checksum unchanged after write")
	}
	pm.Write(b, 0, []byte{0xde, 0xad})
	cb1, _ := pm.Checksum(b)
	if ca1 != cb1 {
		t.Fatal("same content, different checksum")
	}
}

func TestSetOwner(t *testing.T) {
	pm := newTestMem()
	mfns, _ := frames(pm.AllocRanges(1, OwnerVMState, 3))
	if err := pm.SetOwnerRanges([]FrameRange{{Start: mfns[0], Count: 1}}, OwnerGuest, 4); err != nil {
		t.Fatal(err)
	}
	owner, vm := pm.OwnerOf(mfns[0])
	if owner != OwnerGuest || vm != 4 {
		t.Fatalf("owner = %v/%d after SetOwner", owner, vm)
	}
	if err := pm.SetOwnerRanges([]FrameRange{{Start: 999, Count: 1}}, OwnerGuest, 0); err == nil {
		t.Fatal("SetOwner on unallocated frame succeeded")
	}
}

func TestWipePreservesKeepSet(t *testing.T) {
	pm := newTestMem()
	guest, _ := frames(pm.AllocRanges(5, OwnerGuest, 1))
	hv, _ := frames(pm.AllocRanges(5, OwnerHV, -1))
	pm.Write(guest[0], 0, []byte("survive"))
	pm.Write(hv[0], 0, []byte("perish"))
	var keep []FrameRange
	for _, m := range guest {
		keep = append(keep, FrameRange{Start: m, Count: 1})
	}
	wiped := pm.WipeRanges(keep)
	if wiped != 5 {
		t.Fatalf("wiped %d frames, want 5", wiped)
	}
	got, err := read(pm, guest[0], 0, 7)
	if err != nil || string(got) != "survive" {
		t.Fatalf("guest frame lost: %q, %v", got, err)
	}
	if _, err := read(pm, hv[0], 0, 1); err == nil {
		t.Fatal("HV frame survived the wipe")
	}
}

func TestCountByOwner(t *testing.T) {
	pm := newTestMem()
	pm.AllocRanges(3, OwnerGuest, 1)
	pm.AllocRanges(2, OwnerVMState, 1)
	pm.AllocRanges(4, OwnerHV, -1)
	counts := pm.CountByOwner()
	if counts[OwnerGuest] != 3 || counts[OwnerVMState] != 2 || counts[OwnerHV] != 4 {
		t.Fatalf("counts = %v", counts)
	}
}

func TestOwnerString(t *testing.T) {
	cases := map[Owner]string{
		OwnerFree: "free", OwnerGuest: "guest", OwnerVMState: "vmstate",
		OwnerVMMgmt: "vmmgmt", OwnerHV: "hv", OwnerPRAM: "pram",
		OwnerKexecImage: "kexec-image",
	}
	for o, want := range cases {
		if o.String() != want {
			t.Fatalf("Owner(%d).String() = %q, want %q", o, o.String(), want)
		}
	}
	if Owner(200).String() != "owner(200)" {
		t.Fatalf("unknown owner string = %q", Owner(200).String())
	}
}

// Property: alloc/free keeps the allocated counter consistent with the map.
func TestPropertyAllocFreeAccounting(t *testing.T) {
	f := func(ops []uint8) bool {
		pm := NewPhysMem(256 * PageSize4K)
		var live []MFN
		for _, op := range ops {
			if op%2 == 0 || len(live) == 0 {
				n := int(op%7) + 1
				mfns, err := frames(pm.AllocRanges(n, OwnerGuest, 1))
				if err != nil {
					continue
				}
				live = append(live, mfns...)
			} else {
				m := live[int(op)%len(live)]
				live = remove(live, m)
				if err := pm.FreeRange(m, 1); err != nil {
					return false
				}
			}
		}
		return pm.AllocatedFrames() == uint64(len(live))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func remove(s []MFN, m MFN) []MFN {
	for i, v := range s {
		if v == m {
			s[i] = s[len(s)-1]
			return s[:len(s)-1]
		}
	}
	return s
}

func TestProfiles(t *testing.T) {
	m1, m2, cn := M1(), M2(), ClusterNode()
	if m1.Workers() != 6 {
		t.Fatalf("M1 workers = %d, want 6 (8 threads - 2 reserved)", m1.Workers())
	}
	if m2.Workers() != 54 {
		t.Fatalf("M2 workers = %d, want 54", m2.Workers())
	}
	if m1.RAMBytes != 16*GiB || m2.RAMBytes != 64*GiB || cn.RAMBytes != 96*GiB {
		t.Fatal("profile RAM sizes wrong")
	}
	if cn.NetRate != 10_000_000_000/8 {
		t.Fatalf("cluster node net rate = %d", cn.NetRate)
	}
	// The Xen boot path must be several times the Linux/KVM path — this
	// asymmetry is what produces Fig. 10.
	if m1.Cost.BootXenDom0 < 3*m1.Cost.BootLinuxKVM {
		t.Fatal("M1 Xen boot not slower than 3x KVM boot")
	}
}

func TestWorkersFloor(t *testing.T) {
	p := &Profile{Threads: 1, ReservedCPUs: 2}
	if p.Workers() != 1 {
		t.Fatalf("Workers() = %d, want floor of 1", p.Workers())
	}
}

func TestMachineReboot(t *testing.T) {
	clock := simtime.NewClock()
	m := NewMachine(clock, M1())
	guest, _ := frames(m.Mem.AllocRanges(4, OwnerGuest, 1))
	m.Mem.AllocRanges(4, OwnerHV, -1)
	m.Mem.Write(guest[0], 0, []byte("vm data"))
	var keep []FrameRange
	for _, f := range guest {
		keep = append(keep, FrameRange{Start: f, Count: 1})
	}
	clock.Advance(5 * time.Second)
	wiped := m.MicroReboot("pram=0x1000", keep)
	if wiped != 4 {
		t.Fatalf("wiped = %d, want 4", wiped)
	}
	if m.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", m.Generation())
	}
	if m.Cmdline != "pram=0x1000" {
		t.Fatalf("cmdline = %q", m.Cmdline)
	}
	if m.BootedAt() != 5*time.Second {
		t.Fatalf("BootedAt = %v", m.BootedAt())
	}
	got, err := read(m.Mem, guest[0], 0, 7)
	if err != nil || string(got) != "vm data" {
		t.Fatalf("guest data lost across reboot: %q, %v", got, err)
	}
}

func TestParallelElapsed(t *testing.T) {
	clock := simtime.NewClock()
	m1 := NewMachine(clock, M1()) // 6 workers
	per := 450 * time.Millisecond
	if got := m1.ParallelElapsed(1, per); got != per {
		t.Fatalf("1 item: %v, want %v", got, per)
	}
	if got := m1.ParallelElapsed(6, per); got != per {
		t.Fatalf("6 items on 6 workers: %v, want %v", got, per)
	}
	if got := m1.ParallelElapsed(7, per); got != 2*per {
		t.Fatalf("7 items on 6 workers: %v, want %v", got, 2*per)
	}
	if got := m1.ParallelElapsed(0, per); got != 0 {
		t.Fatalf("0 items: %v, want 0", got)
	}
	m2 := NewMachine(clock, M2()) // 54 workers: 12 VMs still 1 round
	if got := m2.ParallelElapsed(12, per); got != per {
		t.Fatalf("M2 12 items: %v, want %v (flat scaling)", got, per)
	}
}

func TestParallelElapsedVaried(t *testing.T) {
	clock := simtime.NewClock()
	m := NewMachine(clock, M1())
	if got := m.ParallelElapsedVaried(nil); got != 0 {
		t.Fatalf("empty: %v", got)
	}
	costs := []time.Duration{100, 200, 300, 400, 500, 600, 700}
	got := m.ParallelElapsedVaried(costs)
	// 7 items over 6 workers; LPT assigns greedily; max load must be at
	// least the largest item and at most largest+smallest.
	if got < 700 || got > 800 {
		t.Fatalf("varied elapsed = %v, want in [700, 800]", got)
	}
	// Single worker sums everything.
	single := &Profile{Threads: 3, ReservedCPUs: 2}
	ms := NewMachine(clock, single)
	if got := ms.ParallelElapsedVaried(costs); got != 2800 {
		t.Fatalf("single worker = %v, want 2800", got)
	}
}

func TestMachineString(t *testing.T) {
	m := NewMachine(simtime.NewClock(), M1())
	if m.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestMFNAddr(t *testing.T) {
	if MFN(3).Addr() != 3*PageSize4K {
		t.Fatalf("Addr = %d", MFN(3).Addr())
	}
}

// TestParallelElapsedVariedMatchesReference cross-checks the min-heap
// scheduler against a naive least-loaded linear scan: ties may break to
// different workers, but the resulting maximum load must be identical.
func TestParallelElapsedVariedMatchesReference(t *testing.T) {
	clock := simtime.NewClock()
	ref := func(costs []time.Duration, workers int) time.Duration {
		if len(costs) == 0 {
			return 0
		}
		loads := make([]time.Duration, workers)
		for _, c := range costs {
			min := 0
			for w := 1; w < workers; w++ {
				if loads[w] < loads[min] {
					min = w
				}
			}
			loads[min] += c
		}
		var max time.Duration
		for _, l := range loads {
			if l > max {
				max = l
			}
		}
		return max
	}
	rng := uint64(1)
	next := func(mod int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % mod
	}
	for _, p := range []*Profile{M1(), M2(), {Threads: 5, ReservedCPUs: 2}} {
		m := NewMachine(clock, p)
		for trial := 0; trial < 50; trial++ {
			costs := make([]time.Duration, 1+next(200))
			for i := range costs {
				costs[i] = time.Duration(1 + next(10000))
			}
			got := m.ParallelElapsedVaried(costs)
			want := ref(costs, p.Workers())
			if got != want {
				t.Fatalf("%s trial %d (%d items, %d workers): heap %v, reference %v",
					p.Name, trial, len(costs), p.Workers(), got, want)
			}
		}
	}
}

func TestClaimRange(t *testing.T) {
	pm := NewPhysMem(4 * PageSize2M) // 4 chunks
	// Claim spanning a partial first chunk, a whole middle chunk, and a
	// partial third: one run across chunk boundaries.
	start, count := MFN(100), uint64(2*FramesPer2M)
	if err := pm.ClaimRange(start, count, OwnerPRAM, -1); err != nil {
		t.Fatal(err)
	}
	if pm.AllocatedFrames() != count {
		t.Fatalf("AllocatedFrames = %d, want %d", pm.AllocatedFrames(), count)
	}
	for _, m := range []MFN{start, start + MFN(count) - 1, MFN(FramesPer2M)} {
		if owner, _ := pm.OwnerOf(m); owner != OwnerPRAM {
			t.Fatalf("frame %#x owner = %v, want pram", m, owner)
		}
	}
	if owner, _ := pm.OwnerOf(start - 1); owner != OwnerFree {
		t.Fatalf("frame before claim not free")
	}
	if owner, _ := pm.OwnerOf(start + MFN(count)); owner != OwnerFree {
		t.Fatalf("frame after claim not free")
	}
	// Overlapping claim must fail atomically: nothing newly allocated.
	if err := pm.ClaimRange(start+MFN(count)-1, 10, OwnerHV, -1); err == nil {
		t.Fatal("overlapping claim succeeded")
	}
	if pm.AllocatedFrames() != count {
		t.Fatalf("failed claim leaked frames: %d allocated", pm.AllocatedFrames())
	}
	// Out of bounds.
	if err := pm.ClaimRange(MFN(4*FramesPer2M-1), 2, OwnerHV, -1); err == nil {
		t.Fatal("out-of-bounds claim succeeded")
	}
	if errs := pm.AuditOwners(map[int]bool{}); len(errs) != 0 {
		t.Fatalf("audit after claim: %v", errs)
	}
	// The claim must not move the cursor: a fresh allocation starts at
	// frame 0, skipping to the first free frame.
	got, err := frames(pm.AllocRanges(1, OwnerHV, -1))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("cursor moved by claim: alloc landed at %#x, want 0", got[0])
	}
	if err := pm.FreeRange(start, count); err != nil {
		t.Fatal(err)
	}
	if pm.AllocatedFrames() != 1 {
		t.Fatalf("AllocatedFrames after free = %d, want 1", pm.AllocatedFrames())
	}
	if errs := pm.AuditOwners(map[int]bool{}); len(errs) != 0 {
		t.Fatalf("audit after free: %v", errs)
	}
}

// TestFillRangesRoundTrip: a blob filled over fragmented ranges reads back
// through ReadRanges in the same order, into the caller's buffer when it
// is large enough, and FreeRanges undoes AllocRanges.
func TestFillRangesRoundTrip(t *testing.T) {
	pm := newTestMem()
	hole, _ := pm.AllocRanges(4, OwnerHV, -1)
	pm.AllocRanges(4, OwnerHV, -1)
	if err := pm.FreeRanges(hole); err != nil {
		t.Fatal(err)
	}
	pm.next = 0 // refill the hole first, then continue past the second run
	rs, err := pm.AllocRanges(6, OwnerPRAM, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 2 || CountFrames(rs) != 6 {
		t.Fatalf("ranges = %v, want two runs of six frames", rs)
	}
	blob := bytes.Repeat([]byte("0123456789abcdef"), 5*PageSize4K/16+3)
	if err := pm.FillRanges(rs, len(blob), func(b []byte) { copy(b, blob) }); err != nil {
		t.Fatal(err)
	}
	buf := bytes.Repeat([]byte{0xee}, 7*PageSize4K) // stale bytes must not show
	back, err := pm.ReadRanges(rs, buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != 6*PageSize4K || !bytes.Equal(back[:len(blob)], blob) || !isZero(back[len(blob):]) {
		t.Fatalf("read back %d bytes that differ from the blob", len(back))
	}
	if &back[0] != &buf[0] {
		t.Fatal("ReadRanges allocated with a large enough buffer")
	}
	if short, err := pm.ReadRanges(rs, buf[:0:PageSize4K]); err != nil || !bytes.Equal(short, back) {
		t.Fatalf("read into a short buffer: %v", err)
	}
	if err := pm.FillRanges(rs, 1, func(b []byte) { b[0] = 1 }); err == nil {
		t.Fatal("fill into written frames accepted")
	}
	if err := pm.FillRanges(rs, 6*PageSize4K+1, func([]byte) {}); err == nil {
		t.Fatal("image larger than the ranges accepted")
	}
	if err := pm.FreeRanges(rs); err != nil {
		t.Fatal(err)
	}
	if err := pm.FreeRanges(rs); err == nil {
		t.Fatal("double FreeRanges succeeded")
	}
	if pm.AllocatedFrames() != 4 {
		t.Fatalf("AllocatedFrames = %d, want 4", pm.AllocatedFrames())
	}
}

// TestSameFrames: two run lists cover the same frames whatever their
// order, splits, repeats or empty runs; neither list is modified, and
// short ones are compared without allocating.
func TestSameFrames(t *testing.T) {
	r := func(start, count int) FrameRange { return FrameRange{Start: MFN(start), Count: uint64(count)} }
	for _, tc := range []struct {
		name string
		a, b []FrameRange
		want bool
	}{
		{"both empty", nil, []FrameRange{r(9, 0)}, true},
		{"equal", []FrameRange{r(0, 4), r(8, 2)}, []FrameRange{r(0, 4), r(8, 2)}, true},
		{"unsorted", []FrameRange{r(8, 2), r(0, 4)}, []FrameRange{r(0, 4), r(8, 2)}, true},
		{"adjacent", []FrameRange{r(0, 2), r(2, 2)}, []FrameRange{r(0, 4)}, true},
		{"duplicate", []FrameRange{r(0, 4), r(1, 2)}, []FrameRange{r(0, 4)}, true},
		{"empty run", []FrameRange{r(0, 4), r(20, 0)}, []FrameRange{r(0, 4)}, true},
		{"same count, other frames", []FrameRange{r(0, 2), r(5, 2)}, []FrameRange{r(0, 4)}, false},
		{"subset", []FrameRange{r(0, 3)}, []FrameRange{r(0, 4)}, false},
		// The old frame-by-frame test counted frames first, so a repeat
		// hid a missing frame: {0,0,1,2} against {0,1,2,3}.
		{"repeat for a missing frame", []FrameRange{r(0, 1), r(0, 3)}, []FrameRange{r(0, 4)}, false},
	} {
		a, b := slices.Clone(tc.a), slices.Clone(tc.b)
		if got := SameFrames(a, b); got != tc.want {
			t.Errorf("%s: SameFrames(%v, %v) = %v, want %v", tc.name, tc.a, tc.b, got, tc.want)
		}
		if got := SameFrames(b, a); got != tc.want {
			t.Errorf("%s: SameFrames is not symmetric", tc.name)
		}
		if !slices.Equal(a, tc.a) || !slices.Equal(b, tc.b) {
			t.Errorf("%s: SameFrames modified its arguments: %v, %v", tc.name, a, b)
		}
		if n := testing.AllocsPerRun(10, func() { SameFrames(a, b) }); n != 0 {
			t.Errorf("%s: SameFrames allocated %v times, want 0", tc.name, n)
		}
	}
}

// TestPageDedupSharing: identical pages share one interned page whose
// checksum is known from the write; a write to one sharer unshares it.
func TestPageDedupSharing(t *testing.T) {
	pm := newTestMem()
	pm.SetPageDedup(true)
	mfns, _ := frames(pm.AllocRanges(3, OwnerGuest, 1))
	page := bytes.Repeat([]byte{7}, PageSize4K)
	for _, m := range mfns {
		if err := pm.Write(m, 0, page); err != nil {
			t.Fatal(err)
		}
	}
	if hits, interned := pm.PageDedupHits(); hits != 2 || interned != 1 {
		t.Fatalf("hits %d interned %d, want 2 and 1", hits, interned)
	}
	pages := pm.dir[0].pages[0]
	if pages.slot[mfns[0]] != pages.slot[mfns[2]] || !pages.slot[mfns[0]].summed {
		t.Fatal("identical pages not shared, or shared page has no cached checksum")
	}
	want := crc64.Checksum(page, CRCTable)
	if sum, _ := pm.Checksum(mfns[1]); sum != want {
		t.Fatalf("checksum %#x, want %#x", sum, want)
	}
	// Unshare: the other two keep the original bytes.
	if err := pm.Write(mfns[1], 10, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if sum, _ := pm.Checksum(mfns[1]); sum == want {
		t.Fatal("checksum unchanged after unsharing write")
	}
	if got, _ := read(pm, mfns[0], 10, 1); got[0] != 7 {
		t.Fatal("write to one sharer leaked into another")
	}
	if _, interned := pm.PageDedupHits(); interned != 2 {
		t.Fatalf("interned %d after unshare, want 2", interned)
	}
	// A sole owner rewritten in place leaves the table, then rejoins.
	if err := pm.Write(mfns[1], 10, []byte{7}); err != nil {
		t.Fatal(err)
	}
	if hits, interned := pm.PageDedupHits(); hits != 3 || interned != 1 {
		t.Fatalf("hits %d interned %d after rejoining, want 3 and 1", hits, interned)
	}
	pm.WipeRanges(nil)
	if _, interned := pm.PageDedupHits(); interned != 0 {
		t.Fatalf("wipe left %d interned pages", interned)
	}
}

// TestChecksumKeysClosedForm: the closed form equals the term-by-term
// wrapping sum, including where the intermediate products overflow.
func TestChecksumKeysClosedForm(t *testing.T) {
	for _, g := range []uint64{0, 1, 511, 1 << 20, 1<<63 + 12345, ^uint64(0) - 3} {
		for _, n := range []uint64{0, 1, 2, 3, 511, 512, 1000, 4097} {
			var want uint64
			for k := uint64(0); k < n; k++ {
				want += checksumKey(g + k)
			}
			if got := checksumKeys(g, n); got != want {
				t.Fatalf("checksumKeys(%d, %d) = %#x, want %#x", g, n, got, want)
			}
		}
	}
	// Halving the even factor must stay exact past 2^32 frames.
	for _, n := range []uint64{1<<33 + 1, 1 << 34} {
		tri := new(big.Int).Mul(new(big.Int).SetUint64(n), new(big.Int).SetUint64(n-1))
		tri.Rsh(tri, 1)
		want := new(big.Int).Mul(tri, big.NewInt(2654435761))
		want.Add(want, new(big.Int).Mul(big.NewInt(97), new(big.Int).SetUint64(n)))
		want.And(want, new(big.Int).SetUint64(^uint64(0)))
		if got := checksumKeys(0, n); got != want.Uint64() {
			t.Fatalf("checksumKeys(0, %d) = %#x, want %#x", n, got, want.Uint64())
		}
	}
}

// TestNewPhysMemIsLazy: a 64 GiB machine costs one PhysMem, its first
// leaf embedded, not a chunk table of its size or per-frame arrays; a
// retagged huge-page guest is one run, with no page table; and the page
// table a wipe frees is reused, via the spare list, by the next write.
func TestNewPhysMemIsLazy(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pm := NewPhysMem(64 * GiB)
	runtime.ReadMemStats(&after)
	// The race detector allocates beside the machine: the pin is the
	// plain build's, as every allocation budget is.
	if got := after.TotalAlloc - before.TotalAlloc; got > newPhysMemBytes && !raceEnabled {
		t.Fatalf("NewPhysMem(64 GiB) allocated %d bytes, want at most %d", got, newPhysMemBytes)
	}
	base, err := pm.Alloc2M(OwnerGuest, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := pm.SetOwnerRanges([]FrameRange{{Start: base, Count: FramesPer2M}}, OwnerGuest, 2); err != nil {
		t.Fatal(err)
	}
	if l := pm.dir[0]; len(l.runs) != 1 || l.written != [leafWords]uint64{} {
		t.Fatalf("retagged huge page: %d runs, written bits %v", len(l.runs), l.written)
	}
	// One transplant's worth of churn beside it: claim, write, wipe.
	cycle := func() {
		if err := pm.ClaimRange(base+FramesPer2M+3, 40, OwnerPRAM, -1); err != nil {
			t.Fatal(err)
		}
		if err := pm.Write(base+FramesPer2M+5, 0, []byte{1}); err != nil {
			t.Fatal(err)
		}
		pm.WipeRanges([]FrameRange{{Start: base, Count: FramesPer2M}})
	}
	cycle()
	if l := pm.dir[0]; len(l.runs) != 1 || l.pages[chunkOf(base)+1] != nil || l.written != [leafWords]uint64{} {
		t.Fatalf("wiped chunk: %d runs left, page table %v", len(l.runs), l.pages[chunkOf(base)+1] != nil)
	}
	pages := pm.sparePages
	if pages == nil || pages.next != nil {
		t.Fatal("wiped chunk's page table is not the one spare")
	}
	// Only the page itself (header and buffer) is allocated per cycle.
	if n := testing.AllocsPerRun(20, cycle); n > 2 {
		t.Fatalf("claim/write/wipe cycle allocates %.0f objects, want 2", n)
	}
	if pm.sparePages != pages || pages.next != nil {
		t.Fatal("page table reallocated instead of reused via the spare list")
	}
}

// TestChunkTablesReachFixedPoint: a host's bump cursor sweeps its memory
// transplant after transplant — allocate a resident set, write it, wipe
// all but the guest — and the per-frame tables and the leaves it holds,
// built or on the spare lists, stop growing once the first sweep has seen
// the most the cycle needs at once, instead of one per chunk or GiB ever
// visited. The machine is two leaves: the guest keeps the first built,
// and the cursor's pass through the second builds and drains it.
func TestChunkTablesReachFixedPoint(t *testing.T) {
	pm := NewPhysMem(2 * GiB)
	guest := FrameRange{Count: 32 * FramesPer2M}
	for i := 0; i < 32; i++ {
		if _, err := pm.Alloc2M(OwnerGuest, 1); err != nil {
			t.Fatal(err)
		}
	}
	held := func() (tables, leaves int) {
		for pages := pm.sparePages; pages != nil; pages = pages.next {
			tables++
		}
		for _, l := range pm.dir {
			for k := 0; l != nil && k < leafChunks; k++ {
				if l.pages[k] != nil {
					tables++
				}
			}
		}
		for l := pm.spareLeaves; l != nil; l = l.next {
			leaves++
		}
		for _, l := range pm.dir {
			if l != nil {
				leaves++
			}
		}
		return tables, leaves
	}
	peak, peakLeaves := 0, 0
	for sweep := 0; sweep < 5; sweep++ {
		for wrapped := false; !wrapped; {
			prev := pm.next
			rs, err := pm.AllocRanges(1500, OwnerHV, -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range rs {
				for m := r.Start; m < r.End(); m += 256 {
					if err := pm.Write(m, 0, []byte{1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			if wiped := pm.WipeRanges([]FrameRange{guest}); wiped != 1500 {
				t.Fatalf("wiped %d frames, want 1500", wiped)
			}
			wrapped = pm.next < prev
			if n, leaves := held(); sweep == 0 {
				peak, peakLeaves = max(peak, n), max(peakLeaves, leaves)
			} else if n != peak || leaves != peakLeaves {
				t.Fatalf("sweep %d: %d tables and %d leaves, first sweep's peak %d and %d",
					sweep, n, leaves, peak, peakLeaves)
			}
		}
	}
	if peak > 8 || peakLeaves != 2 {
		t.Fatalf("peak of %d tables and %d leaves, want the few one cycle holds at once and 2",
			peak, peakLeaves)
	}
	if pm.dir[1] != nil {
		t.Fatal("the wiped second leaf is still built")
	}
	if vs := pm.AuditOwners(map[int]bool{1: true}); vs != nil {
		t.Fatalf("audit: %v", vs)
	}
}

// TestConcurrentDisjointRanges drives content and ownership calls from
// par workers, each on its own range of one PhysMem (run under -race),
// and checks the result against a sequential run of the same work.
func TestConcurrentDisjointRanges(t *testing.T) {
	const workers, span = 8, chunkFrames + 100 // ranges straddle chunks
	run := func(width int) []uint64 {
		par.SetWorkers(width)
		defer par.SetWorkers(0)
		pm := NewPhysMem(workers * span * PageSize4K)
		pm.SetPageDedup(true)
		if _, err := pm.AllocRanges(workers*span, OwnerGuest, 1); err != nil {
			t.Fatal(err)
		}
		sums, err := par.Map(make([]struct{}, workers), func(w int, _ struct{}) (uint64, error) {
			start := MFN(w * span)
			page := make([]byte, PageSize4K)
			page[1] = 0xA5
			for k := 0; k < span; k += 7 {
				page[0] = byte(k % 3) // some pages identical across workers
				if err := pm.Write(start+MFN(k), 0, page); err != nil {
					return 0, err
				}
			}
			if err := pm.SetOwnerRanges([]FrameRange{{Start: start, Count: span}}, OwnerGuest, w); err != nil {
				return 0, err
			}
			var viaVisit uint64
			err := pm.ForEachTouched([]FrameRange{{Start: start, Count: span}}, func(i uint64, _ int, data []byte) error {
				m := start + MFN(i)
				viaVisit += crc64.Checksum(data, CRCTable) * checksumKey(uint64(m))
				return pm.ReadInto(m, 0, page)
			})
			if err != nil {
				return 0, err
			}
			sum, err := pm.ChecksumRange(start, span, GFN(start))
			if err != nil {
				return 0, err
			}
			if one, err := pm.Checksum(start); err != nil || one == zeroPageSum {
				return 0, fmt.Errorf("worker %d: Checksum = %#x, %v", w, one, err)
			}
			return sum ^ viaVisit, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if vs := pm.AuditOwners(map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true, 6: true, 7: true}); vs != nil {
			t.Fatalf("audit: %v", vs)
		}
		return sums
	}
	if seq, conc := run(1), run(workers); !reflect.DeepEqual(seq, conc) {
		t.Fatalf("concurrent run %v differs from sequential %v", conc, seq)
	}
}

// TestConcurrentInstalledPages: workers on disjoint runs that all hold
// one capture's pages — the shared pages every warm PRAM replay installs
// — checksum, read and write them at once (run under -race). Each write
// unshares only its own frame: the worker's run stops holding the
// capture, every other run and the captured frames still hold it, and the
// result matches a sequential run of the same work.
func TestConcurrentInstalledPages(t *testing.T) {
	const workers, span = 8, 40
	run := func(width int) []uint64 {
		par.SetWorkers(width)
		defer par.SetWorkers(0)
		pm := NewPhysMem((workers + 1) * chunkFrames * PageSize4K)
		origin, err := pm.AllocRanges(span, OwnerPRAM, -1)
		if err != nil {
			t.Fatal(err)
		}
		for k := 0; k < span; k++ {
			if err := pm.Write(origin[0].Start+MFN(k), 0, []byte{byte(k), 0xA5}); err != nil {
				t.Fatal(err)
			}
		}
		capture, err := pm.SharePages(origin)
		if err != nil {
			t.Fatal(err)
		}
		defer capture.Release()
		runs := make([][]FrameRange, workers)
		for w := range runs {
			start := MFN((w + 1) * chunkFrames)
			runs[w] = []FrameRange{{Start: start, Count: span}}
			if err := pm.ClaimRange(start, span, OwnerPRAM, -1); err != nil {
				t.Fatal(err)
			}
			if err := pm.InstallPages(runs[w], capture); err != nil {
				t.Fatal(err)
			}
		}
		sums, err := par.Map(runs, func(w int, rs []FrameRange) (uint64, error) {
			start := rs[0].Start
			sum, err := pm.ChecksumRange(start, span, 0)
			if err != nil {
				return 0, err
			}
			if err := pm.Write(start+MFN(w), 1, []byte{byte(w)}); err != nil {
				return 0, err
			}
			if pm.Holds(rs, capture) {
				return 0, fmt.Errorf("worker %d: run still holds the capture after a write", w)
			}
			after, err := pm.ChecksumRange(start, span, 0)
			return sum ^ after, err
		})
		if err != nil {
			t.Fatal(err)
		}
		if !pm.Holds(origin, capture) {
			t.Fatal("a write to an installed frame changed the captured frames")
		}
		if vs := pm.AuditOwners(nil); vs != nil {
			t.Fatalf("audit: %v", vs)
		}
		return sums
	}
	if seq, conc := run(1), run(workers); !reflect.DeepEqual(seq, conc) {
		t.Fatalf("concurrent run %v differs from sequential %v", conc, seq)
	}
}

// TestPageWindowContract: a page's backing store is its written window —
// sized by the first write, regrown once to a whole frame by a write
// outside it — and every reader sees the implicit zeros around it:
// ReadInto, Checksum and dedup behave as if each page held PageSize4K
// bytes.
func TestPageWindowContract(t *testing.T) {
	pm := NewPhysMem(64 * PageSize4K)
	rs, err := pm.AllocRanges(24, OwnerPRAM, -1)
	if err != nil {
		t.Fatal(err)
	}
	base := rs[0].Start
	// window is the window ForEachTouched hands out for frame m: its
	// offset, length (-1 if the frame is untouched) and first byte.
	window := func(m MFN) (off, n int, at *byte) {
		n = -1
		err := pm.ForEachTouched([]FrameRange{{Start: m, Count: 1}}, func(_ uint64, o int, data []byte) error {
			off, n = o, len(data)
			if len(data) > 0 {
				at = &data[0]
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return off, n, at
	}
	stored := func(m MFN) int { _, n, _ := window(m); return n }
	// matches reports whether frame m reads back as full and checksums as
	// full does.
	matches := func(m MFN, full []byte) error {
		got := bytes.Repeat([]byte{0xee}, PageSize4K)
		if err := pm.ReadInto(m, 0, got); err != nil || !bytes.Equal(got, full) {
			return fmt.Errorf("ReadInto differs from the written frame (err %v)", err)
		}
		if sum, err := pm.Checksum(m); err != nil || sum != crc64.Checksum(full, CRCTable) {
			return fmt.Errorf("Checksum %#x, %v; want the whole frame's", sum, err)
		}
		return nil
	}
	ones := bytes.Repeat([]byte{1}, PageSize4K)
	padded := append(bytes.Repeat([]byte{1}, 600), make([]byte, 3000)...)
	for i, tc := range []struct {
		off      int
		data     []byte
		lo, want int
	}{
		{0, ones[:100], 0, 512},           // rounded up to the quantum
		{0, padded, 0, 1024},              // trailing zeros dropped first
		{0, ones, 0, PageSize4K},          // a whole frame
		{0, make([]byte, 100), 0, 0},      // all zeros: touched, empty prefix
		{8, ones[:100], 8, 100},           // at an offset: exactly its bytes
		{0, ones[:prefixQuantum], 0, 512}, // exactly one quantum
		{300, make([]byte, 100), 300, 0},  // all zeros at an offset: empty window
		{40, padded, 40, 1024},            // trailing zero quanta dropped, not rounded up
		{4032, ones[:64], 4032, 64},       // up against the frame end
	} {
		m := base + MFN(i)
		if err := pm.Write(m, tc.off, tc.data); err != nil {
			t.Fatal(err)
		}
		if lo, n, _ := window(m); lo != tc.lo || n != tc.want {
			t.Errorf("case %d: first write of %d bytes at %d stored [%d,+%d), want [%d,+%d)", i, len(tc.data), tc.off, lo, n, tc.lo, tc.want)
		}
		full := make([]byte, PageSize4K)
		copy(full[tc.off:], tc.data)
		if err := matches(m, full); err != nil {
			t.Errorf("case %d: %v", i, err)
		}
	}
	// Within the prefix the page keeps its size; past it, it regrows to a
	// whole frame with its contents intact.
	if err := pm.Write(base, 200, ones[:300]); err != nil || stored(base) != 512 {
		t.Fatalf("write inside the prefix: err %v, stored %d", err, stored(base))
	}
	if err := pm.Write(base, 600, []byte{7}); err != nil || stored(base) != PageSize4K {
		t.Fatalf("write past the prefix: err %v, stored %d", err, stored(base))
	}
	got := make([]byte, 601)
	want := append(append(append([]byte(nil), ones[:100]...), make([]byte, 100)...), ones[:300]...)
	if err := pm.ReadInto(base, 0, got); err != nil || !bytes.Equal(got[:500], want) || got[500] != 0 || got[600] != 7 {
		t.Fatalf("regrown page lost contents (err %v)", err)
	}
	// A read that starts past the prefix is zeros.
	if err := pm.ReadInto(base+1, 2000, got); err != nil || !bytes.Equal(got, make([]byte, 601)) {
		t.Fatalf("read past the prefix not zero (err %v)", err)
	}

	// A window at [1000, 1064): a write inside it keeps it; one before,
	// across its start, across its end or around it regrows the page to a
	// whole frame once, contents intact.
	const wlo, whi = 1000, 1064
	for i, tc := range []struct {
		name   string
		off, n int
		keeps  bool
	}{
		{"inside", 1010, 10, true},
		{"before", 100, 100, false},
		{"across the start", 980, 30, false},
		{"across the end", 1050, 50, false},
		{"around", 900, 300, false},
	} {
		m := base + 9 + MFN(i)
		full := make([]byte, PageSize4K)
		copy(full[wlo:whi], ones)
		if err := pm.Write(m, wlo, ones[:whi-wlo]); err != nil {
			t.Fatal(err)
		}
		data := bytes.Repeat([]byte{byte(2 + i)}, tc.n)
		copy(full[tc.off:], data)
		if err := pm.Write(m, tc.off, data); err != nil {
			t.Fatal(err)
		}
		wantLo, wantN := 0, PageSize4K
		if tc.keeps {
			wantLo, wantN = wlo, whi-wlo
		}
		if lo, n, _ := window(m); lo != wantLo || n != wantN {
			t.Errorf("%s: write [%d,+%d) into window [%d,%d) stored [%d,+%d)", tc.name, tc.off, tc.n, wlo, whi, lo, n)
		}
		if err := matches(m, full); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
		if tc.keeps {
			continue
		}
		// Regrown once: a later write anywhere lands in the same buffer.
		_, _, at := window(m)
		full[3000] = 9
		if err := pm.Write(m, 3000, []byte{9}); err != nil {
			t.Fatal(err)
		}
		if _, _, again := window(m); again != at {
			t.Errorf("%s: a write into the regrown page reallocated it", tc.name)
		}
		if err := matches(m, full); err != nil {
			t.Errorf("%s, then a write at 3000: %v", tc.name, err)
		}
	}
	// ReadInto of a window's neighbourhood: the overlap, zeros around it.
	m := base + 9 // window [1000, 1064) holding ones, 2s at [1010, 1020)
	full := make([]byte, PageSize4K)
	if err := pm.ReadInto(m, 0, full); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]int{{990, 30}, {1050, 30}, {980, 100}, {1020, 10}, {0, 10}, {2000, 10}, {0, PageSize4K}, {whi, 0}} {
		part := bytes.Repeat([]byte{0xee}, r[1])
		if err := pm.ReadInto(m, r[0], part); err != nil || !bytes.Equal(part, full[r[0]:r[0]+r[1]]) {
			t.Errorf("ReadInto [%d,+%d) of window [%d,%d) = %v, %v", r[0], r[1], wlo, whi, part, err)
		}
	}
	if full[999] != 0 || full[1000] != 1 || full[1010] != 2 || full[1063] != 1 || full[1064] != 0 {
		t.Fatalf("window frame reads %v around its edges", full[998:1066])
	}

	// Dedup compares frames, not buffers: a 1 KiB prefix and a whole-frame
	// buffer with the same contents share one page, and so do a window
	// and a whole-frame buffer, whichever is written first.
	pm.SetPageDedup(true)
	// wholeFrame writes data at off into frame m through a whole-frame
	// buffer: a byte at 4000 first, then data outside its window, then
	// the byte zeroed in place.
	wholeFrame := func(m MFN, off int, data []byte) {
		for _, w := range []struct {
			off  int
			data []byte
		}{{4000, []byte{1}}, {off, data}, {4000, []byte{0}}} {
			if err := pm.Write(m, w.off, w.data); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := pm.Write(base+16, 0, padded); err != nil {
		t.Fatal(err)
	}
	wholeFrame(base+17, 0, padded[:600])
	if hits, _ := pm.PageDedupHits(); hits != 1 || stored(base+16) != stored(base+17) {
		t.Fatalf("dedup hits %d, stored %d and %d: a prefix and a whole-frame page with equal contents did not share", hits, stored(base+16), stored(base+17))
	}
	wholeFrame(base+18, wlo, ones[:whi-wlo])
	if err := pm.Write(base+19, wlo, ones[:whi-wlo]); err != nil {
		t.Fatal(err)
	}
	if err := pm.Write(base+20, wlo, ones[:whi-wlo]); err != nil {
		t.Fatal(err)
	}
	if hits, _ := pm.PageDedupHits(); hits != 3 || stored(base+18) != PageSize4K || stored(base+19) != PageSize4K || stored(base+20) != PageSize4K {
		t.Fatalf("dedup hits %d, stored %d, %d and %d: a window and a whole-frame page with equal contents did not share",
			hits, stored(base+18), stored(base+19), stored(base+20))
	}
	twos := bytes.Repeat([]byte{2}, whi-wlo)
	if err := pm.Write(base+21, wlo, twos); err != nil {
		t.Fatal(err)
	}
	wholeFrame(base+22, wlo, twos)
	if hits, _ := pm.PageDedupHits(); hits != 4 || stored(base+21) != whi-wlo || stored(base+22) != whi-wlo {
		t.Fatalf("dedup hits %d, stored %d and %d: a whole-frame page did not share the window written first", hits, stored(base+21), stored(base+22))
	}
}
