package hw

import (
	"slices"
	"strings"
	"testing"
)

// auditMem allocates a few frames for VM 1 and returns the memory plus
// the live set that makes it audit clean.
func auditMem(t *testing.T) (*PhysMem, map[int]bool) {
	t.Helper()
	pm := newTestMem()
	if _, err := pm.AllocRanges(16, OwnerGuest, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocRanges(4, OwnerVMState, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := pm.AllocRanges(8, OwnerHV, 0); err != nil {
		t.Fatal(err)
	}
	return pm, map[int]bool{1: true}
}

func TestAuditCleanMachine(t *testing.T) {
	pm, live := auditMem(t)
	if vs := pm.AuditOwners(live); vs != nil {
		t.Fatalf("clean machine reported %v", vs)
	}
	// HV/PRAM/kexec frames carry no VM id and are exempt from liveness.
	if vs := pm.AuditOwners(map[int]bool{1: true, 99: true}); vs != nil {
		t.Fatalf("extra live ids reported %v", vs)
	}
}

func TestAuditDeadVMFrame(t *testing.T) {
	pm, live := auditMem(t)
	mfns, err := frames(pm.AllocRanges(1, OwnerVMState, 7)) // VM 7 is not live
	if err != nil {
		t.Fatal(err)
	}
	vs := pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "dead-vm-frame" || vs[0].MFN != mfns[0] || vs[0].VM != 7 {
		t.Fatalf("violations = %v", vs)
	}
	if !strings.Contains(vs[0].String(), "dead-vm-frame") {
		t.Fatalf("String() = %q", vs[0].String())
	}
}

func TestAuditUntaggedVM(t *testing.T) {
	pm, live := auditMem(t)
	if _, err := pm.AllocRanges(1, OwnerGuest, -1); err != nil {
		t.Fatal(err)
	}
	vs := pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "untagged-vm" {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAuditResidue(t *testing.T) {
	pm, live := auditMem(t)
	// Plant contents under a free frame directly: the public API cannot
	// produce this state — which is exactly what the audit is for.
	l, last := pm.dir[0], int(pm.TotalFrames()/chunkFrames)-1
	pm.table(l, last).slot[chunkFrames-1] = &page{buf: make([]byte, PageSize4K), refs: 1}
	l.pages[last].n++
	vs := pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "residue" {
		t.Fatalf("violations = %v", vs)
	}
	// A spare page table is handed to the next chunk written: a slot left
	// set would surface there as another frame's contents.
	l.pages[last], l.written = nil, [leafWords]uint64{}
	pm.sparePages = &pageTable{next: pm.sparePages}
	pm.sparePages.slot[7] = &page{buf: make([]byte, PageSize4K), refs: 1}
	vs = pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "residue" || vs[0].MFN != 7 {
		t.Fatalf("violations = %v", vs)
	}
}

func TestAuditAccountingDrift(t *testing.T) {
	pm, live := auditMem(t)
	pm.allocated++ // simulate a lost decrement
	vs := pm.AuditOwners(live)
	if len(vs) == 0 || vs[0].Kind != "accounting" {
		t.Fatalf("violations = %v", vs)
	}
	pm.allocated--
	pm.byOwner[OwnerGuest]++ // per-owner counter drift
	vs = pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "accounting" || vs[0].Owner != OwnerGuest {
		t.Fatalf("violations = %v", vs)
	}
	pm.byOwner[OwnerGuest]--
	// A written bit that disagrees with its chunk: a wipe would visit the
	// unwritten chunks 0 and 1 for contents they do not have.
	pm.dir[0].written[0] ^= 0b11
	vs = pm.AuditOwners(live)
	if len(vs) != 2 || vs[0].Kind != "accounting" || vs[0].MFN != 0 || vs[1].MFN != chunkFrames {
		t.Fatalf("violations = %v", vs)
	}
}

// TestAuditLeaves: a built leaf holds a run, and a spare leaf is all
// zero. A leaf released with a run still in it breaks both: its
// frames read as free though counted allocated, and its state waits in
// the spare list for the next GiB built.
func TestAuditLeaves(t *testing.T) {
	pm := NewPhysMem(2 * GiB)
	pm.build(1) // leaf 1, built with nothing allocated in it
	vs := pm.AuditOwners(nil)
	if len(vs) != 1 || vs[0].Kind != "accounting" || vs[0].MFN != leafFrames || !strings.Contains(vs[0].Detail, "no run") {
		t.Fatalf("violations = %v", vs)
	}
	pm, live := auditMem(t)
	l := pm.dir[0]
	pm.dir[0], l.next, pm.spareLeaves = nil, pm.spareLeaves, l
	vs = pm.AuditOwners(live)
	if len(vs) == 0 || vs[0].Kind != "residue" || vs[0].MFN != 0 || !strings.Contains(vs[0].Detail, "spare leaf") {
		t.Fatalf("violations = %v", vs)
	}
	if last := vs[len(vs)-1]; last.Kind != "accounting" {
		t.Fatalf("released occupied leaf: no accounting violation in %v", vs)
	}
}

// TestAuditRuns plants each way a leaf's runs can break what the
// ownership walks rely on, counters kept agreeing, and checks the audit
// names it. auditMem's leaf holds guest [0,16), vmstate [16,20) and hv
// [20,28), in a leaf of 16,384 frames.
func TestAuditRuns(t *testing.T) {
	for _, tc := range []struct {
		name   string
		plant  func(pm *PhysMem, l *leaf)
		kind   string
		mfn    MFN
		n      int // violations
		detail string
	}{
		{"empty", func(pm *PhysMem, l *leaf) {
			l.runs = slices.Insert(l.runs, 3, run{start: 40, owner: OwnerHV, vm: -1})
		}, "accounting", 40, 1, "empty run"},
		{"past the leaf's end", func(pm *PhysMem, l *leaf) {
			l.runs = append(l.runs, run{16380, 8, -1, OwnerHV})
			pm.allocated += 8
			pm.byOwner[OwnerHV] += 8
		}, "accounting", 16380, 1, "past its leaf's end"},
		{"tagged free", func(pm *PhysMem, l *leaf) {
			l.runs[2].owner = OwnerFree
			pm.byOwner[OwnerHV] -= 8
		}, "accounting", 20, 1, "tagged free"},
		{"out of order", func(pm *PhysMem, l *leaf) {
			l.runs[1], l.runs[2] = l.runs[2], l.runs[1]
		}, "accounting", 16, 1, "out of order"},
		{"overlapping", func(pm *PhysMem, l *leaf) {
			l.runs[1] = run{12, 8, 1, OwnerVMState} // frames 12-15 are the guest's too
			pm.allocated += 4
			pm.byOwner[OwnerVMState] += 4
		}, "double-owner", 12, 4, "also owned by guest/1"},
		{"unmerged", func(pm *PhysMem, l *leaf) {
			l.runs = slices.Insert(l.runs, 1, run{8, 8, 1, OwnerGuest})
			l.runs[0].count = 8
		}, "accounting", 8, 1, "not merged"},
		{"page count", func(pm *PhysMem, l *leaf) {
			if err := pm.Write(3, 0, []byte{1}); err != nil {
				t.Fatal(err)
			}
			l.pages[0].n++
		}, "accounting", 0, 1, "counts 2 pages, holds 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pm, live := auditMem(t)
			tc.plant(pm, pm.dir[0])
			vs := pm.AuditOwners(live)
			if len(vs) != tc.n || vs[0].Kind != tc.kind || vs[0].MFN != tc.mfn || !strings.Contains(vs[0].Detail, tc.detail) {
				t.Fatalf("violations = %v", vs)
			}
		})
	}
}

func TestAuditOverflowSummary(t *testing.T) {
	pm, live := auditMem(t)
	if _, err := pm.AllocRanges(auditMaxPerKind+5, OwnerGuest, 9); err != nil {
		t.Fatal(err)
	}
	vs := pm.AuditOwners(live)
	// auditMaxPerKind itemized + one trailing summary line.
	if len(vs) != auditMaxPerKind+1 {
		t.Fatalf("got %d violations, want %d", len(vs), auditMaxPerKind+1)
	}
	last := vs[len(vs)-1]
	if !strings.Contains(last.Detail, "5 more dead-vm-frame") {
		t.Fatalf("summary line = %q", last.Detail)
	}
}

// TestChecksumCacheInvalidation: the cached per-frame CRC must follow
// writes, frees, and wipes — a stale cache would blind the integrity
// audit.
func TestChecksumCacheInvalidation(t *testing.T) {
	pm := newTestMem()
	mfns, err := frames(pm.AllocRanges(1, OwnerGuest, 1))
	if err != nil {
		t.Fatal(err)
	}
	m := mfns[0]
	zero, err := pm.Checksum(m)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := pm.Checksum(m) // cached path
	if again != zero {
		t.Fatal("cached checksum differs from first computation")
	}
	if err := pm.Write(m, 0, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	dirty, _ := pm.Checksum(m)
	if dirty == zero {
		t.Fatal("checksum unchanged after write — stale cache")
	}
	if err := pm.FreeRange(m, 1); err != nil {
		t.Fatal(err)
	}
	re, err := frames(pm.AllocRanges(1, OwnerGuest, 1))
	if err != nil {
		t.Fatal(err)
	}
	// Wherever the frame landed, a fresh allocation reads as zeros.
	sum, err := pm.Checksum(re[0])
	if err != nil {
		t.Fatal(err)
	}
	if sum != zero {
		t.Fatalf("recycled frame checksum %#x, want zero-page %#x", sum, zero)
	}
	if err := pm.Write(re[0], 0, []byte{9}); err != nil {
		t.Fatal(err)
	}
	pm.WipeRanges(nil)
	if _, err := pm.Checksum(re[0]); err == nil {
		t.Fatal("checksum of wiped frame succeeded")
	}
	// The drained leaf is spare again, with no chunk state left in it.
	if vs := pm.AuditOwners(nil); pm.dir[0] != nil || vs != nil {
		t.Fatalf("wipe of every frame left its leaf built (%v) or state behind: %v", pm.dir[0] != nil, vs)
	}
}
