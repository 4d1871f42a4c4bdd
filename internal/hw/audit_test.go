package hw

import (
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
	last := pm.chunk(int(pm.TotalFrames()/chunkFrames) - 1)
	last.pages = new(pageTable)
	last.pages.slot[chunkFrames-1] = &page{buf: make([]byte, PageSize4K), refs: 1}
	vs := pm.AuditOwners(live)
	if len(vs) != 1 || vs[0].Kind != "residue" {
		t.Fatalf("violations = %v", vs)
	}
	// A spare page table is handed to the next chunk written: a slot left
	// set would surface there as another frame's contents.
	last.pages = nil
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
	// An occupancy bit that disagrees with its chunk: a wipe would skip
	// the occupied chunk 0, or visit the free chunk 1.
	pm.dir[0].occupied[0] ^= 0b11
	vs = pm.AuditOwners(live)
	if len(vs) != 2 || vs[0].Kind != "accounting" || vs[0].MFN != 0 || vs[1].MFN != chunkFrames {
		t.Fatalf("violations = %v", vs)
	}
}

// TestAuditLeaves: a built leaf holds an occupied chunk, and a spare leaf
// is all zero. A leaf released with a chunk still occupied breaks both: its
// frames read as free though counted allocated, and its state waits in
// the spare list for the next GiB built.
func TestAuditLeaves(t *testing.T) {
	pm := NewPhysMem(2 * GiB)
	pm.build(leafChunks) // leaf 1, built with nothing allocated in it
	vs := pm.AuditOwners(nil)
	if len(vs) != 1 || vs[0].Kind != "accounting" || vs[0].MFN != leafFrames || !strings.Contains(vs[0].Detail, "no occupied chunk") {
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
