package hw

import "fmt"

// Violation is one frame-ownership inconsistency found by AuditOwners.
type Violation struct {
	// Kind classifies the inconsistency:
	//
	//	"dead-vm-frame"  a per-VM owner tag (guest, vmstate, vmmgmt)
	//	                 names a VM id that is not live — a leak left by
	//	                 a teardown or failed restore path
	//	"untagged-vm"    a per-VM owner tag carries no VM id at all
	//	"residue"        a free frame or a spare page table holds page
	//	                 contents, or a spare leaf chunk state — the
	//	                 wipe/free discipline was bypassed
	//	"accounting"     the cached counters or occupancy bits disagree
	//	                 with the ownership array itself, or a built
	//	                 leaf has no occupied chunk
	Kind  string
	MFN   MFN
	Owner Owner
	// VM is the owning VM id the tag carries (-1 when not applicable).
	VM     int
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: frame %#x owner=%v vm=%d: %s", v.Kind, uint64(v.MFN), v.Owner, v.VM, v.Detail)
}

// auditMaxPerKind caps how many violations of one kind a single audit
// reports: one leak path usually taints thousands of frames, and the
// first few pinpoint it.
const auditMaxPerKind = 8

// AuditOwners checks the ownership array against the set of live VM
// ids. Frames tagged with a per-VM owner whose VM id is not in liveVMs
// are leaks (a dead VM's memory was never freed or retagged); free
// frames with surviving page contents indicate a bypassed wipe; and the
// cached counters are recomputed from scratch so any drift in the
// bookkeeping itself surfaces. Double-ownership within one machine is
// structurally impossible here (one tag per frame) — cross-VM overlap
// is audited at the address-space layer, where the mappings live.
//
// A clean machine returns nil.
func (pm *PhysMem) AuditOwners(liveVMs map[int]bool) []Violation {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []Violation
	perKind := make(map[string]int)
	add := func(v Violation) {
		perKind[v.Kind]++
		if perKind[v.Kind] <= auditMaxPerKind {
			out = append(out, v)
		}
	}

	// Per-VM liveness check for one frame's effective tag.
	checkVM := func(m MFN, o Owner, v int32) {
		switch o {
		case OwnerGuest, OwnerVMState, OwnerVMMgmt:
			vm := int(v)
			if vm < 0 {
				add(Violation{Kind: "untagged-vm", MFN: m, Owner: o, VM: vm,
					Detail: "per-VM owner without a VM id"})
			} else if !liveVMs[vm] {
				add(Violation{Kind: "dead-vm-frame", MFN: m, Owner: o, VM: vm,
					Detail: "owned by a VM that is not live"})
			}
		}
	}

	var allocated uint64
	var byOwner [numOwners]uint64
	// A leaf is built by the allocation that occupies it and released when
	// its last chunk drains; a leaf that is not built is free throughout.
	for li, l := range pm.dir {
		if l != nil && l.occupied == [leafWords]uint64{} {
			add(Violation{Kind: "accounting", MFN: MFN(li * leafFrames), Owner: OwnerFree, VM: -1,
				Detail: "built leaf has no occupied chunk"})
		}
	}
	pm.eachChunk(func(ci int, c *chunk) {
		base, size := pm.chunkSpan(ci)
		if occupied := pm.dir[ci/leafChunks].occupied[ci/64%leafWords]>>(uint(ci)%64)&1 != 0; occupied != (c.alloc > 0) {
			add(Violation{Kind: "accounting", MFN: base, Owner: OwnerFree, VM: -1,
				Detail: fmt.Sprintf("occupancy bit %v, chunk counts %d allocated frames", occupied, c.alloc)})
		}
		if c.tags == nil {
			// Uniform chunk: one summary check covers every frame; only a
			// violating chunk pays the per-frame reporting loop.
			o, v := c.owner, c.vm
			if o == OwnerFree {
				return
			}
			byOwner[o] += size
			allocated += size
			bad := false
			switch o {
			case OwnerGuest, OwnerVMState, OwnerVMMgmt:
				bad = v < 0 || !liveVMs[int(v)]
			}
			if bad {
				for i := uint64(0); i < size; i++ {
					checkVM(base+MFN(i), o, v)
				}
			}
			return
		}
		for i := uint64(0); i < size; i++ {
			o := c.tags.owner[i]
			byOwner[o]++
			if o == OwnerFree {
				continue
			}
			allocated++
			checkVM(base+MFN(i), o, c.tags.vm[i])
		}
	})
	// Residue: page contents surviving under a free frame. Walked from
	// the page tables themselves (not the chunk counters, which could be
	// the very thing that drifted), in frame order.
	pm.eachChunk(func(ci int, c *chunk) {
		if c.pages == nil {
			return
		}
		base, size := pm.chunkSpan(ci)
		for i := uint64(0); i < size; i++ {
			if o, _ := c.tag(i); o == OwnerFree && c.pages.slot[i] != nil {
				add(Violation{Kind: "residue", MFN: base + MFN(i), Owner: OwnerFree, VM: -1,
					Detail: "free frame retains page contents"})
			}
		}
	})
	for pt := pm.sparePages; pt != nil; pt = pt.next {
		for i, p := range pt.slot {
			if p != nil {
				add(Violation{Kind: "residue", MFN: MFN(i), Owner: OwnerFree, VM: -1,
					Detail: "spare page table retains page contents (MFN is the slot)"})
			}
		}
	}
	// A spare leaf is handed to the next GiB allocated into: any state left
	// in it would surface there as another chunk's.
	for l := pm.spareLeaves; l != nil; l = l.next {
		for k := range l.chunks {
			if l.chunks[k] != (chunk{}) || l.occupied[k/64]>>(k%64)&1 != 0 {
				add(Violation{Kind: "residue", MFN: MFN(k * chunkFrames), Owner: OwnerFree, VM: -1,
					Detail: "spare leaf retains chunk state (MFN is the chunk's offset in the leaf)"})
			}
		}
	}
	if allocated != pm.allocated {
		add(Violation{Kind: "accounting", MFN: 0, Owner: OwnerFree, VM: -1,
			Detail: fmt.Sprintf("allocated counter %d, ownership array says %d", pm.allocated, allocated)})
	}
	for o := Owner(1); o < numOwners; o++ {
		if byOwner[o] != pm.byOwner[o] {
			add(Violation{Kind: "accounting", MFN: 0, Owner: o, VM: -1,
				Detail: fmt.Sprintf("byOwner[%v] counter %d, ownership array says %d", o, pm.byOwner[o], byOwner[o])})
		}
	}
	// Fixed order: audit output feeds byte-compared replay bundles.
	for _, kind := range []string{"dead-vm-frame", "untagged-vm", "residue", "accounting"} {
		if n := perKind[kind]; n > auditMaxPerKind {
			out = append(out, Violation{Kind: kind, MFN: 0, Owner: OwnerFree, VM: -1,
				Detail: fmt.Sprintf("... and %d more %s violations", n-auditMaxPerKind, kind)})
		}
	}
	return out
}
