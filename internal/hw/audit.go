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
	//	"double-owner"   two runs of a leaf overlap: their common
	//	                 frames have two tags
	//	"residue"        a free frame or a spare page table holds page
	//	                 contents, or a spare leaf runs or a page table —
	//	                 the wipe/free discipline was bypassed
	//	"accounting"     a leaf's runs are out of order, unmerged, empty,
	//	                 past the leaf's end or tagged free, a built leaf
	//	                 has none, or the cached counters, written bits
	//	                 or page-table counts disagree with what they
	//	                 summarize
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

// AuditOwners checks each leaf's runs, the ownership itself, against the
// set of live VM ids and against the machine's other records. Frames
// tagged with a per-VM owner whose VM id is not in liveVMs are leaks (a
// dead VM's memory was never freed or retagged); free frames with
// surviving page contents indicate a bypassed wipe; runs that overlap own
// their common frames twice; runs out of order, unmerged, empty, outside
// their leaf or tagged free, and a built leaf with no run, break what
// every ownership walk relies on; and the cached counters are recomputed
// from the runs so any drift in the bookkeeping itself surfaces.
// Cross-VM overlap of mappings is audited at the address-space layer,
// where the mappings live.
//
// A clean machine returns nil.
func (pm *PhysMem) AuditOwners(liveVMs map[int]bool) []Violation {
	pm.mu.Lock()
	defer pm.mu.Unlock()
	var out []Violation
	perKind := make(map[string]int)
	// add reports the n frames from v.MFN, itemizing what the kind's cap
	// leaves room for.
	add := func(v Violation, n uint64) {
		for ; n > 0 && perKind[v.Kind] < auditMaxPerKind; n, v.MFN = n-1, v.MFN+1 {
			perKind[v.Kind]++
			out = append(out, v)
		}
		perKind[v.Kind] += int(n)
	}
	accounting := func(m MFN, o Owner, format string, args ...any) {
		add(Violation{Kind: "accounting", MFN: m, Owner: o, VM: -1, Detail: fmt.Sprintf(format, args...)}, 1)
	}

	var allocated uint64
	var byOwner [numOwners]uint64
	// A leaf is built by the allocation that enters it and released when
	// its last run goes; a leaf that is not built is free throughout.
	for li, l := range pm.dir {
		if l == nil {
			continue
		}
		base := MFN(li * leafFrames)
		size := min(leafFrames, pm.totalFrames-uint64(base))
		if len(l.runs) == 0 {
			accounting(base, OwnerFree, "built leaf has no run")
		}
		for i, r := range l.runs {
			at := base + MFN(r.start)
			switch {
			case r.count == 0:
				accounting(at, r.owner, "empty run")
			case uint64(r.start)+uint64(r.count) > size:
				accounting(at, r.owner, "run of %d frames past its leaf's end", r.count)
			case r.owner == OwnerFree || r.owner >= numOwners:
				accounting(at, r.owner, "run of %d frames tagged %v", r.count, r.owner)
			}
			if i > 0 {
				switch p := l.runs[i-1]; {
				case r.start < p.start:
					accounting(at, r.owner, "run out of order after the run at %#x", uint64(base)+uint64(p.start))
				case r.start < p.end():
					add(Violation{Kind: "double-owner", MFN: at, Owner: r.owner, VM: int(r.vm),
						Detail: fmt.Sprintf("also owned by %v/%d", p.owner, p.vm)}, uint64(min(p.end(), r.end())-r.start))
				case r.start == p.end() && r.owner == p.owner && r.vm == p.vm:
					accounting(at, r.owner, "run not merged with the run before it")
				}
			}
			if r.owner < numOwners {
				byOwner[r.owner] += uint64(r.count)
			}
			allocated += uint64(r.count)
			switch r.owner {
			case OwnerGuest, OwnerVMState, OwnerVMMgmt:
				if r.vm < 0 {
					add(Violation{Kind: "untagged-vm", MFN: at, Owner: r.owner, VM: int(r.vm),
						Detail: "per-VM owner without a VM id"}, uint64(r.count))
				} else if !liveVMs[int(r.vm)] {
					add(Violation{Kind: "dead-vm-frame", MFN: at, Owner: r.owner, VM: int(r.vm),
						Detail: "owned by a VM that is not live"}, uint64(r.count))
				}
			}
		}
		// Residue: page contents surviving under a free frame. Walked from
		// the page tables themselves (not the written bits or the tables'
		// counts, which could be the very thing that drifted), in frame
		// order.
		for k, t := range l.pages {
			at := base + MFN(k*chunkFrames)
			if written := l.written[k/64]>>(k%64)&1 != 0; written != (t != nil) {
				accounting(at, OwnerFree, "written bit %v, chunk has a page table %v", written, t != nil)
			}
			if t == nil {
				continue
			}
			n := uint32(0)
			for i, p := range t.slot {
				if p == nil {
					continue
				}
				n++
				off := uint32(k*chunkFrames + i)
				if j := l.find(off); j == len(l.runs) || l.runs[j].start > off {
					add(Violation{Kind: "residue", MFN: at + MFN(i), Owner: OwnerFree, VM: -1,
						Detail: "free frame retains page contents"}, 1)
				}
			}
			if n != t.n || n == 0 {
				accounting(at, OwnerFree, "page table counts %d pages, holds %d", t.n, n)
			}
		}
	}
	for t := pm.sparePages; t != nil; t = t.next {
		for i, p := range t.slot {
			if p != nil {
				add(Violation{Kind: "residue", MFN: MFN(i), Owner: OwnerFree, VM: -1,
					Detail: "spare page table retains page contents (MFN is the slot)"}, 1)
			}
		}
	}
	// A spare leaf is handed to the next GiB allocated into: any state left
	// in it would surface there as that GiB's.
	for l := pm.spareLeaves; l != nil; l = l.next {
		if len(l.runs) > 0 {
			add(Violation{Kind: "residue", MFN: MFN(l.runs[0].start), Owner: l.runs[0].owner, VM: -1,
				Detail: fmt.Sprintf("spare leaf retains %d runs (MFN is the first's offset in the leaf)", len(l.runs))}, 1)
		}
		for k, t := range l.pages {
			if t != nil || l.written[k/64]>>(k%64)&1 != 0 {
				add(Violation{Kind: "residue", MFN: MFN(k * chunkFrames), Owner: OwnerFree, VM: -1,
					Detail: "spare leaf retains a page table (MFN is the chunk's offset in the leaf)"}, 1)
			}
		}
	}
	if allocated != pm.allocated {
		accounting(0, OwnerFree, "allocated counter %d, runs say %d", pm.allocated, allocated)
	}
	for o := Owner(1); o < numOwners; o++ {
		if byOwner[o] != pm.byOwner[o] {
			accounting(0, o, "byOwner[%v] counter %d, runs say %d", o, pm.byOwner[o], byOwner[o])
		}
	}
	// Fixed order: audit output feeds byte-compared replay bundles.
	for _, kind := range []string{"dead-vm-frame", "untagged-vm", "double-owner", "residue", "accounting"} {
		if n := perKind[kind]; n > auditMaxPerKind {
			out = append(out, Violation{Kind: kind, MFN: 0, Owner: OwnerFree, VM: -1,
				Detail: fmt.Sprintf("... and %d more %s violations", n-auditMaxPerKind, kind)})
		}
	}
	return out
}
