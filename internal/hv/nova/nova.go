// Package nova models a NOVA-style microhypervisor re-engineered for
// HyperTP compliance — the third member of the datacenter's hypervisor
// pool (§3.1: "operators can have several hypervisors in their
// repertoire"). Microhypervisors are the paper's §6 *preventive*
// approach (tiny TCB); combining one with HyperTP gives the policy an
// escape even when a flaw like VENOM's shared QEMU hits both mainstream
// hypervisors at once.
//
// Its internal state format is distinct from both the Xen and KVM models:
//
//   - per-vCPU state lives in fixed 1 KiB UTCB snapshots (the NOVA
//     user-thread-control-block layout: an Mtd field-presence bitmap, a
//     selector-ordered segment array, then registers);
//   - MSRs are kept in an index-sorted array (NOVA's canonical order);
//   - guest memory is tracked by a delegation page table (DPT) of typed
//     capability ranges rather than a p2m or memslots;
//   - the platform is minimal: 24-pin IOAPIC, an RTC passthrough shadow,
//     and *no* 8254 PIT, HPET or ACPI PM timer (paravirtual time), so
//     transplants into NOVA drop those with the documented §4.2.1-style
//     compatibility events and transplants out re-synthesize defaults.
package nova

import (
	"cmp"
	"fmt"
	"slices"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/uisr"
)

// HVResidentBytes is the microhypervisor plus its root task: an order of
// magnitude below the monolithic stacks, per its design goal.
const HVResidentBytes = 96 << 20

// Version is the modeled release label.
const Version = "nova-mh-1.0"

// utcb is one vCPU's state snapshot in NOVA's layout. Field groups are
// guarded by the Mtd (message transfer descriptor) bitmap, as in NOVA's
// IPC state transfer.
type utcb struct {
	Mtd uint64 // which field groups are valid

	// Segment array in NOVA's selector order:
	// ES, CS, SS, DS, FS, GS, LDTR, TR — each (sel, ar, limit, base).
	Segs [8]novaSeg

	GPR  [16]uint64 // rax..r15 in architectural encoding order
	RIP  uint64
	RFL  uint64
	CR   [5]uint64 // cr0, cr2, cr3, cr4, cr8
	EFER uint64
	GDTR uisr.DTable
	IDTR uisr.DTable

	FPU   [512]byte
	XCR0  uint64
	XHead [64]byte
	XExt  [504]byte

	APICBase uint64
	LAPIC    [uisr.NumLAPICRegs]uint32

	MTRR uisr.MTRRState

	// MSR array, index-sorted (NOVA's canonical order).
	MSRs []uisr.MSR
}

type novaSeg struct {
	Sel   uint16
	Ar    uint16
	Limit uint32
	Base  uint64
}

// mtd bits for the field groups this model transfers.
const (
	mtdGPR uint64 = 1 << iota
	mtdSegs
	mtdCR
	mtdDT
	mtdFPU
	mtdXSave
	mtdAPIC
	mtdMTRR
	mtdMSRs

	mtdAll = mtdGPR | mtdSegs | mtdCR | mtdDT | mtdFPU | mtdXSave | mtdAPIC | mtdMTRR | mtdMSRs
)

// dptRange is one delegation-page-table entry: a typed capability over a
// guest-physical range.
type dptRange struct {
	GFNBase uint64
	MFNBase uint64
	Order   uint8
	Rights  uint8 // rwx bits; always 7 for guest RAM here
}

// protectionDomain is NOVA's per-VM container.
type protectionDomain struct {
	utcbs      []utcb
	dpt        []dptRange
	ioapic     [uisr.KVMIOAPICPins]uint64 // 24 pins, like KVM
	scPriority int
	rtc        uisr.RTC
	// drops records platform devices detached on the way in.
	drops struct {
		PIT, HPET, PMTimer bool
	}
	ioapicPinsDropped int
	stateFrames       []hw.FrameRange
}

// Boot instantiates the microhypervisor on the machine.
func Boot(m *hw.Machine) (hv.Hypervisor, error) {
	return hv.NewChassis(m, format{})
}

// format is NOVA's hv.Format: UTCB snapshots plus a DPT per protection
// domain.
type format struct{}

func (format) Kind() hv.Kind         { return hv.KindNOVA }
func (format) Version() string       { return Version }
func (format) ResidentBytes() uint64 { return HVResidentBytes }

// NativeBorn gives the guest NOVA's platform: 24 pins, no legacy timers.
func (format) NativeBorn(st *uisr.VMState) {
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	st.HasPIT, st.HasHPET, st.HasPMTimer = false, false, false
}

// FromUISR builds the protection domain: one UTCB per vCPU, the narrowed
// IOAPIC, and the DPT over mm.
func (format) FromUISR(st *uisr.VMState, mm uisr.MemMap) (hv.State, error) {
	// Scheduling-context priority, rebuilt from the neutral weight.
	pd := &protectionDomain{scPriority: st.SchedWeight(), utcbs: make([]utcb, len(st.VCPUs))}
	for i := range st.VCPUs {
		utcbFromUISR(&st.VCPUs[i], &pd.utcbs[i])
	}
	// IOAPIC: narrow to 24 pins (same fix as the KVM direction).
	pins := int(st.IOAPIC.NumPins)
	if pins > uisr.KVMIOAPICPins {
		pd.ioapicPinsDropped = pins - uisr.KVMIOAPICPins
		pins = uisr.KVMIOAPICPins
	}
	copy(pd.ioapic[:], st.IOAPIC.Redir[:pins])
	pd.rtc = st.RTC
	// NOVA has no legacy timers at all: record every drop.
	pd.drops.PIT = st.HasPIT
	pd.drops.HPET = st.HasHPET
	pd.drops.PMTimer = st.HasPMTimer

	pd.dpt = make([]dptRange, mm.Len())
	for i, e := range mm.Extents() {
		pd.dpt[i] = dptRange{GFNBase: e.GFN, MFNBase: e.MFN, Order: e.Order, Rights: 7}
	}
	return pd, nil
}

// Layout sizes the VM_i State frames: one UTCB page per vCPU + DPT
// pages, held by the microhypervisor, not in the frames' bytes.
func (pd *protectionDomain) Layout() (frames, size int) {
	return hv.FramesFor(len(pd.utcbs)*1024 + len(pd.dpt)*16), 0
}

// Fill writes nothing: Layout fills no byte.
func (pd *protectionDomain) Fill([]byte) {}

func (pd *protectionDomain) Place(frames []hw.FrameRange, shared bool) hv.State {
	if shared {
		cp := *pd
		pd = &cp
	}
	pd.stateFrames = frames
	return pd
}

func (pd *protectionDomain) Frames() []hw.FrameRange { return pd.stateFrames }

// ToUISR is the to_uisr path.
func (pd *protectionDomain) ToUISR() (*uisr.VMState, error) {
	st := &uisr.VMState{SourceHypervisor: "nova", VCPUs: make([]uisr.VCPU, len(pd.utcbs))}
	for i := range pd.utcbs {
		if err := utcbToUISR(uint32(i), &pd.utcbs[i], &st.VCPUs[i]); err != nil {
			return nil, fmt.Errorf("nova: vCPU %d: %w", i, err)
		}
	}
	st.Weight = uint16(pd.scPriority)
	st.IOAPIC.NumPins = uisr.KVMIOAPICPins
	copy(st.IOAPIC.Redir[:uisr.KVMIOAPICPins], pd.ioapic[:])
	st.RTC = pd.rtc
	// HasPIT/HasHPET/HasPMTimer stay false: NOVA emulates none of them.
	return st, nil
}

// MgmtBytes counts the scheduling contexts and the pd entry.
func (pd *protectionDomain) MgmtBytes() uint64 { return uint64(len(pd.utcbs)*64 + 96) }

// SCPriority returns a protection domain's scheduling-context priority
// (NOVA's management-state representation of the neutral UISR weight).
func SCPriority(h hv.Hypervisor, id hv.VMID) (int, error) {
	pd, err := hv.StateOf[*protectionDomain](h, id)
	if err != nil {
		return 0, err
	}
	return pd.scPriority, nil
}

// PlatformDrops reports the legacy devices detached when this VM was
// restored onto the microhypervisor.
func PlatformDrops(h hv.Hypervisor, id hv.VMID) (pit, hpet, pmtimer bool, err error) {
	pd, err := hv.StateOf[*protectionDomain](h, id)
	if err != nil {
		return false, false, false, err
	}
	return pd.drops.PIT, pd.drops.HPET, pd.drops.PMTimer, nil
}

// --- UISR converters ---------------------------------------------------------

// utcbFromUISR fills u, a zero UTCB, from one neutral vCPU.
func utcbFromUISR(v *uisr.VCPU, u *utcb) {
	u.Mtd = mtdAll
	// NOVA's selector order: ES, CS, SS, DS, FS, GS, LDTR, TR.
	segs := [...]uisr.Segment{v.SRegs.ES, v.SRegs.CS, v.SRegs.SS, v.SRegs.DS,
		v.SRegs.FS, v.SRegs.GS, v.SRegs.LDT, v.SRegs.TR}
	for i, s := range segs {
		u.Segs[i] = novaSeg{Sel: s.Selector, Ar: s.Attr, Limit: s.Limit, Base: s.Base}
	}
	u.GPR = [16]uint64{
		v.Regs.RAX, v.Regs.RCX, v.Regs.RDX, v.Regs.RBX,
		v.Regs.RSP, v.Regs.RBP, v.Regs.RSI, v.Regs.RDI,
		v.Regs.R8, v.Regs.R9, v.Regs.R10, v.Regs.R11,
		v.Regs.R12, v.Regs.R13, v.Regs.R14, v.Regs.R15,
	}
	u.RIP, u.RFL = v.Regs.RIP, v.Regs.RFLAGS
	u.CR = [5]uint64{v.SRegs.CR0, v.SRegs.CR2, v.SRegs.CR3, v.SRegs.CR4, v.SRegs.CR8}
	u.EFER = v.SRegs.EFER
	u.GDTR, u.IDTR = v.SRegs.GDT, v.SRegs.IDT
	u.FPU = v.FPU.Data
	u.XCR0, u.XHead, u.XExt = v.XSave.XCR0, v.XSave.Header, v.XSave.Extended
	u.APICBase = v.LAPIC.Base
	u.LAPIC = v.LAPIC.Regs
	u.MTRR = v.MTRR
	u.MSRs = append([]uisr.MSR(nil), v.MSRs...)
	slices.SortFunc(u.MSRs, func(a, b uisr.MSR) int { return cmp.Compare(a.Index, b.Index) })
}

// utcbToUISR fills v, a zero vCPU, from one UTCB.
func utcbToUISR(id uint32, u *utcb, v *uisr.VCPU) error {
	if u.Mtd != mtdAll {
		return fmt.Errorf("utcb mtd %#x incomplete (want %#x)", u.Mtd, mtdAll)
	}
	v.ID = id
	seg := func(i int) uisr.Segment {
		s := u.Segs[i]
		return uisr.Segment{Selector: s.Sel, Attr: s.Ar, Limit: s.Limit, Base: s.Base}
	}
	v.SRegs.ES, v.SRegs.CS, v.SRegs.SS, v.SRegs.DS = seg(0), seg(1), seg(2), seg(3)
	v.SRegs.FS, v.SRegs.GS, v.SRegs.LDT, v.SRegs.TR = seg(4), seg(5), seg(6), seg(7)
	v.Regs = uisr.Regs{
		RAX: u.GPR[0], RCX: u.GPR[1], RDX: u.GPR[2], RBX: u.GPR[3],
		RSP: u.GPR[4], RBP: u.GPR[5], RSI: u.GPR[6], RDI: u.GPR[7],
		R8: u.GPR[8], R9: u.GPR[9], R10: u.GPR[10], R11: u.GPR[11],
		R12: u.GPR[12], R13: u.GPR[13], R14: u.GPR[14], R15: u.GPR[15],
		RIP: u.RIP, RFLAGS: u.RFL,
	}
	v.SRegs.CR0, v.SRegs.CR2, v.SRegs.CR3, v.SRegs.CR4, v.SRegs.CR8 =
		u.CR[0], u.CR[1], u.CR[2], u.CR[3], u.CR[4]
	v.SRegs.EFER = u.EFER
	v.SRegs.GDT, v.SRegs.IDT = u.GDTR, u.IDTR
	v.SRegs.APICBase = u.APICBase
	v.FPU.Data = u.FPU
	v.XSave.XCR0, v.XSave.Header, v.XSave.Extended = u.XCR0, u.XHead, u.XExt
	v.LAPIC.Base = u.APICBase
	v.LAPIC.Regs = u.LAPIC
	v.LAPIC.ID = u.LAPIC[2] >> 24
	v.MTRR = u.MTRR
	v.MSRs = append([]uisr.MSR(nil), u.MSRs...)
	return nil
}
