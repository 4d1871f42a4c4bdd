// Package kvm models a Linux-5.3/KVM-flavoured type-II hypervisor with a
// kvmtool userspace VMM, re-engineered for HyperTP compliance. Its
// internal state format is deliberately different from the Xen model's:
// platform state is held in ioctl-shaped sections (KVM_GET/SET_REGS,
// _SREGS, _MSRS, _FPU, _XSAVE, _XCRS, _LAPIC, _IRQCHIP, _PIT2), segment
// descriptors are stored bit-decomposed rather than packed, the LAPIC is
// a raw 1 KiB register page, MTRR and APIC-base state live inside the MSR
// array, and the IOAPIC has 24 pins. The UISR converters in this package
// implement the from/to translations and the §4.2.1 compatibility fixes.
package kvm

import (
	"encoding/binary"
	"fmt"

	"hypertp/internal/uisr"
)

// Architectural MSR indices used by the KVM-side encoding of state that
// Xen keeps in dedicated records (Table 2: LAPIC→MSRS, MTRR→MSRS).
const (
	msrAPICBase      = 0x0000001b
	msrMTRRCap       = 0x000000fe
	msrMTRRDefType   = 0x000002ff
	msrMTRRFix0      = 0x00000250 // 64K_00000
	msrMTRRFix1      = 0x00000258 // 16K_80000
	msrMTRRFix2      = 0x00000259 // 16K_A0000
	msrMTRRFixBase   = 0x00000268 // 4K_C0000 .. 4K_F8000 (8 registers)
	msrMTRRPhysBase0 = 0x00000200
)

// kvmRegs mirrors struct kvm_regs: note the field order differs from
// Xen's hvmCPU.
type kvmRegs struct {
	RAX, RBX, RCX, RDX uint64
	RSI, RDI, RSP, RBP uint64
	R8, R9, R10, R11   uint64
	R12, R13, R14, R15 uint64
	RIP, RFLAGS        uint64
}

// kvmSegment mirrors struct kvm_segment: the descriptor attributes are
// bit-decomposed instead of packed into an attr word.
type kvmSegment struct {
	Base     uint64
	Limit    uint32
	Selector uint16
	Type     uint8
	Present  uint8
	DPL      uint8
	DB       uint8
	S        uint8
	L        uint8
	G        uint8
	AVL      uint8
}

// kvmDtable mirrors struct kvm_dtable.
type kvmDtable struct {
	Base  uint64
	Limit uint16
}

// kvmSregs mirrors struct kvm_sregs.
type kvmSregs struct {
	CS, DS, ES, FS, GS, SS, TR, LDT kvmSegment
	GDT, IDT                        kvmDtable
	CR0, CR2, CR3, CR4, CR8         uint64
	EFER                            uint64
	APICBase                        uint64
	InterruptBitmap                 [4]uint64
}

// kvmMsrEntry mirrors struct kvm_msr_entry.
type kvmMsrEntry struct {
	Index uint32
	Pad   uint32
	Value uint64
}

// kvmFpu mirrors struct kvm_fpu (FXSAVE image).
type kvmFpu struct {
	Data [512]byte
}

// kvmXsave mirrors the XSAVE region beyond FXSAVE: header then extended
// area.
type kvmXsave struct {
	Region [568]byte // 64-byte header + 504-byte extended area
}

// kvmXcrs mirrors struct kvm_xcrs (only XCR0 in this model).
type kvmXcrs struct {
	XCR0 uint64
}

// kvmLapicState mirrors struct kvm_lapic_state: the raw 1 KiB APIC
// register page, one 32-bit register per 16-byte stride.
type kvmLapicState struct {
	Regs [1024]byte
}

// kvmIOAPIC is the IOAPIC half of struct kvm_irqchip: 24 pins.
type kvmIOAPIC struct {
	ID    uint32
	Redir [uisr.KVMIOAPICPins]uint64
}

// kvmPitChannel mirrors struct kvm_pit_channel_state.
type kvmPitChannel struct {
	Count         uint32
	LatchedCount  uint32
	Mode          uint8
	BCD           uint8
	Gate          uint8
	OutHigh       uint8
	CountLoadTime uint64
}

// kvmPit2 mirrors struct kvm_pit_state2.
type kvmPit2 struct {
	Channels [3]kvmPitChannel
	Flags    uint32 // bit0: speaker data on
}

// kvmtoolRTC is kvmtool's MC146818 device model: it keeps the index
// register first and the CMOS bank after it — a different layout from
// Xen's record, bridged by the converters.
type kvmtoolRTC struct {
	Index uint8
	CMOS  [128]byte
}

// platformDrops records the Xen→KVM device compatibility fixes applied
// at restore time (§4.2.1 / §4.2.3): platform timers kvmtool does not
// emulate are detached after notifying the guest.
type platformDrops struct {
	HPET    bool
	PMTimer bool
}

// vcpuState is the full per-vCPU ioctl state set kvmtool holds for one
// vCPU fd.
type vcpuState struct {
	regs  kvmRegs
	sregs kvmSregs
	msrs  []kvmMsrEntry
	fpu   kvmFpu
	xsave kvmXsave
	xcrs  kvmXcrs
	lapic kvmLapicState
}

// --- from_uisr_* family -----------------------------------------------------

// vcpuFromUISR translates one neutral vCPU into KVM ioctl state, in place.
// MTRR and APIC-base state is folded into the MSR array (Table 2).
func vcpuFromUISR(v *uisr.VCPU, st *vcpuState) {
	st.regs = kvmRegs{
		RAX: v.Regs.RAX, RBX: v.Regs.RBX, RCX: v.Regs.RCX, RDX: v.Regs.RDX,
		RSI: v.Regs.RSI, RDI: v.Regs.RDI, RSP: v.Regs.RSP, RBP: v.Regs.RBP,
		R8: v.Regs.R8, R9: v.Regs.R9, R10: v.Regs.R10, R11: v.Regs.R11,
		R12: v.Regs.R12, R13: v.Regs.R13, R14: v.Regs.R14, R15: v.Regs.R15,
		RIP: v.Regs.RIP, RFLAGS: v.Regs.RFLAGS,
	}
	st.sregs = kvmSregs{
		CS: segFromUISR(v.SRegs.CS), DS: segFromUISR(v.SRegs.DS),
		ES: segFromUISR(v.SRegs.ES), FS: segFromUISR(v.SRegs.FS),
		GS: segFromUISR(v.SRegs.GS), SS: segFromUISR(v.SRegs.SS),
		TR: segFromUISR(v.SRegs.TR), LDT: segFromUISR(v.SRegs.LDT),
		GDT: kvmDtable{Base: v.SRegs.GDT.Base, Limit: v.SRegs.GDT.Limit},
		IDT: kvmDtable{Base: v.SRegs.IDT.Base, Limit: v.SRegs.IDT.Limit},
		CR0: v.SRegs.CR0, CR2: v.SRegs.CR2, CR3: v.SRegs.CR3,
		CR4: v.SRegs.CR4, CR8: v.SRegs.CR8,
		EFER: v.SRegs.EFER, APICBase: v.LAPIC.Base,
	}
	// Generic MSRs first, then the KVM-side encodings of LAPIC base and
	// MTRR state.
	st.msrs = make([]kvmMsrEntry, 0, len(v.MSRs)+1+mtrrMSRs)
	for _, m := range v.MSRs {
		st.msrs = append(st.msrs, kvmMsrEntry{Index: m.Index, Value: m.Value})
	}
	st.msrs = append(st.msrs, kvmMsrEntry{Index: msrAPICBase, Value: v.LAPIC.Base})
	st.msrs = appendMTRR(st.msrs, &v.MTRR)

	st.fpu.Data = v.FPU.Data
	copy(st.xsave.Region[:64], v.XSave.Header[:])
	copy(st.xsave.Region[64:], v.XSave.Extended[:])
	st.xcrs.XCR0 = v.XSave.XCR0
	for i := 0; i < uisr.NumLAPICRegs; i++ {
		binary.LittleEndian.PutUint32(st.lapic.Regs[i*16:], v.LAPIC.Regs[i])
	}
	binary.LittleEndian.PutUint32(st.lapic.Regs[2*16:], v.LAPIC.ID<<24)
}

// vcpuToUISR translates KVM ioctl state back to the neutral form, in
// place, pulling LAPIC base and MTRR state back out of the MSR array.
func vcpuToUISR(id uint32, st *vcpuState, v *uisr.VCPU) error {
	v.ID = id
	v.Regs = uisr.Regs{
		RAX: st.regs.RAX, RBX: st.regs.RBX, RCX: st.regs.RCX, RDX: st.regs.RDX,
		RSI: st.regs.RSI, RDI: st.regs.RDI, RSP: st.regs.RSP, RBP: st.regs.RBP,
		R8: st.regs.R8, R9: st.regs.R9, R10: st.regs.R10, R11: st.regs.R11,
		R12: st.regs.R12, R13: st.regs.R13, R14: st.regs.R14, R15: st.regs.R15,
		RIP: st.regs.RIP, RFLAGS: st.regs.RFLAGS,
	}
	v.SRegs = uisr.SRegs{
		CS: segToUISR(st.sregs.CS), DS: segToUISR(st.sregs.DS),
		ES: segToUISR(st.sregs.ES), FS: segToUISR(st.sregs.FS),
		GS: segToUISR(st.sregs.GS), SS: segToUISR(st.sregs.SS),
		TR: segToUISR(st.sregs.TR), LDT: segToUISR(st.sregs.LDT),
		GDT: uisr.DTable{Base: st.sregs.GDT.Base, Limit: st.sregs.GDT.Limit},
		IDT: uisr.DTable{Base: st.sregs.IDT.Base, Limit: st.sregs.IDT.Limit},
		CR0: st.sregs.CR0, CR2: st.sregs.CR2, CR3: st.sregs.CR3,
		CR4: st.sregs.CR4, CR8: st.sregs.CR8,
		EFER: st.sregs.EFER, APICBase: st.sregs.APICBase,
	}
	mtrr, generic, apicBase, err := msrsToUISR(st.msrs)
	if err != nil {
		return err
	}
	v.MTRR, v.MSRs = mtrr, generic
	v.FPU.Data = st.fpu.Data
	copy(v.XSave.Header[:], st.xsave.Region[:64])
	copy(v.XSave.Extended[:], st.xsave.Region[64:])
	v.XSave.XCR0 = st.xcrs.XCR0
	v.LAPIC.Base = apicBase
	for i := 0; i < uisr.NumLAPICRegs; i++ {
		v.LAPIC.Regs[i] = binary.LittleEndian.Uint32(st.lapic.Regs[i*16:])
	}
	v.LAPIC.ID = v.LAPIC.Regs[2] >> 24
	return nil
}

func segFromUISR(s uisr.Segment) kvmSegment {
	a := s.Attr
	return kvmSegment{
		Base:     s.Base,
		Limit:    s.Limit,
		Selector: s.Selector,
		Type:     uint8(a & 0xf),
		S:        uint8(a >> 4 & 1),
		DPL:      uint8(a >> 5 & 3),
		Present:  uint8(a >> 7 & 1),
		AVL:      uint8(a >> 12 & 1),
		L:        uint8(a >> 13 & 1),
		DB:       uint8(a >> 14 & 1),
		G:        uint8(a >> 15 & 1),
	}
}

func segToUISR(s kvmSegment) uisr.Segment {
	a := uint16(s.Type&0xf) |
		uint16(s.S&1)<<4 |
		uint16(s.DPL&3)<<5 |
		uint16(s.Present&1)<<7 |
		uint16(s.AVL&1)<<12 |
		uint16(s.L&1)<<13 |
		uint16(s.DB&1)<<14 |
		uint16(s.G&1)<<15
	return uisr.Segment{Selector: s.Selector, Attr: a, Limit: s.Limit, Base: s.Base}
}

// mtrrMSRs is how many MSR entries carry one vCPU's MTRR state: cap,
// default type, 11 fixed-range and 8 variable base/mask pairs.
const mtrrMSRs = 2 + 11 + 2*8

// appendMTRR appends neutral MTRR state to out as the mtrrMSRs
// architectural MSR entries KVM exchanges via KVM_SET_MSRS.
func appendMTRR(out []kvmMsrEntry, m *uisr.MTRRState) []kvmMsrEntry {
	out = append(out, kvmMsrEntry{Index: msrMTRRCap, Value: m.Cap})
	def := m.DefType & 0xff
	if m.Enabled {
		def |= 1 << 11
	}
	if m.FixedEna {
		def |= 1 << 10
	}
	out = append(out, kvmMsrEntry{Index: msrMTRRDefType, Value: def})
	out = append(out, kvmMsrEntry{Index: msrMTRRFix0, Value: m.Fixed[0]})
	out = append(out, kvmMsrEntry{Index: msrMTRRFix1, Value: m.Fixed[1]})
	out = append(out, kvmMsrEntry{Index: msrMTRRFix2, Value: m.Fixed[2]})
	for i := 0; i < 8; i++ {
		out = append(out, kvmMsrEntry{Index: uint32(msrMTRRFixBase + i), Value: m.Fixed[3+i]})
	}
	for i := 0; i < 8; i++ {
		out = append(out, kvmMsrEntry{Index: uint32(msrMTRRPhysBase0 + 2*i), Value: m.VarBase[i]})
		out = append(out, kvmMsrEntry{Index: uint32(msrMTRRPhysBase0 + 2*i + 1), Value: m.VarMask[i]})
	}
	return out
}

// msrsToUISR splits a KVM MSR array into neutral MTRR state, the APIC
// base, and the remaining generic MSR list.
func msrsToUISR(entries []kvmMsrEntry) (uisr.MTRRState, []uisr.MSR, uint64, error) {
	var m uisr.MTRRState
	// from_uisr put 1+mtrrMSRs architectural entries after the generic
	// ones; a foreign array just makes this capacity a guess.
	generic := make([]uisr.MSR, 0, max(0, len(entries)-1-mtrrMSRs))
	var apicBase uint64
	sawDefType := false
	for _, e := range entries {
		switch {
		case e.Index == msrAPICBase:
			apicBase = e.Value
		case e.Index == msrMTRRCap:
			m.Cap = e.Value
		case e.Index == msrMTRRDefType:
			m.DefType = e.Value & 0xff
			m.Enabled = e.Value&(1<<11) != 0
			m.FixedEna = e.Value&(1<<10) != 0
			sawDefType = true
		case e.Index == msrMTRRFix0:
			m.Fixed[0] = e.Value
		case e.Index == msrMTRRFix1:
			m.Fixed[1] = e.Value
		case e.Index == msrMTRRFix2:
			m.Fixed[2] = e.Value
		case e.Index >= msrMTRRFixBase && e.Index < msrMTRRFixBase+8:
			m.Fixed[3+e.Index-msrMTRRFixBase] = e.Value
		case e.Index >= msrMTRRPhysBase0 && e.Index < msrMTRRPhysBase0+16:
			i := e.Index - msrMTRRPhysBase0
			if i%2 == 0 {
				m.VarBase[i/2] = e.Value
			} else {
				m.VarMask[i/2] = e.Value
			}
		default:
			generic = append(generic, uisr.MSR{Index: e.Index, Value: e.Value})
		}
	}
	if !sawDefType {
		return m, nil, 0, fmt.Errorf("kvm: MSR array missing MTRRdefType — state not produced by from_uisr")
	}
	return m, generic, apicBase, nil
}

// ioapicFromUISR narrows the neutral (up to 48-pin) IOAPIC to KVM's 24
// pins. Pins ≥ 24 are disconnected — the paper's §4.2.1 experimental
// compatibility fix. It returns the number of pins dropped so callers can
// surface the event.
func ioapicFromUISR(in *uisr.IOAPIC, io *kvmIOAPIC) (dropped int) {
	io.ID = in.ID
	n := int(in.NumPins)
	if n > uisr.KVMIOAPICPins {
		dropped = n - uisr.KVMIOAPICPins
		n = uisr.KVMIOAPICPins
	}
	for p := 0; p < n; p++ {
		io.Redir[p] = in.Redir[p]
	}
	return dropped
}

func ioapicToUISR(io *kvmIOAPIC, out *uisr.IOAPIC) {
	out.ID = io.ID
	out.NumPins = uisr.KVMIOAPICPins
	out.Redir = [uisr.MaxIOAPICPins]uint64{}
	copy(out.Redir[:uisr.KVMIOAPICPins], io.Redir[:])
}

func pitFromUISR(in *uisr.PIT, p *kvmPit2) {
	for i := range in.Channels {
		p.Channels[i] = kvmPitChannel{
			Count:         in.Channels[i].Count,
			LatchedCount:  in.Channels[i].Latched,
			Mode:          in.Channels[i].Mode,
			BCD:           in.Channels[i].BCD,
			Gate:          in.Channels[i].Gate,
			OutHigh:       in.Channels[i].OutHigh,
			CountLoadTime: in.Channels[i].CountLoad,
		}
	}
	p.Flags = uint32(in.Speaker & 1)
}

func pitToUISR(p *kvmPit2, out *uisr.PIT) {
	for i := range p.Channels {
		out.Channels[i] = uisr.PITChannel{
			Count:     p.Channels[i].Count,
			Latched:   p.Channels[i].LatchedCount,
			Mode:      p.Channels[i].Mode,
			BCD:       p.Channels[i].BCD,
			Gate:      p.Channels[i].Gate,
			OutHigh:   p.Channels[i].OutHigh,
			CountLoad: p.Channels[i].CountLoadTime,
		}
	}
	out.Speaker = uint8(p.Flags & 1)
}
