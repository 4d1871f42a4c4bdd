package xen

import (
	"encoding/binary"
	"fmt"

	"hypertp/internal/uisr"
)

// This file implements the paper's to_uisr_xxx / from_uisr_xxx family for
// Xen (§3.1): translation between the HVM context blob and the neutral
// UISR representation, following the Table 2 mapping. The UISR is "a
// slight modification of Xen's virtual resource state representation"
// (§4.2), which shows here as mostly structural re-grouping — the genuine
// format work happens on the KVM side.

// toUISR translates a parsed domain context into UISR platform state.
func toUISR(ctx *domainContext) (*uisr.VMState, error) {
	s := &uisr.VMState{SourceHypervisor: "xen", VCPUs: make([]uisr.VCPU, len(ctx.vcpus))}
	for i := range ctx.vcpus {
		c, v := &ctx.vcpus[i], &s.VCPUs[i]
		v.ID = uint32(i)
		cpuToUISR(&c.cpu, v)
		lapicToUISR(&c.lapic, &c.lapicRegs, &v.LAPIC)
		// Xen keeps the APIC base in its LAPIC record; the neutral
		// SRegs view mirrors it (Table 2: LAPIC → MSRS on KVM).
		v.SRegs.APICBase = v.LAPIC.Base
		mtrrToUISR(&c.mtrr, &v.MTRR)
		xsaveToUISR(&c.xsave, &v.XSave)
		v.MSRs = make([]uisr.MSR, len(c.msrs))
		for j, e := range c.msrs {
			v.MSRs[j] = uisr.MSR{Index: e.Index, Value: e.Value}
		}
	}
	ioapicToUISR(&ctx.ioapic, &s.IOAPIC)
	s.HasPIT = true // Xen's HVM platform always emulates the 8254
	pitToUISR(&ctx.pit, &s.PIT)
	s.RTC = uisr.RTC{CMOS: ctx.rtc.CMOS, Index: ctx.rtc.Index}
	// Xen's HVM platform always emulates HPET and the ACPI PM timer.
	s.HasHPET = true
	s.HPET = uisr.HPET{
		Capability: ctx.hpet.Capability, Config: ctx.hpet.Config,
		ISR: ctx.hpet.ISR, Counter: ctx.hpet.Counter,
	}
	for i := range ctx.hpet.Timers {
		s.HPET.Timers[i] = uisr.HPETTimer{
			Config:     ctx.hpet.Timers[i].Config,
			Comparator: ctx.hpet.Timers[i].Comparator,
			FSBRoute:   ctx.hpet.Timers[i].FSB,
		}
	}
	s.HasPMTimer = true
	s.PMTimer = uisr.PMTimer{Value: ctx.pmtimer.Value, BaseNS: ctx.pmtimer.BaseNS}
	return s, nil
}

// fromUISR translates UISR platform state into a fresh domain context.
// It applies the KVM→Xen compatibility fixes of §4.2.1: a narrower
// source IOAPIC is widened to Xen's 48 pins with the extra pins masked.
func fromUISR(s *uisr.VMState) (*domainContext, error) {
	ctx := &domainContext{
		header: hvmHeader{Magic: hvmMagic, Version: 2, Changes: 0x41251},
		vcpus:  make([]hvmVCPU, len(s.VCPUs)),
	}
	for i := range s.VCPUs {
		v, c := &s.VCPUs[i], &ctx.vcpus[i]
		cpuFromUISR(v, &c.cpu)
		lapicFromUISR(&v.LAPIC, &c.lapic, &c.lapicRegs)
		mtrrFromUISR(&v.MTRR, &c.mtrr)
		xsaveFromUISR(&v.XSave, &c.xsave)
		c.msrs = make([]hvmMSREntry, len(v.MSRs))
		for j, m := range v.MSRs {
			c.msrs[j] = hvmMSREntry{Index: m.Index, Value: m.Value}
		}
	}
	if err := ioapicFromUISR(&s.IOAPIC, &ctx.ioapic); err != nil {
		return nil, err
	}
	if s.HasPIT {
		pitFromUISR(&s.PIT, &ctx.pit)
	} else {
		// Source without an 8254 (microhypervisor with paravirtual
		// time): synthesize the power-on default — channel 0 in mode 3
		// with the full 65536 count, as the BIOS programs it.
		ctx.pit.Channels[0].Mode = 3
		ctx.pit.Channels[0].Count = 0 // 0 encodes 65536
		ctx.pit.Channels[0].Gate = 1
	}
	ctx.rtc = hvmRTC{CMOS: s.RTC.CMOS, Index: s.RTC.Index}
	if s.HasHPET {
		ctx.hpet = hvmHPET{
			Capability: s.HPET.Capability, Config: s.HPET.Config,
			ISR: s.HPET.ISR, Counter: s.HPET.Counter,
		}
		for i := range s.HPET.Timers {
			ctx.hpet.Timers[i].Config = s.HPET.Timers[i].Config
			ctx.hpet.Timers[i].Comparator = s.HPET.Timers[i].Comparator
			ctx.hpet.Timers[i].FSB = s.HPET.Timers[i].FSBRoute
		}
	} else {
		// KVM→Xen compatibility: the source had no HPET (kvmtool), so
		// Xen's comes up disabled with its legacy default capability.
		ctx.hpet = hvmHPET{Capability: 0x8086a201}
	}
	if s.HasPMTimer {
		ctx.pmtimer = hvmPMTimer{Value: s.PMTimer.Value, BaseNS: s.PMTimer.BaseNS}
	}
	return ctx, nil
}

func cpuToUISR(c *hvmCPU, v *uisr.VCPU) {
	v.Regs = uisr.Regs{
		RAX: c.RAX, RBX: c.RBX, RCX: c.RCX, RDX: c.RDX,
		RSI: c.RSI, RDI: c.RDI, RSP: c.RSP, RBP: c.RBP,
		R8: c.R8, R9: c.R9, R10: c.R10, R11: c.R11,
		R12: c.R12, R13: c.R13, R14: c.R14, R15: c.R15,
		RIP: c.RIP, RFLAGS: c.RFlags,
	}
	seg := func(base uint64, limit, ar uint32, sel uint16) uisr.Segment {
		return uisr.Segment{Selector: sel, Attr: uint16(ar), Limit: limit, Base: base}
	}
	v.SRegs = uisr.SRegs{
		CS:  seg(c.CSBase, c.CSLimit, c.CSAr, c.CSSel),
		DS:  seg(c.DSBase, c.DSLimit, c.DSAr, c.DSSel),
		ES:  seg(c.ESBase, c.ESLimit, c.ESAr, c.ESSel),
		FS:  seg(c.FSBase, c.FSLimit, c.FSAr, c.FSSel),
		GS:  seg(c.GSBase, c.GSLimit, c.GSAr, c.GSSel),
		SS:  seg(c.SSBase, c.SSLimit, c.SSAr, c.SSSel),
		TR:  seg(c.TRBase, c.TRLimit, c.TRAr, c.TRSel),
		LDT: seg(c.LDTRBase, c.LDTRLimit, c.LDTRAr, c.LDTRSel),
		GDT: uisr.DTable{Base: c.GDTBase, Limit: uint16(c.GDTLimit)},
		IDT: uisr.DTable{Base: c.IDTBase, Limit: uint16(c.IDTLimit)},
		CR0: c.CR0, CR2: c.CR2, CR3: c.CR3, CR4: c.CR4, CR8: c.CR8,
		EFER: c.EFER,
	}
	copy(v.FPU.Data[:], c.FPU[:])
}

func cpuFromUISR(v *uisr.VCPU, c *hvmCPU) {
	r := &v.Regs
	c.RAX, c.RBX, c.RCX, c.RDX = r.RAX, r.RBX, r.RCX, r.RDX
	c.RBP, c.RSI, c.RDI, c.RSP = r.RBP, r.RSI, r.RDI, r.RSP
	c.R8, c.R9, c.R10, c.R11 = r.R8, r.R9, r.R10, r.R11
	c.R12, c.R13, c.R14, c.R15 = r.R12, r.R13, r.R14, r.R15
	c.RIP, c.RFlags = r.RIP, r.RFLAGS

	s := &v.SRegs
	c.CR0, c.CR2, c.CR3, c.CR4, c.CR8 = s.CR0, s.CR2, s.CR3, s.CR4, s.CR8
	c.EFER = s.EFER
	c.CSBase, c.CSLimit, c.CSAr, c.CSSel = s.CS.Base, s.CS.Limit, uint32(s.CS.Attr), s.CS.Selector
	c.DSBase, c.DSLimit, c.DSAr, c.DSSel = s.DS.Base, s.DS.Limit, uint32(s.DS.Attr), s.DS.Selector
	c.ESBase, c.ESLimit, c.ESAr, c.ESSel = s.ES.Base, s.ES.Limit, uint32(s.ES.Attr), s.ES.Selector
	c.FSBase, c.FSLimit, c.FSAr, c.FSSel = s.FS.Base, s.FS.Limit, uint32(s.FS.Attr), s.FS.Selector
	c.GSBase, c.GSLimit, c.GSAr, c.GSSel = s.GS.Base, s.GS.Limit, uint32(s.GS.Attr), s.GS.Selector
	c.SSBase, c.SSLimit, c.SSAr, c.SSSel = s.SS.Base, s.SS.Limit, uint32(s.SS.Attr), s.SS.Selector
	c.TRBase, c.TRLimit, c.TRAr, c.TRSel = s.TR.Base, s.TR.Limit, uint32(s.TR.Attr), s.TR.Selector
	c.LDTRBase, c.LDTRLimit, c.LDTRAr, c.LDTRSel = s.LDT.Base, s.LDT.Limit, uint32(s.LDT.Attr), s.LDT.Selector
	c.GDTBase, c.GDTLimit = s.GDT.Base, uint32(s.GDT.Limit)
	c.IDTBase, c.IDTLimit = s.IDT.Base, uint32(s.IDT.Limit)
	copy(c.FPU[:], v.FPU.Data[:])
}

func lapicToUISR(l *hvmLAPIC, regs *hvmLAPICRegs, out *uisr.LAPIC) {
	out.Base = l.APICBaseMSR
	for i := 0; i < uisr.NumLAPICRegs; i++ {
		out.Regs[i] = binary.LittleEndian.Uint32(regs.Data[i*16:])
	}
	// APIC ID lives in the register page at stride 2 (offset 0x20),
	// bits 24-31.
	out.ID = out.Regs[2] >> 24
}

func lapicFromUISR(in *uisr.LAPIC, l *hvmLAPIC, regs *hvmLAPICRegs) {
	l.APICBaseMSR = in.Base
	if in.Base&(1<<11) == 0 {
		l.Disabled = 1
	}
	l.TimerDivisor = 16
	for i := 0; i < uisr.NumLAPICRegs; i++ {
		binary.LittleEndian.PutUint32(regs.Data[i*16:], in.Regs[i])
	}
	// Ensure the ID register matches the neutral ID field.
	binary.LittleEndian.PutUint32(regs.Data[2*16:], in.ID<<24)
}

func mtrrToUISR(m *hvmMTRR, out *uisr.MTRRState) {
	out.Cap = m.Cap
	out.DefType = m.DefType
	out.Fixed = m.Fixed
	for i := 0; i < 8; i++ {
		out.VarBase[i] = m.VarPairs[2*i]
		out.VarMask[i] = m.VarPairs[2*i+1]
	}
	out.Enabled = m.Flags&1 != 0
	out.FixedEna = m.Flags&2 != 0
}

func mtrrFromUISR(in *uisr.MTRRState, m *hvmMTRR) {
	m.Cap = in.Cap
	m.DefType = in.DefType
	m.Fixed = in.Fixed
	for i := 0; i < 8; i++ {
		m.VarPairs[2*i] = in.VarBase[i]
		m.VarPairs[2*i+1] = in.VarMask[i]
	}
	m.Flags = 0
	if in.Enabled {
		m.Flags |= 1
	}
	if in.FixedEna {
		m.Flags |= 2
	}
	m.PATCr = 0x0007040600070406 // power-on PAT
}

func xsaveToUISR(x *hvmXSave, out *uisr.XSave) {
	out.XCR0 = x.XCR0
	out.Header = x.Header
	out.Extended = x.YMM
}

func xsaveFromUISR(in *uisr.XSave, x *hvmXSave) {
	x.XCR0 = in.XCR0
	x.XCR0Accum = in.XCR0
	x.Header = in.Header
	x.YMM = in.Extended
}

func ioapicToUISR(io *hvmIOAPIC, out *uisr.IOAPIC) {
	out.ID = io.ID
	out.NumPins = uisr.XenIOAPICPins
	copy(out.Redir[:], io.Redir[:])
}

// ioapicFromUISR widens the neutral IOAPIC to Xen's 48 pins. Pins beyond
// the source's count are installed masked (bit 16 set), the §4.2.1
// compatibility treatment in the Xen direction.
func ioapicFromUISR(in *uisr.IOAPIC, io *hvmIOAPIC) error {
	if in.NumPins > uisr.XenIOAPICPins {
		return fmt.Errorf("xen: source IOAPIC has %d pins, more than Xen's %d",
			in.NumPins, uisr.XenIOAPICPins)
	}
	io.ID = in.ID
	for p := 0; p < int(in.NumPins); p++ {
		io.Redir[p] = in.Redir[p]
	}
	const maskBit = 1 << 16
	for p := int(in.NumPins); p < uisr.XenIOAPICPins; p++ {
		io.Redir[p] = maskBit
	}
	return nil
}

func pitToUISR(p *hvmPIT, out *uisr.PIT) {
	for i := range out.Channels {
		out.Channels[i] = uisr.PITChannel{
			Count:     p.Channels[i].Count,
			Latched:   p.Channels[i].LatchedCount,
			Mode:      p.Channels[i].Mode,
			BCD:       p.Channels[i].BCD,
			Gate:      p.Channels[i].Gate,
			OutHigh:   p.Channels[i].OutHigh,
			CountLoad: p.CountLoad[i],
		}
	}
	out.Speaker = p.Speaker
}

func pitFromUISR(in *uisr.PIT, p *hvmPIT) {
	for i := range in.Channels {
		p.Channels[i].Count = in.Channels[i].Count
		p.Channels[i].LatchedCount = in.Channels[i].Latched
		p.Channels[i].Mode = in.Channels[i].Mode
		p.Channels[i].BCD = in.Channels[i].BCD
		p.Channels[i].Gate = in.Channels[i].Gate
		p.Channels[i].OutHigh = in.Channels[i].OutHigh
		p.CountLoad[i] = in.Channels[i].CountLoad
	}
	p.Speaker = in.Speaker
}
