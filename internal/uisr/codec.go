package uisr

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Section type tags of the binary format. They correspond to the UISR
// column of the paper's Table 2, plus memory-map and device sections.
const (
	SecHeader    uint16 = 0x0000
	SecCPU       uint16 = 0x0001 // Regs (Table 2: "CPU")
	SecSRegs     uint16 = 0x0002
	SecMSRs      uint16 = 0x0003
	SecFPU       uint16 = 0x0004
	SecXSave     uint16 = 0x0005 // Table 2: "XSAVE"
	SecLAPIC     uint16 = 0x0006 // Table 2: "LAPIC"
	SecLAPICRegs uint16 = 0x0007 // Table 2: "LAPIC_REGS"
	SecMTRR      uint16 = 0x0008 // Table 2: "MTRR"
	SecIOAPIC    uint16 = 0x0009 // Table 2: "IOAPIC"
	SecPIT       uint16 = 0x000a // Table 2: "PIT"
	SecMemMap    uint16 = 0x000b
	SecDevice    uint16 = 0x000c
	SecRTC       uint16 = 0x000d
	SecHPET      uint16 = 0x000e
	SecPMTimer   uint16 = 0x000f
	SecEnd       uint16 = 0xffff
)

// sectionHeaderSize is the descriptor before each TLV payload: type,
// instance (vCPU id or device ordinal), payload length (Reader.Record).
const sectionHeaderSize = 8

// Sections Decode requires: every encoded blob carries these VM-wide
// ones, and each vCPU carries every per-vCPU one.
const (
	requiredSections = 1<<SecHeader | 1<<SecIOAPIC | 1<<SecRTC
	perVCPUSections  = 1<<SecCPU | 1<<SecSRegs | 1<<SecMSRs | 1<<SecFPU |
		1<<SecXSave | 1<<SecLAPIC | 1<<SecLAPICRegs | 1<<SecMTRR
)

// Wire sizes of the fixed-layout sections, computed once.
var (
	sizeRegs    = FixedSize(Regs{})
	sizeSRegs   = FixedSize(SRegs{})
	sizeXSave   = FixedSize(XSave{})
	sizeMTRR    = FixedSize(MTRRState{})
	sizeIOAPIC  = FixedSize(IOAPIC{})
	sizePIT     = FixedSize(PIT{})
	sizeRTC     = FixedSize(RTC{})
	sizeHPET    = FixedSize(HPET{})
	sizePMTimer = FixedSize(PMTimer{})
)

const (
	topHeaderSize  = 12
	lapicBaseSize  = 12
	lapicRegsSize  = 4 * NumLAPICRegs
	fpuSize        = 512
	msrEntrySize   = 12
	extentWireSize = 17
)

// headerPayloadSize is the size of the SecHeader payload for s.
func headerPayloadSize(s *VMState) int {
	return 20 + 2 + len(s.Name) + 2 + len(s.SourceHypervisor)
}

// devicePayloadSize is the size of one SecDevice payload.
func devicePayloadSize(d *EmulatedDevice) int {
	return 2 + len(d.Kind) + 2 + len(d.Model) + 1 + 4 + len(d.State)
}

// encodedSize computes the exact byte length of Encode(s) arithmetically,
// without serializing anything. Encode relies on it to allocate the output
// in one shot; Fig. 14's memory-overhead sweep relies on it being cheap.
func encodedSize(s *VMState) int {
	n := topHeaderSize
	n += sectionHeaderSize + headerPayloadSize(s)
	for i := range s.VCPUs {
		n += sectionHeaderSize + sizeRegs
		n += sectionHeaderSize + sizeSRegs
		n += sectionHeaderSize + 4 + msrEntrySize*len(s.VCPUs[i].MSRs)
		n += sectionHeaderSize + fpuSize
		n += sectionHeaderSize + sizeXSave
		n += sectionHeaderSize + lapicBaseSize
		n += sectionHeaderSize + lapicRegsSize
		n += sectionHeaderSize + sizeMTRR
	}
	n += sectionHeaderSize + sizeIOAPIC
	if s.HasPIT {
		n += sectionHeaderSize + sizePIT
	}
	n += sectionHeaderSize + sizeRTC
	if s.HasHPET {
		n += sectionHeaderSize + sizeHPET
	}
	if s.HasPMTimer {
		n += sectionHeaderSize + sizePMTimer
	}
	if s.MemMap.Len() > 0 {
		n += sectionHeaderSize + 4 + extentWireSize*s.MemMap.Len()
	}
	for i := range s.Devices {
		n += sectionHeaderSize + devicePayloadSize(&s.Devices[i])
	}
	n += sectionHeaderSize // end section
	return n
}

// Encode serializes the VM state to the UISR wire/RAM format. It is the
// implementation behind the paper's struct uisr* to_uisr_xxx family: each
// state category becomes one typed section.
//
// The output size is precomputed and the blob written in place through a
// single []byte, so Encode performs exactly one allocation regardless of
// vCPU or device count — it runs once per VM inside the transplant
// blackout window, on the par worker pool.
func Encode(s *VMState) ([]byte, error) {
	n, err := EncodedSize(s)
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	Put(out, s)
	return out, nil
}

// Put serializes s, which EncodedSize has validated, into out, exactly
// EncodedSize(s) bytes: Encode without the allocation, for a blob built
// where it is kept.
func Put(out []byte, s *VMState) {
	le := binary.LittleEndian
	le.PutUint32(out[0:], Magic)
	le.PutUint16(out[4:], Version)
	le.PutUint16(out[6:], 0) // flags
	off := topHeaderSize

	sections := 0
	// begin writes one section header and returns the payload window.
	begin := func(typ, instance uint16, length int) []byte {
		le.PutUint16(out[off:], typ)
		le.PutUint16(out[off+2:], instance)
		le.PutUint32(out[off+4:], uint32(length))
		payload := out[off+sectionHeaderSize : off+sectionHeaderSize+length]
		off += sectionHeaderSize + length
		sections++
		return payload
	}

	encodeHeader(begin(SecHeader, 0, headerPayloadSize(s)), s)
	for i := range s.VCPUs {
		v := &s.VCPUs[i]
		inst := uint16(v.ID)
		PutFixed(begin(SecCPU, inst, sizeRegs), &v.Regs)
		PutFixed(begin(SecSRegs, inst, sizeSRegs), &v.SRegs)
		encodeMSRs(begin(SecMSRs, inst, 4+msrEntrySize*len(v.MSRs)), v.MSRs)
		PutFixed(begin(SecFPU, inst, fpuSize), &v.FPU)
		PutFixed(begin(SecXSave, inst, sizeXSave), &v.XSave)
		lapic := begin(SecLAPIC, inst, lapicBaseSize)
		le.PutUint64(lapic, v.LAPIC.Base)
		le.PutUint32(lapic[8:], v.LAPIC.ID)
		regs := begin(SecLAPICRegs, inst, lapicRegsSize)
		for j, reg := range v.LAPIC.Regs {
			le.PutUint32(regs[4*j:], reg)
		}
		PutFixed(begin(SecMTRR, inst, sizeMTRR), &v.MTRR)
	}
	PutFixed(begin(SecIOAPIC, 0, sizeIOAPIC), &s.IOAPIC)
	if s.HasPIT {
		PutFixed(begin(SecPIT, 0, sizePIT), &s.PIT)
	}
	PutFixed(begin(SecRTC, 0, sizeRTC), &s.RTC)
	if s.HasHPET {
		PutFixed(begin(SecHPET, 0, sizeHPET), &s.HPET)
	}
	if s.HasPMTimer {
		PutFixed(begin(SecPMTimer, 0, sizePMTimer), &s.PMTimer)
	}
	if s.MemMap.Len() > 0 {
		encodeMemMap(begin(SecMemMap, 0, 4+extentWireSize*s.MemMap.Len()), s.MemMap.Extents())
	}
	for i := range s.Devices {
		d := &s.Devices[i]
		encodeDevice(begin(SecDevice, uint16(i), devicePayloadSize(d)), d)
	}
	begin(SecEnd, 0, 0)

	if off != len(out) {
		panic(fmt.Sprintf("uisr: encoded %d bytes, sized %d", off, len(out)))
	}
	le.PutUint32(out[8:], uint32(sections))
}

// Decode parses a UISR blob back into a VMState. It is strict: unknown,
// missing or repeated sections, truncation, or a bad magic are errors,
// because a transplant must never silently restore partial state. Each
// vCPU carries every per-vCPU section exactly once; the header, IOAPIC
// and RTC sections appear exactly once, the optional timers and the
// memory map at most once.
func Decode(data []byte) (*VMState, error) {
	r := NewReader(data)
	magic, version, _, wantSections := r.U32(), r.U16(), r.U16(), r.U32()
	switch {
	case r.Err() != nil:
		return nil, fmt.Errorf("uisr: blob too short (%d bytes)", len(data))
	case magic != Magic:
		return nil, fmt.Errorf("uisr: bad magic %#x", magic)
	case version != Version:
		return nil, fmt.Errorf("uisr: unsupported version %d", version)
	}

	s := &VMState{}
	// One bit per section type seen: VM-wide, and per vCPU instance.
	var vmSections uint16
	var vcpuSections [MaxVCPUs]uint16
	var gotSections uint32
	sawEnd := false
	for r.Len() > 0 {
		if sawEnd {
			return nil, fmt.Errorf("uisr: trailing data after end section")
		}
		typ, inst, p := r.Record()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("uisr: section %d: %w", gotSections, err)
		}
		gotSections++
		if typ == SecEnd {
			sawEnd = true
			continue
		}
		if typ > SecPMTimer {
			return nil, fmt.Errorf("uisr: unknown section type %#x", typ)
		}
		seen, v := &vmSections, (*VCPU)(nil)
		if typ >= SecCPU && typ <= SecMTRR { // the per-vCPU sections
			if int(inst) >= len(s.VCPUs) {
				return nil, fmt.Errorf("uisr: section %#x: vCPU id %d out of range (header says %d vCPUs)",
					typ, inst, len(s.VCPUs))
			}
			seen, v = &vcpuSections[inst], &s.VCPUs[inst]
		}
		if typ != SecDevice {
			if *seen&(1<<typ) != 0 {
				return nil, fmt.Errorf("uisr: second %s section for instance %d", SectionName(typ), inst)
			}
			*seen |= 1 << typ
		}
		switch typ {
		case SecHeader:
			decodeHeader(&p, s)
		case SecCPU:
			p.Fixed(&v.Regs, sizeRegs)
		case SecSRegs:
			p.Fixed(&v.SRegs, sizeSRegs)
		case SecMSRs:
			v.MSRs = make([]MSR, p.Count(uint64(p.U32()), math.MaxUint32, msrEntrySize))
			for i := range v.MSRs {
				v.MSRs[i].Index, v.MSRs[i].Value = p.U32(), p.U64()
			}
		case SecFPU:
			p.Fixed(&v.FPU, fpuSize)
		case SecXSave:
			p.Fixed(&v.XSave, sizeXSave)
		case SecLAPIC:
			v.LAPIC.Base, v.LAPIC.ID = p.U64(), p.U32()
		case SecLAPICRegs:
			for i := range v.LAPIC.Regs {
				v.LAPIC.Regs[i] = p.U32()
			}
		case SecMTRR:
			p.Fixed(&v.MTRR, sizeMTRR)
		case SecIOAPIC:
			p.Fixed(&s.IOAPIC, sizeIOAPIC)
		case SecPIT:
			s.HasPIT = true
			p.Fixed(&s.PIT, sizePIT)
		case SecRTC:
			p.Fixed(&s.RTC, sizeRTC)
		case SecHPET:
			s.HasHPET = true
			p.Fixed(&s.HPET, sizeHPET)
		case SecPMTimer:
			s.HasPMTimer = true
			p.Fixed(&s.PMTimer, sizePMTimer)
		case SecMemMap:
			extents := make([]PageExtent, p.Count(uint64(p.U32()), math.MaxUint32, extentWireSize))
			for i := range extents {
				e := &extents[i]
				e.GFN, e.MFN, e.Order = p.U64(), p.U64(), p.U8()
			}
			s.MemMap = NewMemMap(extents)
		case SecDevice:
			d := EmulatedDevice{Kind: p.String16(), Model: p.String16(), UnplugOnTransplant: p.U8() == 1}
			if st := p.Bytes(int(p.U32())); len(st) > 0 {
				d.State = append(make([]byte, 0, len(st)), st...)
			}
			s.Devices = append(s.Devices, d)
		}
		if err := p.Done(); err != nil {
			return nil, fmt.Errorf("uisr: section %#x: %w", typ, err)
		}
	}
	if !sawEnd {
		return nil, fmt.Errorf("uisr: missing end section")
	}
	if gotSections != wantSections {
		return nil, fmt.Errorf("uisr: section count %d, header says %d", gotSections, wantSections)
	}
	if vmSections&requiredSections != requiredSections {
		return nil, fmt.Errorf("uisr: blob lacks its header, IOAPIC or RTC section")
	}
	for i := range s.VCPUs {
		if vcpuSections[i] != perVCPUSections {
			return nil, fmt.Errorf("uisr: header says %d vCPUs, vCPU %d lacks sections (has %#x of %#x)",
				len(s.VCPUs), i, vcpuSections[i], perVCPUSections)
		}
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// EncodedSize returns the size in bytes of the serialized UISR for the
// state, without building the blob. Used by the memory-overhead
// experiment (Fig. 14).
func EncodedSize(s *VMState) (int, error) {
	if err := s.Validate(); err != nil {
		return 0, err
	}
	return encodedSize(s), nil
}

// --- variable-layout sections ----------------------------------------------

func encodeHeader(out []byte, s *VMState) {
	le := binary.LittleEndian
	le.PutUint32(out[0:], s.VMID)
	le.PutUint64(out[4:], s.MemBytes)
	le.PutUint16(out[12:], uint16(len(s.VCPUs)))
	if s.HugePages {
		out[14] = 1
	}
	out[15] = 0
	le.PutUint16(out[16:], s.Weight)
	le.PutUint16(out[18:], 0) // reserved
	off := 20
	off = putString(out, off, s.Name)
	putString(out, off, s.SourceHypervisor)
}

func decodeHeader(p *Reader, s *VMState) {
	s.VMID, s.MemBytes = p.U32(), p.U64()
	n := int(p.U16())
	s.HugePages = p.U8() == 1
	p.U8()
	s.Weight = p.U16()
	p.U16() // reserved
	if p.Err() != nil {
		return
	}
	// Bound the count before it sizes anything: 65535 vCPUs would be
	// 200 MB from a 12-byte header.
	if n < 1 || n > MaxVCPUs {
		p.fail(fmt.Errorf("header says %d vCPUs, want 1 to %d", n, MaxVCPUs))
		return
	}
	s.VCPUs = make([]VCPU, n)
	for i := range s.VCPUs {
		s.VCPUs[i].ID = uint32(i)
	}
	s.Name, s.SourceHypervisor = p.String16(), p.String16()
}

func encodeMSRs(out []byte, msrs []MSR) {
	le := binary.LittleEndian
	le.PutUint32(out[0:], uint32(len(msrs)))
	for i, m := range msrs {
		le.PutUint32(out[4+msrEntrySize*i:], m.Index)
		le.PutUint64(out[8+msrEntrySize*i:], m.Value)
	}
}

func encodeMemMap(out []byte, extents []PageExtent) {
	le := binary.LittleEndian
	le.PutUint32(out[0:], uint32(len(extents)))
	for i, e := range extents {
		base := 4 + extentWireSize*i
		le.PutUint64(out[base:], e.GFN)
		le.PutUint64(out[base+8:], e.MFN)
		out[base+16] = e.Order
	}
}

func encodeDevice(out []byte, d *EmulatedDevice) {
	off := putString(out, 0, d.Kind)
	off = putString(out, off, d.Model)
	if d.UnplugOnTransplant {
		out[off] = 1
	}
	off++
	binary.LittleEndian.PutUint32(out[off:], uint32(len(d.State)))
	copy(out[off+4:], d.State)
}

// putString writes a length-prefixed string at out[off:] and returns the
// offset just past it.
func putString(out []byte, off int, s string) int {
	binary.LittleEndian.PutUint16(out[off:], uint16(len(s)))
	copy(out[off+2:], s)
	return off + 2 + len(s)
}
