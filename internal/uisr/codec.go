package uisr

import (
	"encoding/binary"
	"fmt"
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

// sectionHeader precedes each TLV payload: type, instance (vCPU id or
// device ordinal), payload length.
type sectionHeader struct {
	Type     uint16
	Instance uint16
	Length   uint32
}

const sectionHeaderSize = 8

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
	if len(s.MemMap) > 0 {
		n += sectionHeaderSize + 4 + extentWireSize*len(s.MemMap)
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
	if err := s.Validate(); err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	out := make([]byte, encodedSize(s))

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
		encodeLAPICBase(begin(SecLAPIC, inst, lapicBaseSize), &v.LAPIC)
		encodeLAPICRegs(begin(SecLAPICRegs, inst, lapicRegsSize), &v.LAPIC)
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
	if len(s.MemMap) > 0 {
		encodeMemMap(begin(SecMemMap, 0, 4+extentWireSize*len(s.MemMap)), s.MemMap)
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
	return out, nil
}

// Decode parses a UISR blob back into a VMState. It is strict: unknown
// sections, truncation, or a bad magic are errors, because a transplant
// must never silently restore partial state.
func Decode(data []byte) (*VMState, error) {
	le := binary.LittleEndian
	if len(data) < topHeaderSize {
		return nil, fmt.Errorf("uisr: blob too short (%d bytes)", len(data))
	}
	if le.Uint32(data[0:]) != Magic {
		return nil, fmt.Errorf("uisr: bad magic %#x", le.Uint32(data[0:]))
	}
	if v := le.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("uisr: unsupported version %d", v)
	}
	wantSections := le.Uint32(data[8:])

	s := &VMState{}
	// seen marks the vCPU instances that carried at least one section.
	var seen [MaxVCPUs]bool

	off := topHeaderSize
	var gotSections uint32
	sawEnd := false
	for off < len(data) {
		if sawEnd {
			return nil, fmt.Errorf("uisr: trailing data after end section")
		}
		if off+sectionHeaderSize > len(data) {
			return nil, fmt.Errorf("uisr: truncated section header at %d", off)
		}
		hdr := sectionHeader{
			Type:     le.Uint16(data[off:]),
			Instance: le.Uint16(data[off+2:]),
			Length:   le.Uint32(data[off+4:]),
		}
		off += sectionHeaderSize
		if off+int(hdr.Length) > len(data) {
			return nil, fmt.Errorf("uisr: truncated section %#x payload", hdr.Type)
		}
		payload := data[off : off+int(hdr.Length)]
		off += int(hdr.Length)
		gotSections++

		var err error
		var v *VCPU
		if hdr.Type >= SecCPU && hdr.Type <= SecMTRR { // the per-vCPU sections
			if int(hdr.Instance) >= len(s.VCPUs) {
				return nil, fmt.Errorf("uisr: section %#x: vCPU id %d out of range (header says %d vCPUs)",
					hdr.Type, hdr.Instance, len(s.VCPUs))
			}
			seen[hdr.Instance] = true
			v = &s.VCPUs[hdr.Instance]
		}
		switch hdr.Type {
		case SecHeader:
			err = decodeHeader(payload, s)
		case SecCPU:
			err = GetFixed(payload, &v.Regs, sizeRegs)
		case SecSRegs:
			err = GetFixed(payload, &v.SRegs, sizeSRegs)
		case SecMSRs:
			v.MSRs, err = decodeMSRs(payload)
		case SecFPU:
			err = GetFixed(payload, &v.FPU, fpuSize)
		case SecXSave:
			err = GetFixed(payload, &v.XSave, sizeXSave)
		case SecLAPIC:
			err = decodeLAPICBase(payload, &v.LAPIC)
		case SecLAPICRegs:
			err = decodeLAPICRegs(payload, &v.LAPIC)
		case SecMTRR:
			err = GetFixed(payload, &v.MTRR, sizeMTRR)
		case SecIOAPIC:
			err = GetFixed(payload, &s.IOAPIC, sizeIOAPIC)
		case SecPIT:
			s.HasPIT = true
			err = GetFixed(payload, &s.PIT, sizePIT)
		case SecRTC:
			err = GetFixed(payload, &s.RTC, sizeRTC)
		case SecHPET:
			s.HasHPET = true
			err = GetFixed(payload, &s.HPET, sizeHPET)
		case SecPMTimer:
			s.HasPMTimer = true
			err = GetFixed(payload, &s.PMTimer, sizePMTimer)
		case SecMemMap:
			s.MemMap, err = decodeMemMap(payload)
		case SecDevice:
			var d EmulatedDevice
			if err = decodeDevice(payload, &d); err == nil {
				s.Devices = append(s.Devices, d)
			}
		case SecEnd:
			sawEnd = true
		default:
			return nil, fmt.Errorf("uisr: unknown section type %#x", hdr.Type)
		}
		if err != nil {
			return nil, fmt.Errorf("uisr: section %#x: %w", hdr.Type, err)
		}
	}
	if !sawEnd {
		return nil, fmt.Errorf("uisr: missing end section")
	}
	if gotSections != wantSections {
		return nil, fmt.Errorf("uisr: section count %d, header says %d", gotSections, wantSections)
	}
	for i := range s.VCPUs {
		if !seen[i] {
			return nil, fmt.Errorf("uisr: header says %d vCPUs, vCPU %d has no section", len(s.VCPUs), i)
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

func decodeHeader(p []byte, s *VMState) error {
	if len(p) < 20 {
		return fmt.Errorf("header too short")
	}
	le := binary.LittleEndian
	if s.VCPUs != nil {
		return fmt.Errorf("second header section")
	}
	// Bound the count before it sizes anything: 65535 vCPUs would be
	// 200 MB from a 12-byte header.
	n := int(le.Uint16(p[12:]))
	if n < 1 || n > MaxVCPUs {
		return fmt.Errorf("header says %d vCPUs, want 1 to %d", n, MaxVCPUs)
	}
	s.VCPUs = make([]VCPU, n)
	for i := range s.VCPUs {
		s.VCPUs[i].ID = uint32(i)
	}
	s.VMID = le.Uint32(p[0:])
	s.MemBytes = le.Uint64(p[4:])
	s.HugePages = p[14] == 1
	s.Weight = le.Uint16(p[16:])
	rest := p[20:]
	var err error
	s.Name, rest, err = readString(rest)
	if err != nil {
		return err
	}
	s.SourceHypervisor, rest, err = readString(rest)
	if err != nil {
		return err
	}
	if len(rest) != 0 {
		return fmt.Errorf("trailing header bytes")
	}
	return nil
}

func encodeMSRs(out []byte, msrs []MSR) {
	le := binary.LittleEndian
	le.PutUint32(out[0:], uint32(len(msrs)))
	for i, m := range msrs {
		le.PutUint32(out[4+msrEntrySize*i:], m.Index)
		le.PutUint64(out[8+msrEntrySize*i:], m.Value)
	}
}

func decodeMSRs(p []byte) ([]MSR, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("MSR section too short")
	}
	le := binary.LittleEndian
	n := int(le.Uint32(p[0:]))
	if len(p) != 4+msrEntrySize*n {
		return nil, fmt.Errorf("MSR section %d bytes, want %d for %d entries", len(p), 4+msrEntrySize*n, n)
	}
	out := make([]MSR, n)
	for i := range out {
		out[i].Index = le.Uint32(p[4+msrEntrySize*i:])
		out[i].Value = le.Uint64(p[8+msrEntrySize*i:])
	}
	return out, nil
}

func encodeLAPICBase(out []byte, l *LAPIC) {
	le := binary.LittleEndian
	le.PutUint64(out[0:], l.Base)
	le.PutUint32(out[8:], l.ID)
}

func decodeLAPICBase(p []byte, l *LAPIC) error {
	if len(p) != lapicBaseSize {
		return fmt.Errorf("LAPIC base payload %d bytes, want %d", len(p), lapicBaseSize)
	}
	le := binary.LittleEndian
	l.Base = le.Uint64(p[0:])
	l.ID = le.Uint32(p[8:])
	return nil
}

func encodeLAPICRegs(out []byte, l *LAPIC) {
	le := binary.LittleEndian
	for i, r := range l.Regs {
		le.PutUint32(out[4*i:], r)
	}
}

func decodeLAPICRegs(p []byte, l *LAPIC) error {
	if len(p) != lapicRegsSize {
		return fmt.Errorf("LAPIC regs payload %d bytes, want %d", len(p), lapicRegsSize)
	}
	le := binary.LittleEndian
	for i := range l.Regs {
		l.Regs[i] = le.Uint32(p[4*i:])
	}
	return nil
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

func decodeMemMap(p []byte) ([]PageExtent, error) {
	if len(p) < 4 {
		return nil, fmt.Errorf("memmap too short")
	}
	le := binary.LittleEndian
	n := int(le.Uint32(p[0:]))
	if len(p) != 4+extentWireSize*n {
		return nil, fmt.Errorf("memmap %d bytes, want %d for %d extents", len(p), 4+extentWireSize*n, n)
	}
	out := make([]PageExtent, n)
	for i := range out {
		base := 4 + extentWireSize*i
		out[i].GFN = le.Uint64(p[base:])
		out[i].MFN = le.Uint64(p[base+8:])
		out[i].Order = p[base+16]
	}
	return out, nil
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

func decodeDevice(p []byte, d *EmulatedDevice) error {
	var err error
	d.Kind, p, err = readString(p)
	if err != nil {
		return err
	}
	d.Model, p, err = readString(p)
	if err != nil {
		return err
	}
	if len(p) < 5 {
		return fmt.Errorf("device section truncated")
	}
	d.UnplugOnTransplant = p[0] == 1
	n := int(binary.LittleEndian.Uint32(p[1:]))
	p = p[5:]
	if len(p) != n {
		return fmt.Errorf("device state %d bytes, want %d", len(p), n)
	}
	if n > 0 {
		d.State = make([]byte, n)
		copy(d.State, p)
	}
	return nil
}

// putString writes a length-prefixed string at out[off:] and returns the
// offset just past it.
func putString(out []byte, off int, s string) int {
	binary.LittleEndian.PutUint16(out[off:], uint16(len(s)))
	copy(out[off+2:], s)
	return off + 2 + len(s)
}

func readString(p []byte) (string, []byte, error) {
	if len(p) < 2 {
		return "", nil, fmt.Errorf("truncated string length")
	}
	n := int(binary.LittleEndian.Uint16(p))
	p = p[2:]
	if len(p) < n {
		return "", nil, fmt.Errorf("truncated string body")
	}
	return string(p[:n]), p[n:], nil
}
