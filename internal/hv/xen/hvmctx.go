// Package xen models a Xen-4.12-flavoured type-I hypervisor re-engineered
// for HyperTP compliance. Its defining trait for the reproduction is its
// *internal state format*: platform state lives in an HVM context blob of
// typed save records (the format xc_domain_hvm_get/setcontext exchanges,
// §4.2.1), the guest memory map lives in a superpage-aware p2m, and VM
// management state lives in credit-scheduler run queues. None of this is
// understood by the KVM model — only the UISR converters bridge them.
package xen

import (
	"encoding/binary"
	"fmt"
	"math"

	"hypertp/internal/uisr"
)

// HVM save record type codes (matching Xen's public/arch-x86/hvm/save.h
// numbering where applicable).
const (
	recEnd       uint16 = 0
	recHeader    uint16 = 1
	recCPU       uint16 = 2
	recIOAPIC    uint16 = 4
	recLAPIC     uint16 = 5
	recLAPICRegs uint16 = 6
	recPIT       uint16 = 10
	recRTC       uint16 = 11
	recHPET      uint16 = 12
	recPMTimer   uint16 = 13
	recMTRR      uint16 = 14
	recXSave     uint16 = 16
	recMSR       uint16 = 20
)

// hvmHeader is the blob header record.
type hvmHeader struct {
	Magic   uint32 // "XnSv"
	Version uint32
	Changes uint64 // changeset id, informational
	CPUID   uint64
}

const hvmMagic = 0x766e5358 // "XSnv" little-endian bytes

// hvmCPU is Xen's per-vCPU architectural state record. Field order and
// grouping deliberately differ from both the UISR and the KVM layouts:
// segments are stored as packed (base, limit, arbytes, sel) quadruples and
// control registers live beside the GP file.
type hvmCPU struct {
	// GP register file, Xen's ordering.
	RAX, RBX, RCX, RDX, RBP, RSI, RDI, RSP uint64
	R8, R9, R10, R11, R12, R13, R14, R15   uint64
	RIP, RFlags                            uint64

	CR0, CR2, CR3, CR4 uint64

	// Segments: base, limit, arbytes, selector per register, in Xen's
	// cs/ds/es/fs/gs/ss/tr/ldtr order.
	CSBase, DSBase, ESBase, FSBase, GSBase, SSBase, TRBase, LDTRBase         uint64
	CSLimit, DSLimit, ESLimit, FSLimit, GSLimit, SSLimit, TRLimit, LDTRLimit uint32
	CSAr, DSAr, ESAr, FSAr, GSAr, SSAr, TRAr, LDTRAr                         uint32
	CSSel, DSSel, ESSel, FSSel, GSSel, SSSel, TRSel, LDTRSel                 uint16

	GDTBase, IDTBase   uint64
	GDTLimit, IDTLimit uint32

	// MSR-backed architectural state Xen keeps inline in the CPU record.
	EFER, CR8 uint64

	// FXSAVE image.
	FPU [512]byte
}

// hvmLAPIC is Xen's LAPIC summary record.
type hvmLAPIC struct {
	APICBaseMSR  uint64
	Disabled     uint32
	TimerDivisor uint32
}

// hvmLAPICRegs is Xen's LAPIC register page record: the full 1 KiB of
// architectural registers, one 32-bit register per 16-byte stride.
type hvmLAPICRegs struct {
	Data [1024]byte
}

// hvmIOAPIC is Xen's 48-pin virtual IOAPIC record.
type hvmIOAPIC struct {
	ID       uint32
	IORegSel uint32
	Redir    [uisr.XenIOAPICPins]uint64
}

// hvmPIT is Xen's i8254 record.
type hvmPIT struct {
	Channels [3]struct {
		Count        uint32
		LatchedCount uint32
		Mode         uint8
		BCD          uint8
		Gate         uint8
		OutHigh      uint8
		Pad          uint32
	}
	Speaker   uint8
	Pad       [7]byte
	CountLoad [3]uint64
}

// hvmRTC is Xen's MC146818 record: the CMOS image with the index latch
// appended (Xen's hvm_hw_rtc layout).
type hvmRTC struct {
	CMOS  [128]byte
	Index uint8
	Pad   [7]byte
}

// hvmHPET is Xen's HPET record.
type hvmHPET struct {
	Capability uint64
	Config     uint64
	ISR        uint64
	Counter    uint64
	Timers     [3]struct {
		Config     uint64
		Comparator uint64
		FSB        uint64
	}
}

// hvmPMTimer is Xen's ACPI PM timer record.
type hvmPMTimer struct {
	Value  uint32
	Pad    uint32
	BaseNS uint64
}

// hvmMTRR is Xen's per-vCPU MTRR record.
type hvmMTRR struct {
	PATCr    uint64
	Cap      uint64
	DefType  uint64
	Fixed    [11]uint64
	VarPairs [16]uint64 // base/mask interleaved
	Flags    uint32     // bit0: enabled, bit1: fixed enabled
	Pad      uint32
}

// hvmXSave is Xen's extended-state record.
type hvmXSave struct {
	XCR0      uint64
	XCR0Accum uint64
	Header    [64]byte
	YMM       [504]byte
}

// hvmMSREntry is one entry of Xen's MSR list record, whose payload is a
// 64-bit entry count followed by that many entries.
type hvmMSREntry struct {
	Index    uint32
	Reserved uint32
	Value    uint64
}

const (
	recDescSize  = 8  // typecode, instance, payload length
	msrCountSize = 8  // the MSR record's leading entry count
	msrEntrySize = 16 // one hvmMSREntry on the wire
)

// Wire sizes of the fixed-layout records, computed once.
var (
	sizeHeader    = uisr.FixedSize(hvmHeader{})
	sizeCPU       = uisr.FixedSize(hvmCPU{})
	sizeLAPIC     = uisr.FixedSize(hvmLAPIC{})
	sizeLAPICRegs = uisr.FixedSize(hvmLAPICRegs{})
	sizeIOAPIC    = uisr.FixedSize(hvmIOAPIC{})
	sizePIT       = uisr.FixedSize(hvmPIT{})
	sizeRTC       = uisr.FixedSize(hvmRTC{})
	sizeHPET      = uisr.FixedSize(hvmHPET{})
	sizePMTimer   = uisr.FixedSize(hvmPMTimer{})
	sizeMTRR      = uisr.FixedSize(hvmMTRR{})
	sizeXSave     = uisr.FixedSize(hvmXSave{})
)

// hvmVCPU is the per-vCPU records of one instance, side by side so a
// context holds one slice of them.
type hvmVCPU struct {
	cpu       hvmCPU
	lapic     hvmLAPIC
	lapicRegs hvmLAPICRegs
	mtrr      hvmMTRR
	xsave     hvmXSave
	msrs      []hvmMSREntry
}

// domainContext is the parsed in-memory form of one domain's HVM context.
type domainContext struct {
	header  hvmHeader
	vcpus   []hvmVCPU
	ioapic  hvmIOAPIC
	pit     hvmPIT
	rtc     hvmRTC
	hpet    hvmHPET
	pmtimer hvmPMTimer
}

// contextSize is the byte length of ctx in the HVM blob format, computed
// arithmetically, without serializing anything.
func contextSize(ctx *domainContext) int {
	size := 7*recDescSize + sizeHeader + sizeIOAPIC + sizePIT + sizeRTC + sizeHPET + sizePMTimer
	for i := range ctx.vcpus {
		size += 6*recDescSize + sizeCPU + sizeLAPIC + sizeLAPICRegs + sizeMTRR + sizeXSave +
			msrCountSize + msrEntrySize*len(ctx.vcpus[i].msrs)
	}
	return size
}

// putContext serializes ctx into out, exactly contextSize(ctx) bytes, in
// the HVM blob format: every record descriptor and payload written in
// place, so the blob can be built where it is kept — the domain's frames.
func putContext(out []byte, ctx *domainContext) {
	le := binary.LittleEndian
	off := 0
	// begin writes one record descriptor and returns the payload window.
	begin := func(typecode, instance uint16, length int) []byte {
		le.PutUint16(out[off:], typecode)
		le.PutUint16(out[off+2:], instance)
		le.PutUint32(out[off+4:], uint32(length))
		payload := out[off+recDescSize : off+recDescSize+length]
		off += recDescSize + length
		return payload
	}
	uisr.PutFixed(begin(recHeader, 0, sizeHeader), &ctx.header)
	for i := range ctx.vcpus {
		inst, v := uint16(i), &ctx.vcpus[i]
		uisr.PutFixed(begin(recCPU, inst, sizeCPU), &v.cpu)
		uisr.PutFixed(begin(recLAPIC, inst, sizeLAPIC), &v.lapic)
		uisr.PutFixed(begin(recLAPICRegs, inst, sizeLAPICRegs), &v.lapicRegs)
		uisr.PutFixed(begin(recMTRR, inst, sizeMTRR), &v.mtrr)
		uisr.PutFixed(begin(recXSave, inst, sizeXSave), &v.xsave)
		msrs := begin(recMSR, inst, msrCountSize+msrEntrySize*len(v.msrs))
		le.PutUint64(msrs, uint64(len(v.msrs)))
		for j, e := range v.msrs {
			base := msrCountSize + msrEntrySize*j
			le.PutUint32(msrs[base:], e.Index)
			le.PutUint32(msrs[base+4:], e.Reserved)
			le.PutUint64(msrs[base+8:], e.Value)
		}
	}
	uisr.PutFixed(begin(recIOAPIC, 0, sizeIOAPIC), &ctx.ioapic)
	uisr.PutFixed(begin(recPIT, 0, sizePIT), &ctx.pit)
	uisr.PutFixed(begin(recRTC, 0, sizeRTC), &ctx.rtc)
	uisr.PutFixed(begin(recHPET, 0, sizeHPET), &ctx.hpet)
	uisr.PutFixed(begin(recPMTimer, 0, sizePMTimer), &ctx.pmtimer)
	begin(recEnd, 0, 0)
	if off != len(out) {
		panic(fmt.Sprintf("xen: marshaled %d bytes, sized %d", off, len(out)))
	}
}

// admit checks one per-vCPU record before anything is allocated for it —
// the payload length first, then the instance against uisr.MaxVCPUs
// (Xen's HVM_MAX_VCPUS) — and only then grows vcpus to hold the instance,
// so a hostile descriptor cannot make the parser allocate more than the
// blob's own bytes justify. The blob carries no vCPU count to size from:
// putContext writes instances in order, so each is one append.
func (ctx *domainContext) admit(instance uint16, got, want int) (*hvmVCPU, error) {
	if got != want {
		return nil, fmt.Errorf("payload %d bytes, want %d", got, want)
	}
	if instance >= uisr.MaxVCPUs {
		return nil, fmt.Errorf("instance %d, HVM_MAX_VCPUS is %d", instance, uisr.MaxVCPUs)
	}
	for len(ctx.vcpus) <= int(instance) {
		ctx.vcpus = append(ctx.vcpus, hvmVCPU{})
	}
	return &ctx.vcpus[instance], nil
}

// The records a context must carry: the header and every platform record
// once, and each vCPU every per-vCPU record once.
const (
	platformRecords = 1<<recHeader | 1<<recIOAPIC | 1<<recPIT | 1<<recRTC | 1<<recHPET | 1<<recPMTimer | 1<<recEnd
	vcpuRecords     = 1<<recCPU | 1<<recLAPIC | 1<<recLAPICRegs | 1<<recMTRR | 1<<recXSave | 1<<recMSR
)

// parseContext parses an HVM blob back into a domain context. It is
// strict about framing, mirroring Xen's hvm_load checks, and about
// completeness: a record missing or repeated is an error, so no vCPU is
// ever restored from zeroes. A domain keeps the context it was born with,
// so this is the parser of blobs from outside — hostile input — and the
// reference the format tests hold the frames' bytes to.
func parseContext(blob []byte) (*domainContext, error) {
	ctx := &domainContext{}
	r := uisr.NewReader(blob)
	// One bit per record type seen: platform-wide, and per vCPU instance.
	var platform uint32
	var vcpus [uisr.MaxVCPUs]uint32
	for r.Len() > 0 {
		if platform&(1<<recEnd) != 0 {
			return nil, fmt.Errorf("xen: records after end marker")
		}
		typecode, instance, p := r.Record()
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("xen: record descriptor: %w", err)
		}
		var err error
		var v *hvmVCPU
		switch typecode {
		case recHeader:
			if p.Fixed(&ctx.header, sizeHeader); p.Err() == nil && ctx.header.Magic != hvmMagic {
				err = fmt.Errorf("bad context magic %#x", ctx.header.Magic)
			}
		case recCPU:
			if v, err = ctx.admit(instance, p.Len(), sizeCPU); err == nil {
				p.Fixed(&v.cpu, sizeCPU)
			}
		case recLAPIC:
			if v, err = ctx.admit(instance, p.Len(), sizeLAPIC); err == nil {
				p.Fixed(&v.lapic, sizeLAPIC)
			}
		case recLAPICRegs:
			if v, err = ctx.admit(instance, p.Len(), sizeLAPICRegs); err == nil {
				p.Fixed(&v.lapicRegs, sizeLAPICRegs)
			}
		case recMTRR:
			if v, err = ctx.admit(instance, p.Len(), sizeMTRR); err == nil {
				p.Fixed(&v.mtrr, sizeMTRR)
			}
		case recXSave:
			if v, err = ctx.admit(instance, p.Len(), sizeXSave); err == nil {
				p.Fixed(&v.xsave, sizeXSave)
			}
		case recMSR:
			n := p.Count(p.U64(), math.MaxInt, msrEntrySize)
			if err = p.Err(); err == nil {
				v, err = ctx.admit(instance, p.Len(), msrEntrySize*n)
			}
			if err == nil {
				v.msrs = make([]hvmMSREntry, n)
				for j := range v.msrs {
					v.msrs[j].Index, _, v.msrs[j].Value = p.U32(), p.U32(), p.U64()
				}
			}
		case recIOAPIC:
			p.Fixed(&ctx.ioapic, sizeIOAPIC)
		case recPIT:
			p.Fixed(&ctx.pit, sizePIT)
		case recRTC:
			p.Fixed(&ctx.rtc, sizeRTC)
		case recHPET:
			p.Fixed(&ctx.hpet, sizeHPET)
		case recPMTimer:
			p.Fixed(&ctx.pmtimer, sizePMTimer)
		case recEnd:
			platform |= 1 << recEnd // its payload is not read
			continue
		default:
			return nil, fmt.Errorf("xen: unknown record type %d", typecode)
		}
		if err == nil {
			err = p.Done()
		}
		seen := &platform
		if v != nil {
			seen = &vcpus[instance]
		}
		if err == nil && *seen&(1<<typecode) != 0 {
			err = fmt.Errorf("second record for instance %d", instance)
		}
		if err != nil {
			return nil, fmt.Errorf("xen: record type %d: %w", typecode, err)
		}
		*seen |= 1 << typecode
	}
	if platform != platformRecords {
		return nil, fmt.Errorf("xen: context blob lacks records (has %#x of %#x)", platform, platformRecords)
	}
	for i := range ctx.vcpus {
		if vcpus[i] != vcpuRecords {
			return nil, fmt.Errorf("xen: vCPU %d lacks records (has %#x of %#x)", i, vcpus[i], vcpuRecords)
		}
	}
	return ctx, nil
}
