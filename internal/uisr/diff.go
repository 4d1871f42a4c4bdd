package uisr

import (
	"bytes"
	"fmt"
)

// sectionNames maps section type tags to the Table 2 names for
// diagnostics. Unknown tags render as hex.
var sectionNames = map[uint16]string{
	SecHeader:    "header",
	SecCPU:       "cpu",
	SecSRegs:     "sregs",
	SecMSRs:      "msrs",
	SecFPU:       "fpu",
	SecXSave:     "xsave",
	SecLAPIC:     "lapic",
	SecLAPICRegs: "lapic-regs",
	SecMTRR:      "mtrr",
	SecIOAPIC:    "ioapic",
	SecPIT:       "pit",
	SecMemMap:    "memmap",
	SecDevice:    "device",
	SecRTC:       "rtc",
	SecHPET:      "hpet",
	SecPMTimer:   "pmtimer",
	SecEnd:       "end",
}

// SectionName returns the human-readable name of a section type tag.
func SectionName(typ uint16) string {
	if n, ok := sectionNames[typ]; ok {
		return n
	}
	return fmt.Sprintf("%#04x", typ)
}

// DiffBlobs compares two encoded UISR blobs section by section and
// returns a human-readable description of the first divergence, or ""
// when the blobs are byte-identical. Where a raw byte compare only says
// "offset 1234 differs", DiffBlobs says which vCPU's MSR block (or
// which device section) diverged — the diagnostic the differential
// fuzzer attaches to a round-trip failure repro.
func DiffBlobs(a, b []byte) string {
	if bytes.Equal(a, b) {
		return ""
	}
	if len(a) < topHeaderSize || len(b) < topHeaderSize {
		return fmt.Sprintf("blob shorter than top header: %d vs %d bytes", len(a), len(b))
	}
	if !bytes.Equal(a[:topHeaderSize], b[:topHeaderSize]) {
		return fmt.Sprintf("top header differs: %x vs %x", a[:topHeaderSize], b[:topHeaderSize])
	}
	ra, rb := NewReader(a[topHeaderSize:]), NewReader(b[topHeaderSize:])
	for i := 0; ; i++ {
		doneA, doneB := ra.Len() == 0, rb.Len() == 0
		if doneA || doneB {
			if doneA && doneB {
				// Same framing, same payloads, yet not bytes.Equal —
				// unreachable for well-formed input, but never report
				// "no difference" for unequal blobs.
				return "blobs differ but sections compare equal"
			}
			return fmt.Sprintf("section count differs: one blob ends after %d sections", i)
		}
		// Only the framing is validated: payloads compare raw, so
		// malformed-but-framed blobs still diff byte for byte.
		ta, ia, pa := ra.Record()
		tb, ib, pb := rb.Record()
		if ra.Err() != nil || rb.Err() != nil {
			return fmt.Sprintf("framing differs at section %d: %v vs %v", i, ra.Err(), rb.Err())
		}
		if ta != tb || ia != ib || pa.Len() != pb.Len() {
			return fmt.Sprintf("section %d header differs: %s[%d] len %d vs %s[%d] len %d",
				i, SectionName(ta), ia, pa.Len(), SectionName(tb), ib, pb.Len())
		}
		if x, y := pa.Bytes(pa.Len()), pb.Bytes(pb.Len()); !bytes.Equal(x, y) {
			j := 0
			for j < len(x) && x[j] == y[j] {
				j++
			}
			return fmt.Sprintf("%s[%d] payload differs at byte %d of %d (%#02x vs %#02x)",
				SectionName(ta), ia, j, len(x), x[j], y[j])
		}
	}
}
