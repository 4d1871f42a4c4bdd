package uisr

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"runtime"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	orig := SyntheticVM("vm0", 7, 2, 1<<30, 42)
	orig.MemMap = NewMemMap([]PageExtent{
		{GFN: 0, MFN: 0x100, Order: 9},
		{GFN: 512, MFN: 0x900, Order: 9},
	})
	orig.MemBytes = 2 * (2 << 20)
	blob, err := Encode(orig)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(orig, got) {
		t.Fatal("decoded state differs from original")
	}
}

func TestRoundTripManyVCPUs(t *testing.T) {
	for _, n := range []int{1, 4, 10} {
		orig := SyntheticVM("vm", 1, n, 1<<30, uint64(n))
		blob, err := Encode(orig)
		if err != nil {
			t.Fatalf("%d vCPUs: %v", n, err)
		}
		got, err := Decode(blob)
		if err != nil {
			t.Fatalf("%d vCPUs: %v", n, err)
		}
		if len(got.VCPUs) != n {
			t.Fatalf("decoded %d vCPUs, want %d", len(got.VCPUs), n)
		}
		if !reflect.DeepEqual(orig, got) {
			t.Fatalf("%d vCPUs: round trip differs", n)
		}
	}
}

// Property: round trip is the identity for any synthetic seed/shape.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(seed uint64, vcpusRaw, memRaw uint8) bool {
		vcpus := int(vcpusRaw%10) + 1
		mem := (uint64(memRaw%12) + 1) << 30
		orig := SyntheticVM("p", 3, vcpus, mem, seed)
		blob, err := Encode(orig)
		if err != nil {
			return false
		}
		got, err := Decode(blob)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(orig, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsBadMagic(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	blob[0] ^= 0xff
	if _, err := Decode(blob); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestDecodeRejectsBadVersion(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	blob[4] = 0xff
	if _, err := Decode(blob); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	for _, cut := range []int{5, 13, len(blob) / 2, len(blob) - 1} {
		if _, err := Decode(blob[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestDecodeRejectsTrailingGarbage(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	if _, err := Decode(append(blob, 0xAA, 0xBB)); err == nil {
		t.Fatal("trailing garbage accepted")
	}
}

func TestDecodeRejectsUnknownSection(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	// Overwrite the first section's type tag (offset 12) with junk.
	blob[12] = 0x77
	blob[13] = 0x77
	if _, err := Decode(blob); err == nil {
		t.Fatal("unknown section accepted")
	}
}

func TestDecodeRejectsCorruptSectionCount(t *testing.T) {
	blob, _ := Encode(SyntheticVM("vm", 1, 1, 1<<30, 1))
	blob[8]++
	if _, err := Decode(blob); err == nil {
		t.Fatal("corrupt section count accepted")
	}
}

// headerVCPUCountOffset is where a blob holds the header's vCPU count:
// the header is the first section, the count at payload offset 12.
const headerVCPUCountOffset = topHeaderSize + sectionHeaderSize + 12

// TestDecodeChecksHeaderVCPUCount: the header's vCPU count is what sizes
// VCPUs, so it must agree with the per-vCPU sections that follow — and be
// bounded before anything is sized from it.
func TestDecodeChecksHeaderVCPUCount(t *testing.T) {
	for _, tc := range []struct {
		vcpus int
		count uint16
	}{{1, 9}, {2, 1}, {2, 3}, {1, 0}, {1, MaxVCPUs + 1}, {1, 0xffff}} {
		blob, err := Encode(SyntheticVM("vm", 1, tc.vcpus, 1<<30, 1))
		if err != nil {
			t.Fatal(err)
		}
		binary.LittleEndian.PutUint16(blob[headerVCPUCountOffset:], tc.count)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = Decode(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%d vCPUs' sections under a header saying %d: accepted", tc.vcpus, tc.count)
		}
		if got := after.TotalAlloc - before.TotalAlloc; tc.count > MaxVCPUs && got >= 64<<10 {
			t.Fatalf("header count %d: rejected (%v) after allocating %d bytes", tc.count, err, got)
		}
	}
	// The cap itself decodes.
	blob, err := Encode(SyntheticVM("vm", 1, MaxVCPUs, 1<<30, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st, err := Decode(blob); err != nil || len(st.VCPUs) != MaxVCPUs {
		t.Fatalf("%d vCPUs: %v", MaxVCPUs, err)
	}
}

func TestValidate(t *testing.T) {
	base := func() *VMState { return SyntheticVM("vm", 1, 2, 1<<30, 5) }

	s := base()
	s.Name = ""
	if err := s.Validate(); err == nil {
		t.Fatal("empty name accepted")
	}

	s = base()
	s.VCPUs = nil
	if err := s.Validate(); err == nil {
		t.Fatal("zero vCPUs accepted")
	}

	// The producer refuses what Decode would: a VM wider than MaxVCPUs
	// must fail before the blob exists, not after the kexec.
	s = SyntheticVM("vm", 1, MaxVCPUs+1, 1<<30, 5)
	if err := s.Validate(); err == nil {
		t.Fatalf("%d vCPUs accepted", MaxVCPUs+1)
	}
	if _, err := Encode(s); err == nil {
		t.Fatalf("Encode accepted %d vCPUs", MaxVCPUs+1)
	}
	if err := SyntheticVM("vm", 1, MaxVCPUs, 1<<30, 5).Validate(); err != nil {
		t.Fatalf("%d vCPUs rejected: %v", MaxVCPUs, err)
	}

	s = base()
	s.MemBytes = 0
	if err := s.Validate(); err == nil {
		t.Fatal("zero memory accepted")
	}

	s = base()
	s.VCPUs[1].ID = 5
	if err := s.Validate(); err == nil {
		t.Fatal("non-sequential vCPU ids accepted")
	}

	s = base()
	s.IOAPIC.NumPins = MaxIOAPICPins + 1
	if err := s.Validate(); err == nil {
		t.Fatal("oversized IOAPIC accepted")
	}

	s = base()
	s.MemMap = NewMemMap([]PageExtent{{GFN: 0, MFN: 1, Order: 0}}) // 4 KiB vs 1 GiB
	if err := s.Validate(); err == nil {
		t.Fatal("inconsistent memmap accepted")
	}

	// An order past 63 covers no pages (Pages() is 0), so the coverage
	// sum alone would not notice it.
	s = base()
	s.MemMap = NewMemMap([]PageExtent{{GFN: 0, MFN: 0, Order: 18}, {GFN: 0, MFN: 0, Order: 64}})
	if err := s.Validate(); err == nil {
		t.Fatal("memmap extent of order 64 accepted")
	}

	if err := base().Validate(); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}
}

func TestEncodeRejectsInvalid(t *testing.T) {
	s := SyntheticVM("vm", 1, 1, 1<<30, 1)
	s.Name = ""
	if _, err := Encode(s); err == nil {
		t.Fatal("Encode accepted invalid state")
	}
}

func TestPageExtentPages(t *testing.T) {
	if (PageExtent{Order: 0}).Pages() != 1 {
		t.Fatal("order 0 != 1 page")
	}
	if (PageExtent{Order: 9}).Pages() != 512 {
		t.Fatal("order 9 != 512 pages")
	}
}

// Fig. 14 anchor: the serialized UISR platform state is ~5 KB for one vCPU
// and ~38 KB for ten, growing ~3.7 KB per vCPU.
func TestEncodedSizeMatchesFig14(t *testing.T) {
	size := func(vcpus int) int {
		s := SyntheticVM("vm", 1, vcpus, 1<<30, 9)
		s.Devices = nil // Fig. 14 measures platform state
		n, err := EncodedSize(s)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	one := size(1)
	ten := size(10)
	if one < 4000 || one > 6200 {
		t.Fatalf("1-vCPU UISR = %d bytes, want ~5 KB", one)
	}
	if ten < 33000 || ten > 42000 {
		t.Fatalf("10-vCPU UISR = %d bytes, want ~38 KB", ten)
	}
	perVCPU := (ten - one) / 9
	if perVCPU < 3200 || perVCPU > 4200 {
		t.Fatalf("per-vCPU increment = %d bytes, want ~3.7 KB", perVCPU)
	}
}

func TestDeviceStateRoundTrip(t *testing.T) {
	s := SyntheticVM("vm", 1, 1, 1<<30, 3)
	s.Devices = []EmulatedDevice{
		{Kind: "virtio-net", Model: "xen-qemu", State: []byte{1, 2, 3}, UnplugOnTransplant: true},
		{Kind: "empty-state", Model: "m"},
	}
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Devices, got.Devices) {
		t.Fatalf("devices differ: %+v vs %+v", s.Devices, got.Devices)
	}
}

func TestSyntheticDeterminism(t *testing.T) {
	a := SyntheticVM("vm", 1, 2, 1<<30, 77)
	b := SyntheticVM("vm", 1, 2, 1<<30, 77)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different synthetic VMs")
	}
	c := SyntheticVM("vm", 1, 2, 1<<30, 78)
	ab, _ := Encode(a)
	cb, _ := Encode(c)
	if bytes.Equal(ab, cb) {
		t.Fatal("different seeds produced identical blobs")
	}
}

func TestMemMapOmittedWhenEmpty(t *testing.T) {
	s := SyntheticVM("vm", 1, 1, 1<<30, 1)
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got.MemMap.Len() != 0 {
		t.Fatal("empty memmap did not stay empty")
	}
}

func TestOptionalTimerSections(t *testing.T) {
	s := SyntheticVM("vm", 1, 1, 1<<30, 21)
	if !s.HasHPET || !s.HasPMTimer {
		t.Fatal("synthetic VM missing platform timers")
	}
	// Present: round trips.
	blob, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !got.HasHPET || got.HPET != s.HPET {
		t.Fatal("HPET lost in round trip")
	}
	if !got.HasPMTimer || got.PMTimer != s.PMTimer {
		t.Fatal("PM timer lost in round trip")
	}
	if got.RTC != s.RTC {
		t.Fatal("RTC lost in round trip")
	}
	// Absent: sections omitted, flags stay false.
	s.HasHPET, s.HasPMTimer = false, false
	blob2, err := Encode(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob2) >= len(blob) {
		t.Fatal("omitting timers did not shrink the blob")
	}
	got2, err := Decode(blob2)
	if err != nil {
		t.Fatal(err)
	}
	if got2.HasHPET || got2.HasPMTimer {
		t.Fatal("absent timers decoded as present")
	}
}

func TestEncodedSizeMatchesEncode(t *testing.T) {
	for _, vcpus := range []int{1, 4, 16} {
		s := SyntheticVM("sz", 7, vcpus, 4<<30, uint64(vcpus)*13)
		blob, err := Encode(s)
		if err != nil {
			t.Fatal(err)
		}
		n, err := EncodedSize(s)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(blob) {
			t.Errorf("vcpus=%d: EncodedSize %d, Encode produced %d bytes", vcpus, n, len(blob))
		}
	}
}

// blobSection is one framed section of an encoded blob.
type blobSection struct {
	typ, inst uint16
	payload   []byte
}

// splitSections frames blob's sections with the reader, end included.
func splitSections(t *testing.T, blob []byte) []blobSection {
	t.Helper()
	r := NewReader(blob[topHeaderSize:])
	var secs []blobSection
	for r.Len() > 0 {
		typ, inst, p := r.Record()
		secs = append(secs, blobSection{typ, inst, p.Bytes(p.Len())})
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return secs
}

// joinSections re-frames secs under a top header whose section count
// agrees with them, as a forger of a consistent blob would.
func joinSections(secs []blobSection) []byte {
	out := binary.LittleEndian.AppendUint32(nil, Magic)
	out = binary.LittleEndian.AppendUint16(out, Version)
	out = binary.LittleEndian.AppendUint16(out, 0)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(secs)))
	for _, s := range secs {
		out = binary.LittleEndian.AppendUint16(out, s.typ)
		out = binary.LittleEndian.AppendUint16(out, s.inst)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(s.payload)))
		out = append(out, s.payload...)
	}
	return out
}

// TestDecodeRequiresEverySectionOnce: a blob whose framing and section
// count are consistent but whose state is incomplete or doubled decodes
// to a guest restored wrong — a zero LAPIC base, no MSRs, a register
// file from another vCPU — so each case is rejected.
func TestDecodeRequiresEverySectionOnce(t *testing.T) {
	blob, err := Encode(SyntheticVM("vm", 1, 2, 1<<30, 3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(joinSections(splitSections(t, blob))); err != nil {
		t.Fatalf("re-framed valid blob rejected: %v", err)
	}
	drop := func(drop func(blobSection) bool) func([]blobSection) []blobSection {
		return func(secs []blobSection) []blobSection {
			var out []blobSection
			for _, s := range secs {
				if !drop(s) {
					out = append(out, s)
				}
			}
			return out
		}
	}
	// repeat appends a copy of the first typ section before the end.
	repeat := func(typ uint16) func([]blobSection) []blobSection {
		return func(secs []blobSection) []blobSection {
			for _, s := range secs {
				if s.typ == typ {
					end := len(secs) - 1
					return append(secs[:end:end], s, secs[end])
				}
			}
			t.Fatalf("no %s section to repeat", SectionName(typ))
			return nil
		}
	}
	for _, tc := range []struct {
		name string
		edit func([]blobSection) []blobSection
	}{
		{"vCPU 1 without LAPIC, LAPIC_REGS and MSRs", drop(func(s blobSection) bool {
			return s.inst == 1 && (s.typ == SecLAPIC || s.typ == SecLAPICRegs || s.typ == SecMSRs)
		})},
		{"vCPU 1's registers relabelled as vCPU 0's", func(secs []blobSection) []blobSection {
			for i := range secs {
				if secs[i].typ == SecCPU && secs[i].inst == 1 {
					secs[i].inst = 0
				}
			}
			return secs
		}},
		{"no IOAPIC section", drop(func(s blobSection) bool { return s.typ == SecIOAPIC })},
		{"a second RTC section", repeat(SecRTC)},
		{"a second PIT section", repeat(SecPIT)},
	} {
		if _, err := Decode(joinSections(tc.edit(splitSections(t, blob)))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
