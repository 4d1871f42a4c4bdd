package xen

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"hypertp/internal/uisr"
)

// TestRecordCodecMatchesStdlib keeps encoding/binary as the reference for
// every fixed-layout HVM save record: for seeded random field values
// uisr.PutFixed equals binary.Write byte for byte, uisr.GetFixed equals
// binary.Read field for field, and the cached size equals binary.Size.
func TestRecordCodecMatchesStdlib(t *testing.T) {
	records := []struct {
		zero any
		size int
	}{
		{hvmHeader{}, sizeHeader}, {hvmCPU{}, sizeCPU}, {hvmLAPIC{}, sizeLAPIC},
		{hvmLAPICRegs{}, sizeLAPICRegs}, {hvmIOAPIC{}, sizeIOAPIC}, {hvmPIT{}, sizePIT},
		{hvmRTC{}, sizeRTC}, {hvmHPET{}, sizeHPET}, {hvmPMTimer{}, sizePMTimer},
		{hvmMTRR{}, sizeMTRR}, {hvmXSave{}, sizeXSave},
	}
	rng := rand.New(rand.NewSource(15))
	for _, rec := range records {
		typ := reflect.TypeOf(rec.zero)
		if want := binary.Size(rec.zero); rec.size != want {
			t.Fatalf("%v: cached size %d, binary.Size %d", typ, rec.size, want)
		}
		for round := 0; round < 8; round++ {
			wire := make([]byte, rec.size)
			rng.Read(wire)
			want, got := reflect.New(typ).Interface(), reflect.New(typ).Interface()
			if err := binary.Read(bytes.NewReader(wire), binary.LittleEndian, want); err != nil {
				t.Fatal(err)
			}
			if err := uisr.GetFixed(wire, got, rec.size); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v: GetFixed differs from binary.Read\n got %+v\nwant %+v", typ, got, want)
			}
			var ref bytes.Buffer
			if err := binary.Write(&ref, binary.LittleEndian, want); err != nil {
				t.Fatal(err)
			}
			out := make([]byte, rec.size)
			uisr.PutFixed(out, got)
			if !bytes.Equal(out, ref.Bytes()) {
				t.Fatalf("%v: PutFixed differs from binary.Write", typ)
			}
		}
	}
}

// contextOf builds the HVM context of a synthetic VM.
func contextOf(tb testing.TB, vcpus int) *domainContext {
	tb.Helper()
	st := uisr.SyntheticVM("ctx", 1, vcpus, 64<<20, 11)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	ctx, err := fromUISR(st)
	if err != nil {
		tb.Fatal(err)
	}
	return ctx
}

// TestContextCodecAllocBudget: marshalContext sizes the blob and
// allocates it once; parseContext allocates the context, the growth of
// its per-vCPU slice and one MSR list per vCPU — nothing per record.
func TestContextCodecAllocBudget(t *testing.T) {
	// 1 context + the growth steps of vcpus (cap 1, 2, 4, 8) + the MSR lists.
	for vcpus, want := range map[int]float64{1: 1 + 1 + 1, 4: 1 + 3 + 4, 8: 1 + 4 + 8} {
		ctx := contextOf(t, vcpus)
		blob := marshalContext(ctx)
		if n := testing.AllocsPerRun(20, func() { marshalContext(ctx) }); n != 1 {
			t.Errorf("marshalContext allocated %v times per %d-vCPU context, want 1", n, vcpus)
		}
		if n := testing.AllocsPerRun(20, func() {
			if _, err := parseContext(blob); err != nil {
				t.Fatal(err)
			}
		}); n != want {
			t.Errorf("parseContext allocated %v times per %d-vCPU context, want %v", n, vcpus, want)
		}
	}
}

// hostileContextBlobs are descriptors that once made parseContext
// allocate far beyond the blob's own size or panic: per-vCPU records
// naming instance 65535 with an empty payload (the slices grew before
// the length was checked: 919 MB for 8 bytes), and an MSR record whose
// entry count wraps 8+16*n back to the payload length.
func hostileContextBlobs() [][]byte {
	var blobs [][]byte
	for _, typecode := range []uint16{recMSR, recCPU, recLAPIC, recLAPICRegs, recMTRR, recXSave} {
		blobs = append(blobs, []byte{byte(typecode), 0, 0xff, 0xff, 0, 0, 0, 0})
	}
	return append(blobs, []byte{byte(recMSR), 0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10})
}

func TestParseContextRejectsHostileInstance(t *testing.T) {
	for _, blob := range hostileContextBlobs() {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := parseContext(blob)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("blob % x accepted", blob)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= 64<<10 {
			t.Fatalf("blob % x: rejected (%v) after allocating %d bytes", blob, err, got)
		}
	}
	// The cap is HVM_MAX_VCPUS itself: a well-formed record for instance
	// 128 is refused, one for instance 127 is not.
	ctx := &domainContext{}
	if _, err := ctx.admit(uisr.MaxVCPUs, sizeLAPIC, sizeLAPIC); err == nil {
		t.Fatal("instance 128 admitted")
	}
	if _, err := ctx.admit(uisr.MaxVCPUs-1, sizeLAPIC, sizeLAPIC); err != nil || len(ctx.vcpus) != uisr.MaxVCPUs {
		t.Fatalf("instance 127: err %v, %d vCPUs", err, len(ctx.vcpus))
	}
}

var benchSink int

func BenchmarkMarshalContext(b *testing.B) {
	for _, vcpus := range []int{1, 8} {
		ctx := contextOf(b, vcpus)
		b.Run(vcpuLabel(vcpus), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchSink += len(marshalContext(ctx))
			}
		})
	}
}

func BenchmarkParseContext(b *testing.B) {
	for _, vcpus := range []int{1, 8} {
		blob := marshalContext(contextOf(b, vcpus))
		b.Run(vcpuLabel(vcpus), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ctx, err := parseContext(blob)
				if err != nil {
					b.Fatal(err)
				}
				benchSink += len(ctx.vcpus)
			}
		})
	}
}

func vcpuLabel(n int) string { return fmt.Sprintf("%dvcpu", n) }

// contextRecord is one framed record of an HVM context blob.
type contextRecord struct {
	typ, inst uint16
	payload   []byte
}

func splitRecords(t *testing.T, blob []byte) []contextRecord {
	t.Helper()
	r := uisr.NewReader(blob)
	var recs []contextRecord
	for r.Len() > 0 {
		typ, inst, p := r.Record()
		recs = append(recs, contextRecord{typ, inst, p.Bytes(p.Len())})
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	return recs
}

func joinRecords(recs []contextRecord) []byte {
	var out []byte
	for _, rec := range recs {
		out = binary.LittleEndian.AppendUint16(out, rec.typ)
		out = binary.LittleEndian.AppendUint16(out, rec.inst)
		out = binary.LittleEndian.AppendUint32(out, uint32(len(rec.payload)))
		out = append(out, rec.payload...)
	}
	return out
}

// TestParseContextRequiresEveryRecordOnce: a well-framed context that
// lacks a vCPU's records, or repeats one, converts, validates and
// re-encodes into a guest restored wrong (RIP 0), so each is rejected.
func TestParseContextRequiresEveryRecordOnce(t *testing.T) {
	blob := marshalContext(contextOf(t, 2))
	if _, err := parseContext(joinRecords(splitRecords(t, blob))); err != nil {
		t.Fatalf("re-framed valid context rejected: %v", err)
	}
	edit := func(keep func(*contextRecord) bool) []byte {
		var out []contextRecord
		for _, rec := range splitRecords(t, blob) {
			if keep(&rec) {
				out = append(out, rec)
			}
		}
		return joinRecords(out)
	}
	for name, forged := range map[string][]byte{
		"every vCPU 0 record removed": edit(func(rec *contextRecord) bool {
			return rec.inst != 0 || vcpuRecords&(1<<rec.typ) == 0
		}),
		"vCPU 1's CPU record relabelled as vCPU 0's": edit(func(rec *contextRecord) bool {
			if rec.typ == recCPU && rec.inst == 1 {
				rec.inst = 0
			}
			return true
		}),
		"no RTC record": edit(func(rec *contextRecord) bool { return rec.typ != recRTC }),
		"two headers":   append(joinRecords(splitRecords(t, blob)[:1]), blob...),
	} {
		if _, err := parseContext(forged); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
