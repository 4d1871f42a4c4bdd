package uisr

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
)

// TestFixedCodecMatchesStdlib keeps encoding/binary as the reference for
// the fixed-layout codec: for seeded random field values PutFixed equals
// binary.Write byte for byte, GetFixed equals binary.Read field for field,
// and FixedSize equals binary.Size, for every fixed-layout section.
func TestFixedCodecMatchesStdlib(t *testing.T) {
	records := []struct {
		zero any
		size int
	}{
		{Regs{}, sizeRegs}, {SRegs{}, sizeSRegs}, {FPU{}, fpuSize}, {XSave{}, sizeXSave},
		{MTRRState{}, sizeMTRR}, {IOAPIC{}, sizeIOAPIC}, {PIT{}, sizePIT},
		{RTC{}, sizeRTC}, {HPET{}, sizeHPET}, {PMTimer{}, sizePMTimer},
	}
	rng := rand.New(rand.NewSource(15))
	for _, rec := range records {
		typ := reflect.TypeOf(rec.zero)
		if want := binary.Size(rec.zero); rec.size != want || FixedSize(rec.zero) != want {
			t.Fatalf("%v: cached size %d, FixedSize %d, binary.Size %d", typ, rec.size, FixedSize(rec.zero), want)
		}
		for round := 0; round < 8; round++ {
			wire := make([]byte, rec.size)
			if round > 0 { // round 0 is the all-zero record (false bools)
				rng.Read(wire)
			}
			want, got := reflect.New(typ).Interface(), reflect.New(typ).Interface()
			if err := binary.Read(bytes.NewReader(wire), binary.LittleEndian, want); err != nil {
				t.Fatal(err)
			}
			if err := GetFixed(wire, got, rec.size); err != nil {
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
			PutFixed(out, got)
			if !bytes.Equal(out, ref.Bytes()) {
				t.Fatalf("%v: PutFixed differs from binary.Write", typ)
			}
		}
		if err := GetFixed(make([]byte, rec.size+1), reflect.New(typ).Interface(), rec.size); err == nil {
			t.Fatalf("%v: GetFixed accepted an oversized payload", typ)
		}
	}
}

// TestFixedSizeRejectsUnsupportedKinds: a record that gains a field the
// codec cannot carry must fail when its size is computed (package init).
func TestFixedSizeRejectsUnsupportedKinds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("FixedSize accepted a struct with an int32 field")
		}
	}()
	FixedSize(struct {
		A uint32
		B int32
	}{})
}

// TestEncodeAllocatesOnce asserts the budget Encode's doc comment claims.
func TestEncodeAllocatesOnce(t *testing.T) {
	s := SyntheticVM("alloc", 3, 4, 1<<30, 9)
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Encode(s); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("Encode allocated %v times per call, want 1", n)
	}
}

// TestCodecAllocBudgets pins the uisr layer of the state chain: building
// and decoding a VM's state allocate per slice they fill (the state, the
// vCPU array, one MSR list per vCPU, the devices and their strings), never
// per record, and the fixed-layout codec allocates nothing.
func TestCodecAllocBudgets(t *testing.T) {
	blob1, _ := Encode(SyntheticVM("alloc", 3, 1, 1<<30, 9))
	blob4, _ := Encode(SyntheticVM("alloc", 3, 4, 1<<30, 9))
	var regs SRegs
	wire := make([]byte, sizeSRegs)
	for _, tc := range []struct {
		name   string
		budget float64
		fn     func()
	}{
		// state, vCPUs, devices, two device snapshots + one MSR list per vCPU.
		{"SyntheticVM/1vcpu", 5 + 1, func() { SyntheticVM("alloc", 3, 1, 1<<30, 9) }},
		{"SyntheticVM/4vcpu", 5 + 4, func() { SyntheticVM("alloc", 3, 4, 1<<30, 9) }},
		// state, vCPUs, two header strings, per device two strings, per
		// snapshot its bytes, two growth steps of Devices + the MSR lists.
		{"Decode/1vcpu", 15 + 1, func() { Decode(blob1) }},
		{"Decode/4vcpu", 15 + 4, func() { Decode(blob4) }},
		{"PutFixed", 0, func() { PutFixed(wire, &regs) }},
		{"GetFixed", 0, func() { GetFixed(wire, &regs, sizeSRegs) }},
	} {
		if n := testing.AllocsPerRun(20, tc.fn); n > tc.budget {
			t.Errorf("%s allocated %v times per call, budget %v", tc.name, n, tc.budget)
		}
	}
}

// TestFixedCodecElementSwap exercises the branch only a big-endian host
// takes — reverse every multi-byte element after the copy. Forced on a
// little-endian host it must turn the codec into encoding/binary's
// big-endian layout, both ways.
func TestFixedCodecElementSwap(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("the swap is this host's normal path: TestFixedCodecMatchesStdlib covers it")
	}
	hostLittleEndian = false
	defer func() { hostLittleEndian = true }()
	want := SyntheticVM("swap", 1, 1, 1<<30, 5).VCPUs[0].SRegs
	var ref bytes.Buffer
	if err := binary.Write(&ref, binary.BigEndian, &want); err != nil {
		t.Fatal(err)
	}
	out := make([]byte, sizeSRegs)
	PutFixed(out, &want)
	if !bytes.Equal(out, ref.Bytes()) {
		t.Fatal("PutFixed with the element swap differs from big-endian binary.Write")
	}
	var got SRegs
	if err := GetFixed(out, &got, sizeSRegs); err != nil || got != want {
		t.Fatalf("GetFixed with the element swap: %v, round trip %v", err, got == want)
	}
}
