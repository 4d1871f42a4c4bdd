package checkpoint

import (
	"bytes"
	"encoding/binary"
	"hash/crc64"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hv"
	"hypertp/internal/hv/xen"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
)

// fuzzDeserializeSeeds is the shared seed list: f.Add'ed by the fuzz
// target and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzDeserializeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	clock := simtime.NewClock()
	x, err := xen.Boot(hw.NewMachine(clock, hw.M1()))
	if err != nil {
		tb.Fatal(err)
	}
	vm, err := x.CreateVM(hv.Config{
		Name: "seed", VCPUs: 1, MemBytes: 32 << 20, HugePages: true, Seed: 3,
	})
	if err != nil {
		tb.Fatal(err)
	}
	vm.Guest.WriteWorkingSet(0, 8)
	x.Pause(vm.ID)
	img, err := Save(x, vm.ID)
	if err != nil {
		tb.Fatal(err)
	}
	valid, err := Serialize(img)
	if err != nil {
		tb.Fatal(err)
	}
	return [][]byte{valid, {}, valid[:24]}
}

func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzDeserializeSeeds(t)
	fuzzseed.Check(t, "FuzzDeserialize", seeds...)
	if _, err := Deserialize(seeds[0]); err != nil {
		t.Fatalf("the valid seed is rejected: %v", err)
	}
}

// reseal returns data with its trailing checksum recomputed over the
// body, so a mutation reaches the framing parser behind the CRC.
func reseal(data []byte) []byte {
	if len(data) < 8 {
		return data
	}
	out := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(out[len(out)-8:], crc64.Checksum(out[:len(out)-8], hw.CRCTable))
	return out
}

// FuzzDeserialize: the checkpoint parser must never panic and never
// accept a corrupted image (the trailing CRC covers the whole body, so
// any mutation must be rejected). Each input is parsed twice: as is,
// and resealed, so the framing behind the checksum is fuzzed too.
func FuzzDeserialize(f *testing.F) {
	for _, seed := range fuzzDeserializeSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if _, err := Deserialize(data); err == nil && !bytes.Equal(data, reseal(data)) {
			t.Fatal("image with a stale checksum accepted")
		}
		got, err := Deserialize(reseal(data))
		if err != nil {
			return
		}
		// Anything accepted must round trip.
		re, err := Serialize(got)
		if err != nil {
			t.Fatalf("accepted image does not re-serialize: %v", err)
		}
		if _, err := Deserialize(re); err != nil {
			t.Fatalf("re-serialized image rejected: %v", err)
		}
	})
}

// TestParserAllocBudget: Deserialize allocates the image, one backing
// array for its pages and what the UISR decode allocates.
func TestParserAllocBudget(t *testing.T) {
	fuzzseed.CheckAllocs(t, fuzzDeserializeSeeds(t), 6, 0.47, func(b []byte) { Deserialize(b) })
}
