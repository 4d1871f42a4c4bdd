package uisr

import (
	"bytes"
	"testing"

	"hypertp/internal/fuzzseed"
)

// fuzzDecodeSeeds is the shared seed list: f.Add'ed by the fuzz target
// and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzDecodeSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	valid, err := Encode(SyntheticVM("seed", 1, 2, 1<<30, 7))
	if err != nil {
		tb.Fatal(err)
	}
	mutated := append([]byte(nil), valid...)
	mutated[20] ^= 0xff
	// The header claims nine vCPUs over two vCPUs' sections.
	overcount := append([]byte(nil), valid...)
	overcount[headerVCPUCountOffset] = 9
	return [][]byte{valid, {}, valid[:16], mutated, overcount}
}

func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzDecodeSeeds(t)
	fuzzseed.Check(t, "FuzzDecode", seeds...)
	if _, err := Decode(seeds[0]); err != nil {
		t.Fatalf("the valid seed is rejected: %v", err)
	}
}

// FuzzDecode: the UISR decoder must never panic on arbitrary bytes, and
// anything it accepts must re-encode to a decodable blob (decode/encode
// stability). Run with `go test -fuzz=FuzzDecode ./internal/uisr`; in
// normal test runs the seed corpus executes.
func FuzzDecode(f *testing.F) {
	for _, seed := range fuzzDecodeSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Decode(data)
		if err != nil {
			return // rejected, fine
		}
		re, err := Encode(st)
		if err != nil {
			t.Fatalf("accepted state does not re-encode: %v", err)
		}
		st2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded blob does not decode: %v", err)
		}
		re2, err := Encode(st2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatal("encode not stable after one round trip")
		}
	})
}

// TestParserAllocBudget: Decode allocates per slice it fills (the state,
// its vCPUs, strings, MSR lists, devices), a few more to reject, and
// nothing per byte read.
func TestParserAllocBudget(t *testing.T) {
	fuzzseed.CheckAllocs(t, fuzzDecodeSeeds(t), 10, 1.5, func(b []byte) { Decode(b) })
}
