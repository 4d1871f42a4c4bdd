package xen

import (
	"bytes"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/uisr"
)

// fuzzParseContextSeeds is the shared seed list: f.Add'ed by the fuzz
// target and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzParseContextSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	st := uisr.SyntheticVM("seed", 1, 2, 64<<20, 5)
	st.IOAPIC.NumPins = uisr.XenIOAPICPins
	ctx, err := fromUISR(st)
	if err != nil {
		tb.Fatal(err)
	}
	valid := marshalContext(ctx)
	mutated := append([]byte(nil), valid...)
	mutated[4] ^= 0x80 // corrupt the first record's length
	hostile := hostileContextBlobs()
	return [][]byte{valid, {}, valid[:9], mutated, hostile[0], hostile[len(hostile)-1]}
}

func TestFuzzSeedCorpus(t *testing.T) {
	seeds := fuzzParseContextSeeds(t)
	fuzzseed.Check(t, "FuzzParseContext", seeds...)
	if _, err := parseContext(seeds[0]); err != nil {
		t.Fatalf("the valid seed is rejected: %v", err)
	}
}

// FuzzParseContext: the HVM context blob parser (the path that consumes
// state written by another hypervisor's toolstack) must never panic on
// arbitrary bytes, and anything it accepts must re-marshal stably.
func FuzzParseContext(f *testing.F) {
	for _, seed := range fuzzParseContextSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		parsed, err := parseContext(data)
		if err != nil {
			return
		}
		re := marshalContext(parsed)
		parsed2, err := parseContext(re)
		if err != nil {
			t.Fatalf("re-marshaled context rejected: %v", err)
		}
		if !bytes.Equal(re, marshalContext(parsed2)) {
			t.Fatal("marshal not stable")
		}
	})
}

// TestParserAllocBudget: parseContext allocates the context, the growth
// of its vCPU slice and one MSR list per vCPU, a few more to reject.
func TestParserAllocBudget(t *testing.T) {
	fuzzseed.CheckAllocs(t, fuzzParseContextSeeds(t), 10, 0.25, func(b []byte) { parseContext(b) })
}
