package kvm

import (
	"bytes"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/uisr"
)

// fuzzMSRBlockSeeds is the shared seed list: f.Add'ed by the fuzz
// target and mirrored into testdata/fuzz/ by TestFuzzSeedCorpus.
func fuzzMSRBlockSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	st := uisr.SyntheticVM("seed", 1, 2, 64<<20, 5)
	var vs vcpuState
	vcpuFromUISR(&st.VCPUs[0], &vs)
	valid := marshalMsrs(vs.msrs)
	mutated := append([]byte(nil), valid...)
	mutated[0] ^= 0x80 // corrupt the count
	return [][]byte{valid, {}, valid[:7], marshalMsrs(nil), mutated}
}

func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzMSRBlock", fuzzMSRBlockSeeds(t)...)
}

// FuzzMSRBlock: the KVM_SET_MSRS wire parser consumes bytes produced by
// another host's toolstack (the MigrationTP stream), so it must never
// panic on arbitrary input, anything it accepts must re-marshal stably,
// and the MTRR/APIC-base split must be idempotent on canonical blocks.
func FuzzMSRBlock(f *testing.F) {
	for _, seed := range fuzzMSRBlockSeeds(f) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := parseMsrs(data)
		if err != nil {
			return
		}
		re := marshalMsrs(entries)
		entries2, err := parseMsrs(re)
		if err != nil {
			t.Fatalf("re-marshaled MSR block rejected: %v", err)
		}
		if !bytes.Equal(re, marshalMsrs(entries2)) {
			t.Fatal("marshal not stable")
		}
		// A block carrying MTRRdefType splits into neutral state; the
		// canonical re-encoding of that state must split identically.
		mtrr, generic, apicBase, err := msrsToUISR(entries)
		if err != nil {
			return
		}
		canon := appendMTRR(nil, &mtrr)
		canon = append(canon, kvmMsrEntry{Index: msrAPICBase, Value: apicBase})
		for _, m := range generic {
			canon = append(canon, kvmMsrEntry{Index: m.Index, Value: m.Value})
		}
		mtrr2, generic2, apicBase2, err := msrsToUISR(canon)
		if err != nil {
			t.Fatalf("canonical MSR block rejected: %v", err)
		}
		if mtrr2 != mtrr || apicBase2 != apicBase || len(generic2) != len(generic) {
			t.Fatalf("MTRR/APIC-base split not idempotent: %+v vs %+v", mtrr, mtrr2)
		}
	})
}
