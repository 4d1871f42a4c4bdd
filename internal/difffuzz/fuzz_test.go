package difffuzz

import (
	"fmt"
	"os"
	"reflect"
	"testing"

	"hypertp/internal/chaos"
	"hypertp/internal/fuzzseed"
	"hypertp/internal/hv"
	"hypertp/internal/uisr"
)

// transplantTraceSeeds is the checked-in corpus of FuzzTransplantTrace:
// recorded traces from the chaos generator in the bundle format, under
// assorted mutation seeds, plus one raw non-JSON input that exercises
// the total byte-derived decoder.
func transplantTraceSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	mk := func(mutSeed uint64, cfg chaos.Config) []byte {
		data, err := EncodeInput(mutSeed, cfg, chaos.Generate(cfg))
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return [][]byte{
		// Verbatim replay of the standard soak shape.
		mk(0, chaos.Config{Seed: 20210426, Ops: 12, Hosts: 3, VMs: 4, FaultRate: 0.15}),
		// Mutated crash-vocabulary trace.
		mk(0xc0ffee, chaos.Config{Seed: 7, Ops: 16, Hosts: 4, VMs: 4, Crash: true, FaultRate: 0.1}),
		// Mutated cached trace (warm pool + transplant cache live).
		mk(42, chaos.Config{Seed: 99, Ops: 10, Hosts: 2, VMs: 2, Cache: true}),
		// Raw bytes: no bundle JSON, decoded by deriveTrace.
		{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x06, 0x01, 0x02, 0x80, 0x07,
			0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15},
	}
}

// roundTripSeeds is the checked-in corpus of FuzzRoundTrip.
func roundTripSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	params := []RoundTripParams{
		{Seed: 0x20210427, VMs: 1, VCPUs: 1, MemBytes: 16 << 20, Pages: 32},
		{Seed: 0xfeedface1, VMs: 3, VCPUs: 2, MemBytes: 32 << 20, Pages: 100, HugePages: true},
		{Seed: 0xabad1dea, VMs: 2, VCPUs: 4, MemBytes: 64 << 20, Pages: 7, HugePages: true, M2: true},
	}
	out := make([][]byte, len(params))
	for i, p := range params {
		out[i] = p.EncodeRoundTrip()
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in testdata/fuzz corpora in
// lockstep with the f.Add lists above (regenerate: make fuzz-seeds).
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzTransplantTrace", transplantTraceSeeds(t)...)
	fuzzseed.Check(t, "FuzzRoundTrip", roundTripSeeds(t)...)
}

// writeRepro persists a replayable chaos bundle next to the fuzzer so a
// CI failure uploads it as an artifact (nightly.yml collects
// internal/difffuzz/chaos-bundle-*.json).
func writeRepro(t *testing.T, name string, data []byte) {
	t.Helper()
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Logf("could not write repro bundle %s: %v", name, err)
		return
	}
	t.Logf("replayable repro written to %s (run `go run ./cmd/chaoscheck -replay %s`)", name, name)
}

// FuzzTransplantTrace replays recorded-and-mutated transplant traces
// under the full invariant auditor: any byte string decodes to a valid
// trace, the mutator chain is deterministic in the input alone, and a
// violation is both a fuzz crasher and a shrunk replayable bundle.
func FuzzTransplantTrace(f *testing.F) {
	for _, s := range transplantTraceSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mutSeed, cfg, ops := DecodeInput(data)
		cfg, ops = Mutate(cfg, ops, mutSeed)
		if len(ops) == 0 {
			return
		}
		res, err := chaos.RunOps(cfg, ops)
		if err != nil {
			t.Fatalf("harness construction failed: %v", err)
		}
		if res.Failure == nil {
			return
		}
		shrunk, fail := chaos.Shrink(cfg, ops, res.Failure)
		if bundle, merr := chaos.NewBundle(cfg, shrunk, fail, res.Trace).Marshal(); merr == nil {
			writeRepro(t, "chaos-bundle-trace.json", bundle)
		}
		t.Fatalf("invariant violation on mutated trace (mutSeed=%#x): %v", mutSeed, fail.Err())
	})
}

// selfRestore checks the converter matrix's diagonal on every VM of h:
// the state h saved — at rest as the engine saves it, no memory map —
// restored on h itself as a second VM, must save to the same bytes.
func selfRestore(h hv.Hypervisor) error {
	atRest := func(id hv.VMID, as uint32) (*uisr.VMState, []byte, error) {
		st, err := h.SaveUISR(id)
		if err != nil {
			return nil, nil, err
		}
		st.VMID, st.MemMap = as, nil
		blob, err := uisr.Encode(st)
		return st, blob, err
	}
	for _, vm := range h.VMs() {
		if err := h.Pause(vm.ID); err != nil {
			return err
		}
		st, blob, err := atRest(vm.ID, uint32(vm.ID))
		if err != nil {
			return err
		}
		if err := h.Resume(vm.ID); err != nil {
			return err
		}
		clone, err := h.RestoreUISR(st, hv.RestoreOptions{Mode: hv.RestoreAllocate})
		if err != nil {
			return err
		}
		_, reblob, err := atRest(clone.ID, st.VMID) // restored VMs come back paused
		if err == nil {
			err = h.DestroyVM(clone.ID)
		}
		if err != nil {
			return err
		}
		if d := uisr.DiffBlobs(blob, reblob); d != "" {
			return fmt.Errorf("vm %s: %v→%v self-restore changed the state: %s", vm.Config.Name, h.Kind(), h.Kind(), d)
		}
	}
	return nil
}

// FuzzRoundTrip drives arbitrary VM state through all nine directions of
// the Xen/KVM/NOVA converter matrix — the six transplants of
// roundTripTour plus a self-restore at every stop — cold and through the
// transplant cache, and fails on any byte divergence in guest memory,
// device state, or re-encoded UISR blobs.
func FuzzRoundTrip(f *testing.F) {
	for _, s := range roundTripSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p := DecodeRoundTrip(data)
		if err := CheckRoundTrip(p, selfRestore); err != nil {
			if bundle, berr := ReproBundle(p); berr == nil {
				writeRepro(t, "chaos-bundle-roundtrip.json", bundle)
			}
			t.Fatalf("differential round-trip divergence for %+v: %v", p, err)
		}
	})
}

// TestRoundTripDifferential is the plain-test slice of FuzzRoundTrip:
// every checked-in seed scenario must hold all equivalence claims.
func TestRoundTripDifferential(t *testing.T) {
	for _, s := range roundTripSeeds(t) {
		p := DecodeRoundTrip(s)
		if err := CheckRoundTrip(p, selfRestore); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	}
}

// TestTransplantTraceSeedsReplayClean: the checked-in trace seeds must
// replay without violations — a dirty seed would make every fuzz run
// fail instantly.
func TestTransplantTraceSeedsReplayClean(t *testing.T) {
	for i, s := range transplantTraceSeeds(t) {
		mutSeed, cfg, ops := DecodeInput(s)
		cfg, ops = Mutate(cfg, ops, mutSeed)
		res, err := chaos.RunOps(cfg, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", i, res.Failure.Err())
		}
	}
}

// TestInputCodecRoundTrip: EncodeInput/DecodeInput are inverses for
// well-formed recorded traces, and DecodeInput is total on garbage.
func TestInputCodecRoundTrip(t *testing.T) {
	cfg := chaos.Config{Seed: 5, Ops: 9, Hosts: 3, VMs: 3, FaultRate: 0.2}
	ops := chaos.Generate(cfg)
	data, err := EncodeInput(0x1234, cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	mutSeed, gotCfg, gotOps := DecodeInput(data)
	if mutSeed != 0x1234 {
		t.Fatalf("mutation seed = %#x", mutSeed)
	}
	if !reflect.DeepEqual(gotOps, ops) {
		t.Fatal("ops changed across the input codec")
	}
	if gotCfg.Seed != 5 || gotCfg.Hosts != 3 || gotCfg.VMs != 3 {
		t.Fatalf("config changed across the input codec: %+v", gotCfg)
	}

	// Total on arbitrary bytes, and hostile shapes are clamped.
	for _, raw := range [][]byte{nil, {0}, []byte("not json at all"), make([]byte, 500)} {
		_, cfg, ops := DecodeInput(raw)
		if cfg.Hosts < 2 || cfg.Hosts > maxHosts || cfg.VMs < 1 || cfg.VMs > maxVMs {
			t.Fatalf("derived fleet shape out of range: %+v", cfg)
		}
		if len(ops) == 0 || len(ops) > maxOps {
			t.Fatalf("derived op count out of range: %d", len(ops))
		}
	}
	big, err := EncodeInput(0, chaos.Config{Seed: 1, Ops: 200, Hosts: 40, VMs: 40}, chaos.Generate(chaos.Config{Seed: 1, Ops: 200, Hosts: 40, VMs: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if _, cfg, ops := DecodeInput(big); cfg.Hosts != maxHosts || cfg.VMs != maxVMs || len(ops) != maxOps {
		t.Fatalf("oversized bundle not clamped: hosts=%d vms=%d ops=%d", cfg.Hosts, cfg.VMs, len(ops))
	}
}

// TestRoundTripParamCodec pins the byte layout both ways.
func TestRoundTripParamCodec(t *testing.T) {
	for _, s := range roundTripSeeds(t) {
		p := DecodeRoundTrip(s)
		if got := DecodeRoundTrip(p.EncodeRoundTrip()); !reflect.DeepEqual(got, p) {
			t.Fatalf("param codec not a round-trip: %+v vs %+v", got, p)
		}
	}
	p := DecodeRoundTrip(nil)
	if p.VMs < 1 || p.VCPUs < 1 || p.MemBytes == 0 || p.Pages < 1 || p.Seed == 0 {
		t.Fatalf("zero-input params invalid: %+v", p)
	}
}

// TestReproBundleReplays: a divergence repro must parse and replay on
// the chaos harness.
func TestReproBundleReplays(t *testing.T) {
	data, err := ReproBundle(RoundTripParams{Seed: 9, VMs: 2, VCPUs: 1, MemBytes: 16 << 20, Pages: 10})
	if err != nil {
		t.Fatal(err)
	}
	b, err := chaos.ParseBundle(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.IsFailure() {
		t.Fatal("repro bundle should be a trace bundle")
	}
	res, err := b.Replay()
	if err != nil {
		t.Fatal(err)
	}
	if res.Failure != nil {
		t.Fatalf("repro scenario violated an invariant on a healthy build: %v", res.Failure.Err())
	}
	if res.CacheStats.Hits == 0 {
		t.Fatalf("repro bundle never exercised the cache warm path: %v", res.CacheStats)
	}
}
