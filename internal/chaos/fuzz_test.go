package chaos

import (
	"encoding/binary"
	"os"
	"reflect"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/simtime"
)

// FuzzTransplantTrace feeds recorded transplant traces — chaos trace
// bundles, optionally passed through the deterministic mutators of
// mutate_test.go — back through the full invariant auditor.
//
// A fuzz input is an 8-byte little-endian mutation seed followed by
// bundle JSON (see NewTraceBundle and `chaoscheck -record-out`). Inputs
// whose tail is not a parseable bundle still replay: a fixed header
// draws the fleet shape, and the remaining bytes feed the generator's
// own body as its draw stream, so coverage-guided mutation of the bytes
// themselves stays productive and reaches every op kind Generate does.

// Replay-cost clamps on decoded traces. A hostile or degenerate bundle
// must not turn one fuzz iteration into a minutes-long soak.
const (
	maxOps   = 64
	maxHosts = 8
	maxVMs   = 8
)

// mutSeedSize is the mutation-seed header length of a fuzz input.
const mutSeedSize = 8

// decodeInput splits a fuzz input into its mutation seed and the
// recorded trace. Total: any byte string decodes to a replayable
// (config, ops) pair. A mutation seed of zero means "replay verbatim".
func decodeInput(data []byte) (mutSeed uint64, cfg Config, ops []Op) {
	if len(data) >= mutSeedSize {
		mutSeed = binary.LittleEndian.Uint64(data)
		data = data[mutSeedSize:]
	}
	if b, err := ParseBundle(data); err == nil {
		cfg, ops = b.Config, b.Ops
	} else {
		cfg, ops = deriveTrace(data)
	}
	cfg, ops = clampTrace(cfg, ops)
	return mutSeed, cfg, ops
}

// encodeInput renders a recorded trace plus mutation seed in the fuzz
// input format — the inverse of decodeInput for well-formed bundles.
func encodeInput(mutSeed uint64, cfg Config, ops []Op) ([]byte, error) {
	body, err := NewTraceBundle(cfg, ops).Marshal()
	if err != nil {
		return nil, err
	}
	out := make([]byte, mutSeedSize, mutSeedSize+len(body))
	binary.LittleEndian.PutUint64(out, mutSeed)
	return append(out, body...), nil
}

// clampTrace bounds a decoded trace to the per-iteration replay budget.
func clampTrace(cfg Config, ops []Op) (Config, []Op) {
	if cfg.Hosts > maxHosts {
		cfg.Hosts = maxHosts
	}
	if cfg.VMs > maxVMs {
		cfg.VMs = maxVMs
	}
	if cfg.FaultRate < 0 {
		cfg.FaultRate = 0
	}
	if cfg.FaultRate > 0.5 {
		cfg.FaultRate = 0.5
	}
	if cfg.OpBudget < 0 {
		cfg.OpBudget = 0
	}
	// A replayed trace must stand on its own ops, not re-generate.
	cfg.Ops = len(ops)
	// Breakers exist to prove the auditor catches planted violations;
	// under the fuzzer they would only produce expected failures.
	cfg.Break = ""
	if len(ops) > maxOps {
		ops = ops[:maxOps]
	}
	return cfg, ops
}

// rawHeaderSize is the fixed header of a raw (non-bundle) input.
const rawHeaderSize = 13

// deriveTrace maps arbitrary bytes to a valid trace: a fixed-layout
// header draws the fleet shape, op count and flags, then the rest of
// the bytes are the generator's draw stream. Every byte value is
// meaningful and none can reject — the property that keeps mutated
// non-JSON inputs exploring op-sequence space instead of dying in a
// parser.
func deriveTrace(data []byte) (Config, []Op) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	var seed uint64
	for i := 0; i < 8; i++ {
		seed = seed<<8 | uint64(at(i))
	}
	flags := at(8)
	cfg := Config{
		Seed:  seed | 1,
		Ops:   1 + int(at(12))%24,
		Hosts: 2 + int(at(9))%3,
		VMs:   1 + int(at(10))%4,
		Crash: flags&1 != 0,
		Cache: flags&2 != 0,
	}
	if flags&4 != 0 {
		cfg.FaultRate = float64(at(11)) / 255 * 0.3
	}
	src := &byteSource{}
	if len(data) > rawHeaderSize {
		src.data = data[rawHeaderSize:]
	}
	return cfg, generate(cfg, src)
}

// byteSource is the generator's draw stream over a raw fuzz input: each
// draw consumes one byte, so every input byte steers an op, and an
// exhausted input draws zeros. One byte covers every Intn the generator
// makes: its largest bound is the 100-way kind weight.
type byteSource struct{ data []byte }

func (s *byteSource) next() byte {
	if len(s.data) == 0 {
		return 0
	}
	b := s.data[0]
	s.data = s.data[1:]
	return b
}

func (s *byteSource) Intn(n int) int   { return int(s.next()) % n }
func (s *byteSource) Uint64() uint64   { return simtime.Mix(uint64(s.next())) }
func (s *byteSource) Float64() float64 { return float64(s.next()) / 256 }

// transplantTraceSeeds is the checked-in corpus of FuzzTransplantTrace:
// recorded traces from the chaos generator in the bundle format, under
// assorted mutation seeds, plus one raw non-JSON input that exercises
// the byte-driven decoder.
func transplantTraceSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	mk := func(mutSeed uint64, cfg Config) []byte {
		data, err := encodeInput(mutSeed, cfg, Generate(cfg))
		if err != nil {
			tb.Fatal(err)
		}
		return data
	}
	return [][]byte{
		// Verbatim replay of the standard soak shape.
		mk(0, Config{Seed: 20210426, Ops: 12, Hosts: 3, VMs: 4, FaultRate: 0.15}),
		// Mutated crash-vocabulary trace.
		mk(0xc0ffee, Config{Seed: 7, Ops: 16, Hosts: 4, VMs: 4, Crash: true, FaultRate: 0.1}),
		// Mutated cached trace (transplant cache live).
		mk(42, Config{Seed: 99, Ops: 10, Hosts: 2, VMs: 2, Cache: true}),
		// Raw bytes: no bundle JSON, decoded by deriveTrace.
		{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04, 0x06, 0x01, 0x02, 0x80, 0x07,
			0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x10, 0x11, 0x12, 0x13, 0x14, 0x15},
	}
}

// TestFuzzSeedCorpus keeps the checked-in testdata/fuzz corpus in
// lockstep with the f.Add list above (regenerate: make fuzz-seeds).
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzTransplantTrace", transplantTraceSeeds(t)...)
}

// writeRepro persists a replayable chaos bundle next to the fuzzer so a
// CI failure uploads it as an artifact (nightly.yml collects
// internal/chaos/chaos-bundle-trace.json).
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
		mutSeed, cfg, ops := decodeInput(data)
		cfg, ops = mutate(cfg, ops, mutSeed)
		if len(ops) == 0 {
			return
		}
		res, err := RunOps(cfg, ops)
		if err != nil {
			t.Fatalf("harness construction failed: %v", err)
		}
		if res.Failure == nil {
			return
		}
		shrunk, fail := Shrink(cfg, ops, res.Failure)
		if bundle, merr := NewBundle(cfg, shrunk, fail, res.Trace).Marshal(); merr == nil {
			writeRepro(t, "chaos-bundle-trace.json", bundle)
		}
		t.Fatalf("invariant violation on mutated trace (mutSeed=%#x): %v", mutSeed, fail.Err())
	})
}

// TestTransplantTraceSeedsReplayClean: the checked-in trace seeds must
// replay without violations — a dirty seed would make every fuzz run
// fail instantly.
func TestTransplantTraceSeedsReplayClean(t *testing.T) {
	for i, s := range transplantTraceSeeds(t) {
		mutSeed, cfg, ops := decodeInput(s)
		cfg, ops = mutate(cfg, ops, mutSeed)
		res, err := RunOps(cfg, ops)
		if err != nil {
			t.Fatalf("seed %d: %v", i, err)
		}
		if res.Failure != nil {
			t.Fatalf("seed %d: %v", i, res.Failure.Err())
		}
	}
}

// TestInputCodecRoundTrip: encodeInput/decodeInput are inverses for
// well-formed recorded traces, and decodeInput is total on garbage.
func TestInputCodecRoundTrip(t *testing.T) {
	cfg := Config{Seed: 5, Ops: 9, Hosts: 3, VMs: 3, FaultRate: 0.2}
	ops := Generate(cfg)
	data, err := encodeInput(0x1234, cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	mutSeed, gotCfg, gotOps := decodeInput(data)
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
		_, cfg, ops := decodeInput(raw)
		if cfg.Hosts < 2 || cfg.Hosts > maxHosts || cfg.VMs < 1 || cfg.VMs > maxVMs {
			t.Fatalf("derived fleet shape out of range: %+v", cfg)
		}
		if len(ops) == 0 || len(ops) > maxOps {
			t.Fatalf("derived op count out of range: %d", len(ops))
		}
	}
	big, err := encodeInput(0, Config{Seed: 1, Ops: 200, Hosts: 40, VMs: 40}, Generate(Config{Seed: 1, Ops: 200, Hosts: 40, VMs: 40}))
	if err != nil {
		t.Fatal(err)
	}
	if _, cfg, ops := decodeInput(big); cfg.Hosts != maxHosts || cfg.VMs != maxVMs || len(ops) != maxOps {
		t.Fatalf("oversized bundle not clamped: hosts=%d vms=%d ops=%d", cfg.Hosts, cfg.VMs, len(ops))
	}
}

// TestRawInputsReachEveryOpKind: raw inputs draw their ops through
// Generate's own body, so they reach exactly the kinds Generate emits —
// the crash kinds only when the header's crash flag is set. The test
// names no kind, so a kind added to the generator is covered with no
// edit here.
func TestRawInputsReachEveryOpKind(t *testing.T) {
	generated := map[bool]map[string]bool{false: {}, true: {}}
	for _, crash := range []bool{false, true} {
		for seed := uint64(1); seed <= 20; seed++ {
			for _, op := range Generate(Config{Seed: seed, Ops: 100, Crash: crash}) {
				generated[crash][op.Kind] = true
			}
		}
	}
	decoded := map[bool]map[string]bool{false: {}, true: {}}
	rng := simtime.NewRand(1)
	for i := 0; i < 400; i++ {
		data := make([]byte, mutSeedSize+rawHeaderSize+rng.Intn(64))
		for j := range data {
			data[j] = byte(rng.Uint64())
		}
		crash := data[mutSeedSize+8]&1 != 0
		_, _, ops := decodeInput(data)
		for _, op := range ops {
			decoded[crash][op.Kind] = true
		}
	}
	for _, crash := range []bool{false, true} {
		if !reflect.DeepEqual(decoded[crash], generated[crash]) {
			t.Errorf("crash flag %v: raw inputs decode to kinds %v, Generate emits %v",
				crash, decoded[crash], generated[crash])
		}
	}
	if len(generated[true]) <= len(generated[false]) {
		t.Errorf("Config.Crash adds no kinds: %v vs %v", generated[true], generated[false])
	}
}
