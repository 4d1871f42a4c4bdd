package core

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"hypertp/internal/fuzzseed"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/simtime"
	"hypertp/internal/tpcache"
	"hypertp/internal/uisr"
)

// roundTripTour is one cycle of a differential run: from Xen, the closed
// walk over every ordered pair of distinct hypervisors (X→K→N→X→N→K→X),
// the six off-diagonal cells of the to_uisr × from_uisr matrix; the
// tests' atStop callback checks the three diagonal cells at every stop.
var roundTripTour = [...]hv.Kind{hv.KindKVM, hv.KindNOVA, hv.KindXen, hv.KindNOVA, hv.KindKVM, hv.KindXen}

// roundTripCycles is how many tours each differential run drives. Three
// guarantee the translation cache reaches its zero-miss fixed point, so
// the cached run genuinely exercises the warm path before the equivalence
// checks.
const roundTripCycles = 3

const roundTripHops = len(roundTripTour) * roundTripCycles

// roundTripParams describes one differential round-trip scenario:
// arbitrary VM state driven round roundTripTour through UISR
// translate/restore, once cold and once through the transplant cache.
type roundTripParams struct {
	Seed      uint64 // guest state + working-set content seed
	VMs       int    // 1..3
	VCPUs     int    // 1..4
	MemBytes  uint64
	Pages     int // workload pages written per VM before the first hop
	HugePages bool
	M2        bool // cost profile selection (never affects bytes)
}

// decodeRoundTrip maps arbitrary fuzz bytes to valid params — total,
// never rejecting, every byte meaningful.
func decodeRoundTrip(data []byte) roundTripParams {
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
	return roundTripParams{
		Seed:      seed | 1,
		VMs:       1 + int(at(8))%3,
		VCPUs:     1 + int(at(9))%4,
		MemBytes:  (16 << (at(10) % 3)) << 20, // 16, 32, or 64 MiB
		Pages:     1 + int(at(11))%128,
		HugePages: at(12)&1 != 0,
		M2:        at(12)&2 != 0,
	}
}

// encodeRoundTrip is decodeRoundTrip's inverse for in-range params,
// used to build the checked-in seed corpus.
func (p roundTripParams) encodeRoundTrip() []byte {
	out := make([]byte, 13)
	for i := 0; i < 8; i++ {
		out[i] = byte(p.Seed >> (8 * (7 - i)))
	}
	out[8] = byte(p.VMs - 1)
	out[9] = byte(p.VCPUs - 1)
	switch p.MemBytes >> 20 {
	case 32:
		out[10] = 1
	case 64:
		out[10] = 2
	}
	out[11] = byte(p.Pages - 1)
	if p.HugePages {
		out[12] |= 1
	}
	if p.M2 {
		out[12] |= 2
	}
	return out
}

// hopCapture is everything observable about the fleet after one hop:
// per-VM guest memory checksums and the re-encoded UISR blob of every
// VM (saved at rest on the hop's destination hypervisor, MemMap
// stripped exactly as the engine does — memory travels via PRAM and is
// covered by the checksums).
type hopCapture struct {
	kind   hv.Kind
	sums   map[string]uint64
	blobs  map[string][]byte
	report string
}

// runRoundTrip drives the scenario for roundTripCycles full cycles and
// captures the observable state after every hop, then hands the hop's
// hypervisor to atStop. cache may be nil (the cold run), atStop too.
func runRoundTrip(p roundTripParams, cache *tpcache.Cache, atStop func(hv.Hypervisor) error) ([]hopCapture, error) {
	prof := hw.M1()
	if p.M2 {
		prof = hw.M2()
	}
	// Slimmed physical memory, as in the chaos harness: enough for the
	// small tenant set, cheap to audit.
	prof.RAMBytes = 2 * hw.GiB
	clock := simtime.NewClock()
	engine := NewEngine(clock, hw.NewMachine(clock, prof))

	cur, err := engine.BootHypervisor(hv.KindXen)
	if err != nil {
		return nil, err
	}
	for i := 0; i < p.VMs; i++ {
		vm, err := cur.CreateVM(hv.Config{
			Name: fmt.Sprintf("rt-%02d", i), VCPUs: p.VCPUs, MemBytes: p.MemBytes,
			HugePages: p.HugePages, Seed: p.Seed + uint64(i), InPlaceCompatible: true,
		})
		if err != nil {
			return nil, err
		}
		if err := vm.Guest.WriteWorkingSet(hw.GFN(uint64(i)*8), p.Pages); err != nil {
			return nil, err
		}
	}

	opts := DefaultOptions()
	opts.HugePages = p.HugePages
	opts.Cache = cache

	caps := make([]hopCapture, 0, roundTripHops)
	for hop := 0; hop < roundTripHops; hop++ {
		target := roundTripTour[hop%len(roundTripTour)]
		dst, rep, err := engine.InPlace(cur, target, opts)
		if err != nil {
			return nil, fmt.Errorf("hop %d (%v→%v): %w", hop, cur.Kind(), target, err)
		}
		cap, err := capture(dst)
		if err == nil && atStop != nil {
			err = atStop(dst)
		}
		if err != nil {
			return nil, fmt.Errorf("hop %d capture: %w", hop, err)
		}
		// Cache counters are the one legitimate cold/cached report
		// difference; zero them so the identity check covers the rest.
		flat := *rep
		flat.CacheHits, flat.CacheMisses = 0, 0
		cap.report = fmt.Sprintf("%+v", flat)
		caps = append(caps, cap)
		cur = dst
	}
	return caps, nil
}

// capture snapshots checksums and at-rest re-encoded UISR blobs of
// every VM on h.
func capture(h hv.Hypervisor) (hopCapture, error) {
	cap := hopCapture{kind: h.Kind(), sums: map[string]uint64{}, blobs: map[string][]byte{}}
	vms := h.VMs()
	sort.Slice(vms, func(i, j int) bool { return vms[i].Config.Name < vms[j].Config.Name })
	for _, vm := range vms {
		sum, err := vm.Space.ChecksumAll()
		if err != nil {
			return cap, err
		}
		cap.sums[vm.Config.Name] = sum
		if err := h.Pause(vm.ID); err != nil {
			return cap, err
		}
		st, err := h.SaveUISR(vm.ID)
		if err != nil {
			return cap, err
		}
		if err := h.Resume(vm.ID); err != nil {
			return cap, err
		}
		st.MemMap = uisr.MemMap{}
		blob, err := uisr.Encode(st)
		if err != nil {
			return cap, err
		}
		cap.blobs[vm.Config.Name] = blob
	}
	return cap, nil
}

// checkRoundTrip runs the scenario cold and cached and verifies every
// differential equivalence claim. A non-nil error is a real divergence:
// the message carries section-level blob diagnostics, and the fuzz input
// that produced p is its repro. atStop, if not nil, is an extra check
// run on the hypervisor of every stop.
func checkRoundTrip(p roundTripParams, atStop func(hv.Hypervisor) error) error {
	cold, err := runRoundTrip(p, nil, atStop)
	if err != nil {
		return fmt.Errorf("cold run: %w", err)
	}
	cache := tpcache.New()
	warm, err := runRoundTrip(p, cache, atStop)
	if err != nil {
		return fmt.Errorf("cached run: %w", err)
	}

	// The cached run must actually exercise the warm path — blob images
	// installed and decoded by page identity among it — or the
	// cold/cached equivalence below proves nothing.
	if st := cache.Stats(); st.Hits == 0 || st.Misses == 0 || st.BlobInstalls == 0 || st.BlobDecodeHits == 0 {
		return fmt.Errorf("cache never reached steady state over %d hops: %v", len(warm), st)
	}

	for _, caps := range [][]hopCapture{cold, warm} {
		// Guest memory must survive every hop bit-exact.
		for hop, cap := range caps {
			if !reflect.DeepEqual(cap.sums, caps[0].sums) {
				return fmt.Errorf("guest checksums diverged at hop %d: %v vs %v", hop, cap.sums, caps[0].sums)
			}
		}
		// Fixed point: once a VM has completed a full tour, the same stop
		// of every later tour must re-encode to the same bytes. (The
		// first tour's blobs may legitimately differ: translations out of
		// the pristine boot state apply the documented one-way §4.2.1
		// transforms.)
		for hop := 2*len(roundTripTour) - 1; hop < len(caps); hop++ {
			prev := hop - len(roundTripTour)
			if err := diffBlobs(caps[prev].blobs, caps[hop].blobs); err != nil {
				return fmt.Errorf("re-encoded UISR not at fixed point (%v hop %d vs %d): %w",
					caps[hop].kind, prev, hop, err)
			}
		}
	}

	// Cold vs cached: byte-identical state and reports at every hop.
	for hop := range cold {
		if !reflect.DeepEqual(cold[hop].sums, warm[hop].sums) {
			return fmt.Errorf("cached guest checksums differ from cold at hop %d", hop)
		}
		if err := diffBlobs(cold[hop].blobs, warm[hop].blobs); err != nil {
			return fmt.Errorf("cached UISR blobs differ from cold at hop %d: %w", hop, err)
		}
		if cold[hop].report != warm[hop].report {
			return fmt.Errorf("cached report differs from cold at hop %d:\n%s\nvs\n%s",
				hop, cold[hop].report, warm[hop].report)
		}
	}
	return nil
}

// diffBlobs compares two per-VM blob maps, attributing the first
// divergence to a VM and a UISR section.
func diffBlobs(a, b map[string][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("vm count differs: %d vs %d", len(a), len(b))
	}
	names := make([]string, 0, len(a))
	for name := range a {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, ok := b[name]; !ok {
			return fmt.Errorf("vm %s missing", name)
		}
		if d := uisr.DiffBlobs(a[name], b[name]); d != "" {
			return fmt.Errorf("vm %s: %s", name, d)
		}
	}
	return nil
}

// roundTripSeeds is the checked-in corpus of FuzzRoundTrip.
func roundTripSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	params := []roundTripParams{
		{Seed: 0x20210427, VMs: 1, VCPUs: 1, MemBytes: 16 << 20, Pages: 32},
		{Seed: 0xfeedface1, VMs: 3, VCPUs: 2, MemBytes: 32 << 20, Pages: 100, HugePages: true},
		{Seed: 0xabad1dea, VMs: 2, VCPUs: 4, MemBytes: 64 << 20, Pages: 7, HugePages: true, M2: true},
	}
	out := make([][]byte, len(params))
	for i, p := range params {
		out[i] = p.encodeRoundTrip()
	}
	return out
}

// TestFuzzSeedCorpus keeps the checked-in testdata/fuzz corpus in
// lockstep with the f.Add list above (regenerate: make fuzz-seeds).
func TestFuzzSeedCorpus(t *testing.T) {
	fuzzseed.Check(t, "FuzzRoundTrip", roundTripSeeds(t)...)
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
		st.VMID, st.MemMap = as, uisr.MemMap{}
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
		p := decodeRoundTrip(data)
		if err := checkRoundTrip(p, selfRestore); err != nil {
			t.Fatalf("differential round-trip divergence for %+v: %v", p, err)
		}
	})
}

// TestRoundTripDifferential is the plain-test slice of FuzzRoundTrip:
// every checked-in seed scenario must hold all equivalence claims.
func TestRoundTripDifferential(t *testing.T) {
	for _, s := range roundTripSeeds(t) {
		p := decodeRoundTrip(s)
		if err := checkRoundTrip(p, selfRestore); err != nil {
			t.Fatalf("%+v: %v", p, err)
		}
	}
}

// TestRoundTripParamCodec pins the byte layout both ways.
func TestRoundTripParamCodec(t *testing.T) {
	for _, s := range roundTripSeeds(t) {
		p := decodeRoundTrip(s)
		if got := decodeRoundTrip(p.encodeRoundTrip()); !reflect.DeepEqual(got, p) {
			t.Fatalf("param codec not a round-trip: %+v vs %+v", got, p)
		}
	}
	p := decodeRoundTrip(nil)
	if p.VMs < 1 || p.VCPUs < 1 || p.MemBytes == 0 || p.Pages < 1 || p.Seed == 0 {
		t.Fatalf("zero-input params invalid: %+v", p)
	}
}
