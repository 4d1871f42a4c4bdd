package core

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simtime"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden files")

// tracedInPlace runs the canonical Fig. 7 single-VM transplant (M1,
// Xen→KVM, 1 vCPU / 1 GiB) with a recorder attached and returns the
// recorder plus the engine report.
func tracedInPlace(t *testing.T) (*obs.Recorder, *InPlaceReport) {
	t.Helper()
	clock := simtime.NewClock()
	m := hw.NewMachine(clock, hw.M1())
	engine := NewEngine(clock, m)
	rec := obs.NewRecorder(clock)
	engine.Obs = rec
	src, err := engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreateVM(hv.Config{
		Name: "golden-vm", VCPUs: 1, MemBytes: 1 << 30,
		HugePages: true, Seed: 1000, InPlaceCompatible: true,
	}); err != nil {
		t.Fatal(err)
	}
	_, rep, err := engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return rec, rep
}

// TestChromeTraceGolden pins the exporter's byte-exact output for the
// canonical single-VM run. Regenerate with:
//
//	go test ./internal/core/ -run TestChromeTraceGolden -update-golden
func TestChromeTraceGolden(t *testing.T) {
	rec, _ := tracedInPlace(t)
	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "inplace_trace.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("Chrome trace diverged from golden file %s.\ngot %d bytes, want %d.\n"+
			"If the change is intentional, rerun with -update-golden.",
			golden, buf.Len(), len(want))
	}
}

// TestTraceDeterministicAcrossWorkers: the full deterministic export
// surface (Chrome trace, JSONL spans, metrics JSON) must be
// byte-identical at -workers=1 and -workers=8.
func TestTraceDeterministicAcrossWorkers(t *testing.T) {
	defer par.SetWorkers(0)
	type snapshot struct{ chrome, jsonl, mets []byte }
	grab := func(workers int) snapshot {
		par.SetWorkers(workers)
		rec, _ := tracedInPlace(t)
		var c, j, m bytes.Buffer
		if err := rec.WriteChromeTrace(&c); err != nil {
			t.Fatal(err)
		}
		if err := rec.WriteJSONL(&j); err != nil {
			t.Fatal(err)
		}
		if err := rec.Metrics().WriteMetricsJSON(&m, false); err != nil {
			t.Fatal(err)
		}
		return snapshot{c.Bytes(), j.Bytes(), m.Bytes()}
	}
	one := grab(1)
	eight := grab(8)
	if !bytes.Equal(one.chrome, eight.chrome) {
		t.Error("Chrome trace differs between workers=1 and workers=8")
	}
	if !bytes.Equal(one.jsonl, eight.jsonl) {
		t.Error("JSONL span export differs between workers=1 and workers=8")
	}
	if !bytes.Equal(one.mets, eight.mets) {
		t.Error("metrics export differs between workers=1 and workers=8")
	}
}

// TestSpanTreeShape: the recorded tree must mirror the Fig. 3 workflow —
// every phase nested under the inplace-tp root, in order.
func TestSpanTreeShape(t *testing.T) {
	rec, rep := tracedInPlace(t)
	roots := rec.Roots()
	if len(roots) != 1 {
		t.Fatalf("want 1 root span, got %d", len(roots))
	}
	root := roots[0]
	if root.Name != "inplace-tp" || !root.Ended() {
		t.Fatalf("root = %q ended=%v", root.Name, root.Ended())
	}
	want := Steps()
	kids := root.Children()
	if len(kids) != len(want) {
		names := make([]string, len(kids))
		for i, k := range kids {
			names[i] = k.Name
		}
		t.Fatalf("want %d phases, got %v", len(want), names)
	}
	var prev *obs.Span
	for i, k := range kids {
		if k.Name != want[i] {
			t.Fatalf("phase %d = %q, want %q", i, k.Name, want[i])
		}
		if !k.Ended() {
			t.Fatalf("phase %q left open", k.Name)
		}
		if prev != nil && k.StartTime() < prev.StartTime() {
			t.Fatalf("phase %q starts before %q", k.Name, prev.Name)
		}
		prev = k
	}
	if root.Duration() != rep.Total {
		t.Fatalf("root duration %v != report total %v", root.Duration(), rep.Total)
	}
}

// TestMetricsMatchReport: the registry's counters must agree with the
// engine's own report — the cross-check that instruments are wired to
// the real data paths, not estimates.
func TestMetricsMatchReport(t *testing.T) {
	rec, rep := tracedInPlace(t)
	m := rec.Metrics()
	checks := []struct {
		name string
		unit string
		want int64
	}{
		{"tp.uisr_bytes", "bytes", int64(rep.UISRBytes)},
		{"tp.pram_metadata_bytes", "bytes", int64(rep.PRAMMetadataBytes)},
		{"tp.wiped_frames", "frames", int64(rep.WipedFrames)},
		{"tp.vms_transplanted", "vms", 1},
	}
	for _, c := range checks {
		if got := m.Counter(c.name, c.unit).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
	if pages := m.Counter("pram.pages_preserved", "pages").Value(); pages <= 0 {
		t.Errorf("pram.pages_preserved = %d", pages)
	}
	if n := m.Histogram("tp.translate_virtual_s", "s", nil).Count(); n != 1 {
		t.Errorf("translate histogram count = %d", n)
	}
}

// TestNoRecorderIsFree: a nil engine.Obs must not change the simulation
// outcome at all.
func TestNoRecorderMatchesRecorded(t *testing.T) {
	_, traced := tracedInPlace(t)
	clock := simtime.NewClock()
	m := hw.NewMachine(clock, hw.M1())
	engine := NewEngine(clock, m)
	src, err := engine.BootHypervisor(hv.KindXen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.CreateVM(hv.Config{
		Name: "golden-vm", VCPUs: 1, MemBytes: 1 << 30,
		HugePages: true, Seed: 1000, InPlaceCompatible: true,
	}); err != nil {
		t.Fatal(err)
	}
	_, plain, err := engine.InPlace(src, hv.KindKVM, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if plain.Total != traced.Total || plain.Downtime != traced.Downtime ||
		plain.UISRBytes != traced.UISRBytes {
		t.Fatalf("instrumentation changed the run: %+v vs %+v", plain, traced)
	}
}
