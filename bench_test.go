// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation. Each iteration regenerates the full experiment from
// scratch (fresh machines, fresh VMs, real transplants on the virtual
// clock), so the benchmarks double as end-to-end exercises and report the
// wall-clock cost of reproducing each result.
//
//	go test -bench=. -benchmem
package hypertp_test

import (
	"runtime"
	"testing"
	"time"

	"hypertp"
	"hypertp/internal/experiments"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/pram"
	"hypertp/internal/simtime"
	"hypertp/internal/uisr"
)

func BenchmarkTable1VulnStudy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		db, tab := experiments.Table1()
		if db == nil || len(tab.Rows) != 8 {
			b.Fatal("table 1 wrong")
		}
		stats, _ := experiments.Section22Windows()
		if stats.Tracked != 24 {
			b.Fatal("window stats wrong")
		}
	}
}

func BenchmarkTable2StateMapping(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(experiments.Table2().Rows) != 7 {
			b.Fatal("table 2 wrong")
		}
	}
}

func BenchmarkFigure6Breakdown(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Figure6()
		if err != nil {
			b.Fatal(err)
		}
		if d := rows[0].Report.Downtime; d < time.Second || d > 2*time.Second {
			b.Fatalf("M1 downtime %v", d)
		}
	}
}

func BenchmarkFigure7Scalability(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweeps, _, err := experiments.Figure7()
		if err != nil {
			b.Fatal(err)
		}
		if len(sweeps) != 6 {
			b.Fatal("sweep count")
		}
	}
}

func BenchmarkFigure8Downtime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweeps, _, err := experiments.Figure8()
		if err != nil {
			b.Fatal(err)
		}
		if len(sweeps) != 3 {
			b.Fatal("sweep count")
		}
	}
}

func BenchmarkFigure9MigrationTime(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweeps, _, err := experiments.Figure9()
		if err != nil {
			b.Fatal(err)
		}
		if len(sweeps) != 3 {
			b.Fatal("sweep count")
		}
	}
}

// warmGrid is BenchmarkFigure10Warm's primed testbed grid, built once
// and shared across the harness's b.N ramp-up trials.
var warmGrid *experiments.Figure10WarmGrid

func BenchmarkFigure10KVMToXen(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sweeps, _, err := experiments.Figure10()
		if err != nil {
			b.Fatal(err)
		}
		if len(sweeps) != 6 {
			b.Fatal("sweep count")
		}
	}
}

// BenchmarkFigure10Warm is the repeat-transplant twin of
// BenchmarkFigure10KVMToXen: the same 36-point KVM<->Xen grid, but the
// testbeds persist and every transplant cache is primed before the timer
// starts, so each iteration times one fully warm grid pass (translation
// lookups all hit, PRAM replayed incrementally). The ratio against the
// cold benchmark is the repeat-transplant speedup the warm pool buys;
// the nightly benchdiff job fails if it drops below 3x.
//
// The primed grid is cached across b.N trials: rebuilding its 36
// testbeds per trial would leave gigabytes of dead heap behind and tax
// the timed loop with the GC debt of setup instead of the cost of the
// warm hops.
func BenchmarkFigure10Warm(b *testing.B) {
	if warmGrid == nil {
		var err error
		if warmGrid, err = experiments.NewFigure10WarmGrid(); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
	}
	grid := warmGrid
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits, err := grid.Hop()
		if err != nil {
			b.Fatal(err)
		}
		if hits == 0 {
			b.Fatal("warm grid pass reported no cache hits")
		}
	}
}

func BenchmarkTable4Migration(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, _, err := experiments.Table4()
		if err != nil {
			b.Fatal(err)
		}
		if res.TPDowntime >= res.XenDowntime {
			b.Fatal("downtime ordering wrong")
		}
	}
}

func BenchmarkFigure11Redis(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl, _, err := experiments.Figure11()
		if err != nil {
			b.Fatal(err)
		}
		if tl.ObservedGapSec < 7 || tl.ObservedGapSec > 12 {
			b.Fatalf("gap %.1f", tl.ObservedGapSec)
		}
	}
}

func BenchmarkFigure12MySQL(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tl, _, err := experiments.Figure12()
		if err != nil {
			b.Fatal(err)
		}
		if tl.MigQPSDropFrac < 0.5 {
			b.Fatalf("drop %.2f", tl.MigQPSDropFrac)
		}
	}
}

func BenchmarkTable5SPEC(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		inplace, migr, _, err := experiments.Table5()
		if err != nil {
			b.Fatal(err)
		}
		if len(inplace) != 23 || len(migr) != 23 {
			b.Fatal("row count")
		}
	}
}

func BenchmarkTable6Darknet(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		runs, _, err := experiments.Table6()
		if err != nil {
			b.Fatal(err)
		}
		if runs["inplacetp"].Longest() < 4 {
			b.Fatal("inplace peak wrong")
		}
	}
}

func BenchmarkFigure13Cluster(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		points, _, err := experiments.Figure13()
		if err != nil {
			b.Fatal(err)
		}
		if points[0].Migrations <= 100 {
			b.Fatal("no cascade")
		}
	}
}

func BenchmarkFigure14Overhead(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fig, _, err := experiments.Figure14()
		if err != nil {
			b.Fatal(err)
		}
		if fig.VMs[len(fig.VMs)-1].PRAMBytes != 148<<10 {
			b.Fatal("PRAM anchor wrong")
		}
	}
}

func BenchmarkAblationOptimizations(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, _, err := experiments.Ablation()
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 6 {
			b.Fatal("row count")
		}
	}
}

// BenchmarkInPlaceTransplant measures the public-API single-transplant
// path: the cost of one full InPlaceTP including machine setup.
func BenchmarkInPlaceTransplant(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := hypertp.NewSimulation()
		host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := host.CreateVM(hypertp.VMConfig{
			Name: "bench", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
		}); err != nil {
			b.Fatal(err)
		}
		if _, err := host.TransplantWith(hypertp.KindKVM, hypertp.Default()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMigrationTP measures the public-API migration path.
func BenchmarkMigrationTP(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := hypertp.NewSimulation()
		src, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
		if err != nil {
			b.Fatal(err)
		}
		dst, err := sim.NewHost(hypertp.M1(), hypertp.KindKVM)
		if err != nil {
			b.Fatal(err)
		}
		link := sim.NewLink("pair", hypertp.Gbps(1), 100*time.Microsecond)
		vm, err := src.CreateVM(hypertp.VMConfig{
			Name: "bench", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := src.MigrateVM(vm, link, dst); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVENOMEscape measures the three-pool escape scenario: Xen →
// microhypervisor and back, with guest verification.
func BenchmarkVENOMEscape(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim := hypertp.NewSimulation()
		host, err := sim.NewHost(hypertp.M1(), hypertp.KindXen)
		if err != nil {
			b.Fatal(err)
		}
		vm, err := host.CreateVM(hypertp.VMConfig{
			Name: "bench", VCPUs: 1, MemBytes: 1 << 30, HugePages: true, Seed: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		vm.Guest.WriteWorkingSet(0, 64)
		if _, err := host.TransplantWith(hypertp.KindNOVA, hypertp.Default()); err != nil {
			b.Fatal(err)
		}
		if _, err := host.TransplantWith(hypertp.KindXen, hypertp.Default()); err != nil {
			b.Fatal(err)
		}
		for _, vm := range host.VMs() {
			if err := vm.Guest.Verify(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- codec micro-benchmarks -------------------------------------------------
//
// These isolate the serialization hot paths the transplant engine runs per
// VM: UISR encode/decode and PRAM build (serialize) / parse. Fixtures match
// the paper's reference VM shape (4 vCPUs, 8 GiB huge-page backed).

func benchState(b *testing.B) *uisr.VMState {
	b.Helper()
	return uisr.SyntheticVM("bench", 1, 4, 8<<30, 42)
}

func BenchmarkUISREncode(b *testing.B) {
	st := benchState(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uisr.Encode(st); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkUISRDecode(b *testing.B) {
	blob, err := uisr.Encode(benchState(b))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uisr.Decode(blob); err != nil {
			b.Fatal(err)
		}
	}
}

// benchPRAMFiles allocates an 8 GiB huge-page guest on a fresh physical
// memory and returns the memory plus the PRAM file records for it.
func benchPRAMFiles(b *testing.B) (*hw.PhysMem, []pram.File) {
	b.Helper()
	mem := hw.NewPhysMem(16 << 30)
	space, err := hv.AllocAddressSpace(mem, 1, 8<<30, true)
	if err != nil {
		b.Fatal(err)
	}
	return mem, []pram.File{{Name: "bench", VMID: 1, Extents: space.Extents()}}
}

func BenchmarkPRAMSerialize(b *testing.B) {
	mem, files := benchPRAMFiles(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := pram.Build(mem, files, pram.BuildOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Release(mem); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPRAMParse(b *testing.B) {
	mem, files := benchPRAMFiles(b)
	s, err := pram.Build(mem, files, pram.BuildOptions{})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pram.Parse(mem, s.Pointer); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure7Observability measures the instrumentation tax on the
// Figure 7 end-to-end run: "off" is the nil-recorder fast path (the
// default), "on" attaches a full recorder (spans + metrics) to every
// testbed the sweep builds. The PR gate is off-vs-on overhead <= 5%.
func BenchmarkFigure7Observability(b *testing.B) {
	run := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sweeps, _, err := experiments.Figure7()
			if err != nil {
				b.Fatal(err)
			}
			if len(sweeps) != 6 {
				b.Fatal("sweep count")
			}
		}
	}
	b.Run("off", run)
	b.Run("on", func(b *testing.B) {
		experiments.SetObsFactory(func(clock *simtime.Clock) *obs.Recorder {
			return obs.NewRecorder(clock)
		})
		defer experiments.SetObsFactory(nil)
		run(b)
	})
}
