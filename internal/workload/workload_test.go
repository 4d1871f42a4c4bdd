package workload

import (
	"testing"
	"time"

	"hypertp/internal/guest"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

func TestProfiles(t *testing.T) {
	r := Redis()
	// Fig. 11: KVM serves ~37% better than Xen for Redis.
	gain := (r.QPSKVM - r.QPSXen) / r.QPSXen
	if gain < 0.33 || gain > 0.41 {
		t.Fatalf("Redis KVM gain = %.2f, want ~0.37", gain)
	}
	m := MySQL()
	// Fig. 12: −68% QPS, +252% latency during migration.
	if m.MigQPSFactor < 0.28 || m.MigQPSFactor > 0.36 {
		t.Fatalf("MySQL mig QPS factor = %v", m.MigQPSFactor)
	}
	if m.MigLatFactor < 3.3 || m.MigLatFactor > 3.7 {
		t.Fatalf("MySQL mig latency factor = %v", m.MigLatFactor)
	}
	if VideoStream().Name != "video-stream" {
		t.Fatal("video profile wrong")
	}
}

func TestScheduleValidate(t *testing.T) {
	good := Schedule{Kind: RunXen, Total: time.Minute, Step: time.Second}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Schedule{
		{Kind: RunXen, Total: 0, Step: time.Second},
		{Kind: RunXen, Total: time.Minute, Step: 0},
		{Kind: InPlaceTP, Total: time.Minute, Step: time.Second, GapStart: 10 * time.Second, GapEnd: 5 * time.Second},
		{Kind: MigrationTP, Total: time.Minute, Step: time.Second, DegradeStart: 10 * time.Second, DegradeEnd: 5 * time.Second},
		{Kind: 0, Total: time.Minute, Step: time.Second},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("bad schedule %d accepted", i)
		}
	}
}

func TestInPlaceTimelineShape(t *testing.T) {
	p := Redis()
	s := Schedule{
		Kind: InPlaceTP, Total: 200 * time.Second, Step: time.Second,
		GapStart: 50 * time.Second, GapEnd: 59 * time.Second,
	}
	qps, lat, err := Timelines(p, s, 1)
	if err != nil {
		t.Fatal(err)
	}
	if lat == nil {
		t.Fatal("no latency series")
	}
	// Before the gap: Xen level.
	before := obs.Mean(values(qps.Window(0, 50*time.Second)))
	if before < p.QPSXen*0.9 || before > p.QPSXen*1.1 {
		t.Fatalf("pre-gap QPS = %v, want ~%v", before, p.QPSXen)
	}
	// Inside the gap: zero.
	for _, pt := range qps.Window(50*time.Second, 59*time.Second) {
		if pt.V != 0 {
			t.Fatalf("QPS %v inside the gap", pt.V)
		}
	}
	// After: KVM level — the +37% improvement of Fig. 11.
	after := obs.Mean(values(qps.Window(60*time.Second, 200*time.Second)))
	if after < p.QPSKVM*0.9 || after > p.QPSKVM*1.1 {
		t.Fatalf("post-gap QPS = %v, want ~%v", after, p.QPSKVM)
	}
	if g := GapSeconds(qps, s.Step); g < 8 || g > 10 {
		t.Fatalf("observed gap = %vs, want ~9s", g)
	}
}

func TestMigrationTimelineShape(t *testing.T) {
	p := MySQL()
	s := Schedule{
		Kind: MigrationTP, Total: 180 * time.Second, Step: time.Second,
		DegradeStart: 46 * time.Second, DegradeEnd: 122 * time.Second,
	}
	qps, lat, err := Timelines(p, s, 2)
	if err != nil {
		t.Fatal(err)
	}
	during := obs.Mean(values(qps.Window(50*time.Second, 120*time.Second)))
	if during > p.QPSXen*0.40 {
		t.Fatalf("QPS during migration = %v, want ≤ 40%% of %v", during, p.QPSXen)
	}
	latDuring := obs.Mean(values(lat.Window(50*time.Second, 120*time.Second)))
	if latDuring < p.LatencyXenMS*3 {
		t.Fatalf("latency during migration = %v ms, want ≥ 3x of %v", latDuring, p.LatencyXenMS)
	}
	// No visible downtime gap: MigrationTP downtime is ~5 ms.
	if g := GapSeconds(qps, s.Step); g != 0 {
		t.Fatalf("observed gap = %vs, want 0", g)
	}
	// Recovery after migration.
	after := obs.Mean(values(qps.Window(125*time.Second, 180*time.Second)))
	if after < p.QPSKVM*0.9 {
		t.Fatalf("post-migration QPS = %v", after)
	}
}

func TestBaselineTimelines(t *testing.T) {
	p := Redis()
	for _, kind := range []ScheduleKind{RunXen, RunKVM} {
		s := Schedule{Kind: kind, Total: 30 * time.Second, Step: time.Second}
		qps, _, err := Timelines(p, s, 3)
		if err != nil {
			t.Fatal(err)
		}
		want := p.QPSXen
		if kind == RunKVM {
			want = p.QPSKVM
		}
		got := obs.Mean(qps.Values())
		if got < want*0.9 || got > want*1.1 {
			t.Fatalf("kind %d mean = %v, want ~%v", kind, got, want)
		}
	}
}

func TestTimelinesDeterministic(t *testing.T) {
	s := Schedule{Kind: RunXen, Total: 10 * time.Second, Step: time.Second}
	a, _, _ := Timelines(Redis(), s, 9)
	b, _, _ := Timelines(Redis(), s, 9)
	for i := range a.Points {
		if a.Points[i] != b.Points[i] {
			t.Fatal("same seed, different timeline")
		}
	}
}

func values(pts []obs.Sample) []float64 {
	out := make([]float64, len(pts))
	for i, p := range pts {
		out[i] = p.V
	}
	return out
}

// Table 5 anchors: 23 benchmarks; degradation small, max ≈ 4-5%.
func TestSPECSuite(t *testing.T) {
	if len(SPECBenchmarks()) != 23 {
		t.Fatalf("SPEC suite has %d benchmarks, want 23", len(SPECBenchmarks()))
	}
	inplace, maxIn := RunSPECSuite(ModeInPlace, 2400*time.Millisecond, 7)
	migr, maxMig := RunSPECSuite(ModeMigration, 5*time.Millisecond, 7)
	if len(inplace) != 23 || len(migr) != 23 {
		t.Fatal("suite result count wrong")
	}
	if maxIn < 1.0 || maxIn > 5.5 {
		t.Fatalf("InPlaceTP max degradation = %.2f%%, want ~4.2%%", maxIn)
	}
	if maxMig < 1.0 || maxMig > 5.5 {
		t.Fatalf("MigrationTP max degradation = %.2f%%, want ~4.8%%", maxMig)
	}
	for _, r := range inplace {
		if r.DegPct < -0.5 {
			t.Fatalf("%s: negative degradation %v", r.Name, r.DegPct)
		}
		if r.TPSec < r.XenSec/2+r.KVMSec/2 {
			t.Fatalf("%s: TP time below physical floor", r.Name)
		}
	}
}

func TestSPECDeterministic(t *testing.T) {
	a := RunSPEC(SPECBenchmarks()[0], ModeInPlace, 2*time.Second, 5)
	b := RunSPEC(SPECBenchmarks()[0], ModeInPlace, 2*time.Second, 5)
	if a != b {
		t.Fatal("same seed, different SPEC result")
	}
}

// Table 6 anchors: default ~2.044 s; InPlaceTP longest ~4.97 s;
// MigrationTP longest ~2.24 s; Xen→Xen migration longest ~2.67 s.
func TestDarknetTable6(t *testing.T) {
	def := RunDarknet(DarknetDefault, 0, 11)
	if m := def.Mean(); m < 2.0 || m > 2.1 {
		t.Fatalf("default mean = %v, want ~2.044", m)
	}
	inplace := RunDarknet(DarknetInPlaceTP, 2900*time.Millisecond, 11)
	if l := inplace.Longest(); l < 4.5 || l > 5.4 {
		t.Fatalf("InPlaceTP longest iteration = %v, want ~4.97", l)
	}
	mig := RunDarknet(DarknetMigrationTP, 0, 11)
	if l := mig.Longest(); l < 2.15 || l > 2.45 {
		t.Fatalf("MigrationTP longest iteration = %v, want ~2.24", l)
	}
	xen := RunDarknet(DarknetXenMigration, 0, 11)
	if l := xen.Longest(); l < 2.5 || l > 2.9 {
		t.Fatalf("Xen migration longest iteration = %v, want ~2.67", l)
	}
	// Ordering: default < MigrationTP < Xen migration < InPlaceTP peaks.
	if !(def.Longest() < mig.Longest() && mig.Longest() < xen.Longest() && xen.Longest() < inplace.Longest()) {
		t.Fatal("Table 6 ordering violated")
	}
	if len(def.Iterations) != DarknetIterations {
		t.Fatal("iteration count wrong")
	}
}

// driverMem is a minimal guest.Memory for driver tests.
type driverMem struct {
	pages map[hw.GFN][]byte
	n     uint64
}

func newDriverMem(n uint64) *driverMem {
	return &driverMem{pages: make(map[hw.GFN][]byte), n: n}
}

func (m *driverMem) WritePage(gfn hw.GFN, off int, data []byte) error {
	p, ok := m.pages[gfn]
	if !ok {
		p = make([]byte, hw.PageSize4K)
		m.pages[gfn] = p
	}
	copy(p[off:], data)
	return nil
}

// WriteRecords writes the records one WritePage each.
func (m *driverMem) WriteRecords(lo, hi hw.GFN, size int, fill func(hw.GFN, []byte) int) (int, error) {
	rec := make([]byte, size)
	for gfn := lo; gfn < hi; gfn++ {
		if err := m.WritePage(gfn, fill(gfn, rec), rec); err != nil {
			return int(gfn - lo), err
		}
	}
	return int(hi - lo), nil
}

func (m *driverMem) ReadPage(gfn hw.GFN, off int, dst []byte) error {
	clear(dst)
	if p, ok := m.pages[gfn]; ok {
		copy(dst, p[off:])
	}
	return nil
}

func (m *driverMem) NumPages() uint64 { return m.n }

func TestDriverWritesAtRate(t *testing.T) {
	clock := simtime.NewClock()
	g := guest.New("g", newDriverMem(1024))
	d, err := StartDriver(clock, g, 500, 0, 512, 1)
	if err != nil {
		t.Fatal(err)
	}
	clock.RunUntil(2 * time.Second)
	d.Stop()
	// ~500 pages/s over 2s = ~1000 writes.
	if d.PagesWritten() < 900 || d.PagesWritten() > 1100 {
		t.Fatalf("pages written = %d, want ~1000", d.PagesWritten())
	}
	if err := g.Verify(); err != nil {
		t.Fatal(err)
	}
	if d.Running() {
		t.Fatal("driver still running after Stop")
	}
	// Stopped driver writes nothing more.
	before := d.PagesWritten()
	clock.RunUntil(4 * time.Second)
	if d.PagesWritten() != before {
		t.Fatal("stopped driver kept writing")
	}
}

func TestDriverValidation(t *testing.T) {
	clock := simtime.NewClock()
	g := guest.New("g", newDriverMem(64))
	if _, err := StartDriver(clock, g, 0, 0, 16, 1); err == nil {
		t.Fatal("zero rate accepted")
	}
	if _, err := StartDriver(clock, g, 10, 0, 0, 1); err == nil {
		t.Fatal("zero span accepted")
	}
	if _, err := StartDriver(clock, g, 10, 60, 10, 1); err == nil {
		t.Fatal("window past end of memory accepted")
	}
}
