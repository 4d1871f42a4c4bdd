package slo

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"hypertp/internal/obs"
)

// The tracker's whole input is span records. These build the roots the
// orchestrator records: a response root disclosing cve at 0 and listing
// its exposed hosts, with one upgrade child per remediated host; a crash
// root; and the swap and migration spans that carry downtime.

func span(depth int, name string, start, end time.Duration, attrs ...obs.Attr) obs.SpanRecord {
	return obs.SpanRecord{Depth: depth, Name: name, Start: start, End: end, Attrs: attrs}
}

func response(cve string, window time.Duration, exposed string, upgrades ...obs.SpanRecord) []obs.SpanRecord {
	root := span(0, "nova.respond-cve", 0, 0, obs.A("cve", cve), obs.A("window", window), obs.A("exposed", exposed))
	return append([]obs.SpanRecord{root}, upgrades...)
}

func upgrade(host string, at time.Duration) obs.SpanRecord {
	return span(1, "nova.host-live-upgrade", 0, at, obs.A("node", host))
}

func hostDown(host string, at time.Duration) []obs.SpanRecord {
	return []obs.SpanRecord{span(0, "nova.host-down", at, at, obs.A("node", host))}
}

func recovered(host string, at time.Duration) []obs.SpanRecord {
	return []obs.SpanRecord{span(0, "nova.emergency-recover", 0, at, obs.A("node", host))}
}

func migrated(vm string, d time.Duration) []obs.SpanRecord {
	return []obs.SpanRecord{span(0, "nova.live-migrate", 0, d, obs.A("vm", vm), obs.A("downtime", d))}
}

func report(t *testing.T, tr *Tracker, now time.Duration) WindowReport {
	t.Helper()
	reports := tr.Report(now)
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	return reports[0]
}

func TestTrackerWindowReport(t *testing.T) {
	tr := NewTracker()
	tr.Consume(response("CVE-A", 10*time.Second, "host-00,host-01,host-02",
		upgrade("host-00", 2*time.Second), upgrade("host-01", 4*time.Second), upgrade("host-02", 8*time.Second)))

	r := report(t, tr, 8*time.Second)
	if r.Exposed != 3 || r.Remediated != 3 || r.Open != 0 {
		t.Fatalf("counts: %+v", r)
	}
	if r.P50 != 4*time.Second || r.Max != 8*time.Second {
		t.Fatalf("latency digest: p50=%v max=%v", r.P50, r.Max)
	}
	if r.WorstHost != "host-02" {
		t.Fatalf("worst host = %q", r.WorstHost)
	}
	if !r.HasTarget || r.Verdict.Target.Quantile != DefaultQuantile || !r.Verdict.Pass || r.Verdict.Violations != 0 {
		t.Fatalf("verdict: %+v", r.Verdict)
	}
	if !tr.Pass(8 * time.Second) {
		t.Fatal("tracker should pass")
	}
}

func TestTrackerOpenWindowViolation(t *testing.T) {
	tr := NewTracker()
	tr.Consume(response("CVE-B", 5*time.Second, "host-00"))
	// Within budget and still open: not yet a violation.
	if v := report(t, tr, 3*time.Second).Verdict; !v.Pass {
		t.Fatalf("open window inside budget failed: %+v", v)
	}
	// Budget spent, still open: violation.
	v := report(t, tr, 6*time.Second).Verdict
	if v.Pass || v.Violations != 1 {
		t.Fatalf("overdue open window passed: %+v", v)
	}
	if tr.Pass(6 * time.Second) {
		t.Fatal("tracker should fail with overdue open window")
	}
	// A later response remediates the host late: it stays a violation
	// forever, and the repeated exposure is no new window.
	tr.Consume(response("CVE-B", 5*time.Second, "host-00", upgrade("host-00", 7*time.Second)))
	r := report(t, tr, 100*time.Second)
	if r.Exposed != 1 || r.Remediated != 1 || r.Disclosed != 0 {
		t.Fatalf("re-response: %+v", r)
	}
	if r.Verdict.Pass {
		t.Fatalf("late close forgot the violation: %+v", r.Verdict)
	}
}

func TestBurnRate(t *testing.T) {
	// 1 of 100 hosts beyond the window at q=0.99: the error budget is
	// spent (burn 1.0 up to rounding), which still passes; 1 of 40 burns
	// 2.5 and fails.
	for _, tc := range []struct {
		hosts    int
		min, max float64
		pass     bool
	}{{100, 0.999, 1.0, true}, {40, 2.49, 2.51, false}} {
		tr := NewTracker()
		var hosts []string
		var ups []obs.SpanRecord
		for i := 0; i < tc.hosts; i++ {
			h := string(rune('A'+i/26)) + string(rune('a'+i%26))
			hosts = append(hosts, h)
			at := time.Second
			if i == 0 {
				at = 20 * time.Second
			}
			ups = append(ups, upgrade(h, at))
		}
		tr.Consume(response("CVE-C", 10*time.Second, strings.Join(hosts, ","), ups...))
		v := report(t, tr, 20*time.Second).Verdict
		if v.Violations != 1 || v.BurnRate < tc.min || v.BurnRate > tc.max || v.Pass != tc.pass {
			t.Fatalf("%d hosts: %+v", tc.hosts, v)
		}
	}
	// The same arithmetic on a declared quantile, through the MTTR
	// budget: 1 of 4 outages late is burn exactly 1.0 at q=0.75 (pass),
	// 2.5 at q=0.9 (fail), and infinite at q=1.
	tr := NewTracker()
	for i, at := range []time.Duration{time.Second, 2 * time.Second, 3 * time.Second, 20 * time.Second} {
		host := string(rune('a' + i))
		tr.Consume(hostDown(host, 0))
		tr.Consume(recovered(host, at))
	}
	for _, tc := range []struct {
		q    float64
		burn float64
		pass bool
	}{{0.75, 1, true}, {0.9, 2.5, false}} {
		tr.SetMTTRBudget(Target{Quantile: tc.q, Window: 10 * time.Second})
		v, ok := tr.MTTRVerdict(20 * time.Second)
		if !ok || v.Violations != 1 || v.Pass != tc.pass || v.BurnRate < tc.burn-0.01 || v.BurnRate > tc.burn+0.01 {
			t.Fatalf("q=%v: %+v", tc.q, v)
		}
	}
	tr.SetMTTRBudget(Target{Quantile: 1, Window: 10 * time.Second})
	if v, _ := tr.MTTRVerdict(20 * time.Second); v.Pass || v.BurnRate <= 1e300 {
		t.Fatalf("q=1 with a violation: %+v", v)
	}
}

func TestNilTracker(t *testing.T) {
	var tr *Tracker
	tr.Consume(response("x", time.Second, "h", upgrade("h", 0)))
	tr.Consume(migrated("vm", time.Second))
	tr.SetRegistry(nil)
	tr.SetMTTRBudget(Target{})
	if !tr.Pass(0) || tr.Report(0) != nil {
		t.Fatal("nil tracker must be inert and passing")
	}
	if d := tr.Downtime(); d.VMs != 0 {
		t.Fatalf("nil downtime = %+v", d)
	}
	if s := tr.Availability(0); s.Outages != 0 {
		t.Fatal("nil tracker tracked an outage")
	}
}

func TestDowntimeAccounting(t *testing.T) {
	tr := NewTracker()
	tr.Consume(migrated("vm-1", 30*time.Millisecond))
	// A swap charges its blackout to every VM it lists.
	tr.Consume([]obs.SpanRecord{span(0, "nova.host-live-upgrade", 0, time.Second,
		obs.A("node", "h"), obs.A("downtime", 20*time.Millisecond), obs.A("vms", "vm-1,vm-2"))})
	tr.Consume(migrated("vm-2", 30*time.Millisecond)) // accumulates
	tr.Consume(migrated("vm-3", 0))                   // ignored
	// A failed operation charges nothing.
	failed := migrated("vm-4", time.Second)
	failed[0].Attrs = append(failed[0].Attrs, obs.A("error", "link severed"))
	tr.Consume(failed)
	d := tr.Downtime()
	if d.VMs != 2 || d.Total != 100*time.Millisecond {
		t.Fatalf("downtime = %+v", d)
	}
	// vm-1 and vm-2 tie at 50ms: the first by name is the worst.
	if d.Max != 50*time.Millisecond || d.WorstVM != "vm-1" {
		t.Fatalf("max = %v worst = %q, want 50ms on vm-1", d.Max, d.WorstVM)
	}
}

func TestRegistryMirror(t *testing.T) {
	reg := obs.NewRegistry()
	tr := NewTracker()
	tr.SetRegistry(reg)
	tr.Consume(response("CVE-D", time.Minute, "h1,h2", upgrade("h1", time.Second)))
	tr.Consume(migrated("vm", 5*time.Millisecond))
	tr.Consume(hostDown("h3", 0))
	tr.Consume(hostDown("h4", 0))
	tr.Consume(recovered("h3", time.Second))

	for _, c := range []struct {
		name string
		want int64
	}{{"slo.exposed", 2}, {"slo.remediated", 1}, {"slo.outages", 2}} {
		if got := reg.Counter(c.name, "").Value(); got != c.want {
			t.Fatalf("%s counter = %d, want %d", c.name, got, c.want)
		}
	}
	if g := reg.Gauge("slo.open_windows", "hosts"); g.Value() != 1 || g.Max() != 2 {
		t.Fatalf("open windows gauge = %d (max %d)", g.Value(), g.Max())
	}
	if g := reg.Gauge("slo.hosts_down", "hosts"); g.Value() != 1 || g.Max() != 2 {
		t.Fatalf("hosts down gauge = %d (max %d)", g.Value(), g.Max())
	}
	for _, h := range []string{"slo.remediation_latency", "slo.vm_downtime", "slo.mttr"} {
		if got := reg.Histogram(h, "ns", nil).Count(); got != 1 {
			t.Fatalf("%s histogram count = %d", h, got)
		}
	}
}

func TestWriteReportDeterministic(t *testing.T) {
	build := func() *Tracker {
		tr := NewTracker()
		tr.Consume(response("CVE-E", 30*time.Minute, "host-00,host-01",
			upgrade("host-00", 90*time.Second), upgrade("host-01", 2*time.Minute)))
		tr.Consume(migrated("vm-0", 12*time.Millisecond))
		return tr
	}
	var b1, b2 bytes.Buffer
	if err := build().WriteReport(&b1, 5*time.Minute); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if err := build().WriteReport(&b2, 5*time.Minute); err != nil {
		t.Fatalf("WriteReport: %v", err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("reports differ:\n%s\n---\n%s", b1.String(), b2.String())
	}
	out := b1.String()
	for _, want := range []string{
		"CVE-E: disclosed 0s  exposed=2 remediated=2 open=0",
		"remediation latency p50=",
		"window closed by host-01",
		"target p99 within 30m0s",
		"PASS",
		"vm downtime: vms=1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
	// Empty tracker renders a stable placeholder.
	var empty bytes.Buffer
	if err := NewTracker().WriteReport(&empty, 0); err != nil {
		t.Fatalf("WriteReport empty: %v", err)
	}
	if !strings.Contains(empty.String(), "no tracked CVEs") {
		t.Fatalf("empty report = %q", empty.String())
	}
}

func TestOutageTimelineAndMTTR(t *testing.T) {
	tr := NewTracker()
	// host-a: crash at 10s, recovered at 14s (MTTR 4s).
	tr.Consume(hostDown("host-a", 10*time.Second))
	tr.Consume(hostDown("host-a", 11*time.Second)) // ignored: already down
	tr.Consume(recovered("host-a", 14*time.Second))
	// host-b: crash at 20s, still down at evaluation.
	tr.Consume(hostDown("host-b", 20*time.Second))
	// host-a crashes again: second interval, 30s → 31s.
	tr.Consume(hostDown("host-a", 30*time.Second))
	tr.Consume(recovered("host-a", 31*time.Second))
	// Up without down is a no-op, and so is a failed recovery.
	tr.Consume(recovered("host-c", 40*time.Second))
	failed := recovered("host-b", 45*time.Second)
	failed[0].Attrs = append(failed[0].Attrs, obs.A("error", "salvage exhausted"))
	tr.Consume(failed)

	now := 50 * time.Second
	a := tr.Availability(now)
	if a.Hosts != 2 || a.Outages != 3 || a.Open != 1 {
		t.Fatalf("summary = %+v", a)
	}
	// 4s + 1s closed, plus host-b open 20s→50s = 30s.
	if a.Total != 35*time.Second {
		t.Fatalf("total outage = %v", a.Total)
	}
	if a.MTTRMax != 4*time.Second || a.WorstHost != "host-b" {
		t.Fatalf("mttr max = %v worst = %s", a.MTTRMax, a.WorstHost)
	}

	// MTTR budget: host-b, still open at 30s past its crash, violates a
	// 10s budget; allowing 50% passes.
	tr.SetMTTRBudget(Target{Quantile: 0.5, Window: 10 * time.Second})
	v, ok := tr.MTTRVerdict(now)
	if !ok || v.Hosts != 3 || v.Violations != 1 || !v.Pass {
		t.Fatalf("verdict = %+v ok=%v", v, ok)
	}
	if !tr.Pass(now) {
		t.Fatal("tracker should pass with budget met")
	}
	tr.SetMTTRBudget(Target{Quantile: 1, Window: 10 * time.Second})
	if tr.Pass(now) {
		t.Fatal("tracker should fail a 100% budget with an open outage")
	}

	// The report gains an availability section, deterministically.
	var b1, b2 bytes.Buffer
	if err := tr.WriteReport(&b1, now); err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteReport(&b2, now); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatal("availability report not deterministic")
	}
	for _, want := range []string{
		"availability: hosts=2 outages=3 open=1 downtime=35s (worst host-b)",
		"mttr mean=2.5s p50=2.5s p95=3.85s max=4s",
		"FAIL",
	} {
		if !strings.Contains(b1.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, b1.String())
		}
	}
}
