// Package slo turns a run's span records into the paper's headline
// quantity, the vulnerability window. A Tracker is an obs.StreamSink that
// derives in virtual time, from span names, attributes and times alone:
// per CVE and host, the exposure from a nova.respond-cve root's start
// (the disclosure) for each host its exposed attribute lists to the end
// of that host's nova.host-live-upgrade child (the kexec commit); per VM,
// the downtime attributes of the swap spans (which list their VMs) and
// nova.live-migrate; per host, each outage from a nova.host-down root
// (the crash) to the end of its nova.emergency-recover. A span with an
// error attribute closes nothing. Reports are deterministic: CVEs and
// outages in root order, hosts in exposure order, equal VMs by name.
// A nil *Tracker is valid everywhere and free, as in obs.
package slo

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"hypertp/internal/obs"
)

// DefaultQuantile is the quantile of every CVE target: "99% of hosts
// remediated within the record's remediation window of disclosure".
const DefaultQuantile = 0.99

// Target declares one SLO: at least Quantile of the intervals must close
// within Window of their start.
type Target struct {
	Quantile float64
	Window   time.Duration
}

func (t Target) String() string {
	return fmt.Sprintf("p%g within %v", t.Quantile*100, t.Window)
}

// interval is one host's exposure to a CVE, or one of its outages.
type interval struct {
	host     string
	from, to time.Duration
	done     bool
}

// late reports an interval out of target at now: closed after its
// deadline, or still open past it.
func (iv interval) late(window, now time.Duration) bool {
	if iv.done {
		return iv.to > iv.from+window
	}
	return now > iv.from+window
}

// cveState is one CVE's timeline.
type cveState struct {
	disclosed time.Duration
	target    Target
	hasTarget bool
	index     map[string]int // host → windows index
	windows   []interval     // exposure order, each from the disclosure
}

// Tracker derives exposure windows, VM downtime and outages from span
// records. Safe for concurrent use; all methods are no-ops on a nil
// Tracker.
type Tracker struct {
	mu       sync.Mutex
	cves     map[string]*cveState
	cveOrder []string
	vms      map[string]time.Duration
	outages  []interval     // crash order
	lastDown map[string]int // host → its latest outage
	mttr     Target
	hasMTTR  bool
	reg      *obs.Registry
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{cves: map[string]*cveState{}, vms: map[string]time.Duration{}, lastDown: map[string]int{}}
}

// SetRegistry mirrors what Consume derives into obs metrics: exposure,
// remediation and outage counters, open-window and hosts-down gauges,
// and remediation-latency, VM-downtime and MTTR histograms.
func (t *Tracker) SetRegistry(reg *obs.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reg = reg
	t.mu.Unlock()
}

// SetMTTRBudget declares the recovery SLO: at least Quantile of outages
// must recover within Window of the crash. Pass then evaluates it
// alongside the per-CVE targets.
func (t *Tracker) SetMTTRBudget(target Target) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mttr, t.hasMTTR = target, true
	t.mu.Unlock()
}

// latencyBuckets spans 1ms..~17min of virtual latency, in nanoseconds.
var latencyBuckets = obs.ExpBuckets(1e6, 4, 10)

// Consume implements obs.StreamSink. It also takes several whole roots
// at once, as spans.jsonl holds them.
func (t *Tracker) Consume(recs []obs.SpanRecord) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var cs *cveState // the response whose root is being read
	for i := range recs {
		rec := &recs[i]
		attr := func(key string) string { return obs.AttrValue(rec.Attrs, key) }
		if rec.Depth == 0 {
			cs = nil
			switch rec.Name {
			case "nova.respond-cve":
				cs = t.respondLocked(attr("cve"), rec.Start, attr("window"), attr("exposed"))
			case "nova.host-down":
				t.hostDownLocked(attr("node"), rec.Start)
			}
		}
		if attr("error") != "" {
			continue
		}
		switch rec.Name {
		case "nova.live-migrate":
			t.downtimeLocked(attr("vm"), attr("downtime"))
		case "nova.host-live-upgrade":
			t.downtimeLocked(attr("vms"), attr("downtime"))
			if i, ok := cs.window(attr("node")); ok && rec.Depth == 1 {
				// The kexec commit closes the host's window.
				w := &cs.windows[i]
				w.to, w.done = rec.End, true
				t.reg.Counter("slo.remediated", "hosts").Add(1)
				t.reg.Gauge("slo.open_windows", "hosts").Add(-1)
				t.reg.Histogram("slo.remediation_latency", "ns", latencyBuckets).Observe(float64(w.to - w.from))
			}
		case "nova.emergency-recover":
			t.downtimeLocked(attr("vms"), attr("downtime"))
			if i, ok := t.lastDown[attr("node")]; ok && !t.outages[i].done {
				o := &t.outages[i]
				o.to, o.done = rec.End, true
				t.reg.Gauge("slo.hosts_down", "hosts").Add(-1)
				t.reg.Histogram("slo.mttr", "ns", latencyBuckets).Observe(float64(o.to - o.from))
			}
		}
	}
}

// respondLocked opens a response's exposure windows at its disclosure
// (the first response to a CVE discloses it) and declares the CVE's
// target from its window attribute. A host already exposed keeps its
// window.
func (t *Tracker) respondLocked(cve string, at time.Duration, window, exposed string) *cveState {
	cs, ok := t.cves[cve]
	if !ok {
		n := strings.Count(exposed, ",") + 1
		cs = &cveState{disclosed: at, index: make(map[string]int, n), windows: make([]interval, 0, n)}
		t.cves[cve] = cs
		t.cveOrder = append(t.cveOrder, cve)
	}
	if w, err := time.ParseDuration(window); err == nil {
		cs.target, cs.hasTarget = Target{Quantile: DefaultQuantile, Window: w}, true
	}
	opened := int64(0)
	for rest := exposed; rest != ""; {
		var host string
		host, rest, _ = strings.Cut(rest, ",")
		if _, ok := cs.index[host]; !ok {
			cs.index[host] = len(cs.windows)
			cs.windows = append(cs.windows, interval{host: host, from: cs.disclosed})
			opened++
		}
	}
	if opened > 0 {
		t.reg.Counter("slo.exposed", "hosts").Add(opened)
		t.reg.Gauge("slo.open_windows", "hosts").Add(opened)
	}
	return cs
}

// window finds host's open window; a nil state has none.
func (cs *cveState) window(host string) (int, bool) {
	if cs == nil {
		return 0, false
	}
	i, ok := cs.index[host]
	return i, ok && !cs.windows[i].done
}

// downtimeLocked charges downtime to each VM of the comma-separated
// list vms: a transplant's blackout or a migration's stop-and-copy.
func (t *Tracker) downtimeLocked(vms, downtime string) {
	d, err := time.ParseDuration(downtime)
	for rest := vms; err == nil && d > 0 && rest != ""; {
		var vm string
		vm, rest, _ = strings.Cut(rest, ",")
		t.vms[vm] += d
		t.reg.Histogram("slo.vm_downtime", "ns", latencyBuckets).Observe(float64(d))
	}
}

// hostDownLocked opens host's outage at the crash, not at its detection:
// the undetected window is outage time too. A host already down stays
// down (first failure wins).
func (t *Tracker) hostDownLocked(host string, at time.Duration) {
	if i, ok := t.lastDown[host]; ok && !t.outages[i].done {
		return
	}
	t.lastDown[host] = len(t.outages)
	t.outages = append(t.outages, interval{host: host, from: at})
	t.reg.Counter("slo.outages", "outages").Add(1)
	t.reg.Gauge("slo.hosts_down", "hosts").Add(1)
}

// AvailabilitySummary aggregates the unplanned-outage timeline: the
// MTTR-and-availability counterpart of the CVE exposure windows.
type AvailabilitySummary struct {
	// Hosts is how many distinct hosts experienced at least one outage.
	Hosts int
	// Outages and Open count intervals (Open = hosts still down).
	Outages, Open int
	// Total is the summed outage time; still-open intervals are charged
	// up to the evaluation instant.
	Total time.Duration
	// MTTR percentiles over closed (recovered) outages.
	MTTRMean, MTTRP50, MTTRP95, MTTRMax time.Duration
	// WorstHost suffered the longest single outage (open or closed), the
	// later crash among equals.
	WorstHost string
}

// Availability evaluates the outage timeline at virtual time now.
func (t *Tracker) Availability(now time.Duration) AvailabilitySummary {
	if t == nil {
		return AvailabilitySummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := AvailabilitySummary{Hosts: len(t.lastDown), Outages: len(t.outages)}
	var mttrs []float64
	var worst time.Duration
	for _, o := range t.outages {
		d := o.to - o.from
		if !o.done {
			s.Open++
			d = now - o.from
		} else {
			mttrs = append(mttrs, float64(d))
		}
		s.Total += d
		if d >= worst && d > 0 {
			worst, s.WorstHost = d, o.host
		}
	}
	if len(mttrs) > 0 {
		s.MTTRMean = time.Duration(obs.Mean(mttrs))
		s.MTTRP50 = time.Duration(obs.Percentile(mttrs, 50))
		s.MTTRP95 = time.Duration(obs.Percentile(mttrs, 95))
		s.MTTRMax = time.Duration(obs.Percentile(mttrs, 100))
	}
	return s
}

// MTTRVerdict evaluates the declared recovery budget at virtual time
// now: an outage violates when it recovered later than Window after the
// crash, or is still open with the budget spent. Without a declared
// budget the verdict passes vacuously.
func (t *Tracker) MTTRVerdict(now time.Duration) (Verdict, bool) {
	if t == nil {
		return Verdict{CVE: "mttr", Pass: true}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasMTTR {
		return Verdict{CVE: "mttr", Pass: true}, false
	}
	return judge("mttr", t.mttr, t.outages, now), true
}

// Verdict is the burn-rate evaluation of a timeline against a target.
type Verdict struct {
	CVE    string
	Target Target
	// Hosts is the number of intervals (open or closed).
	Hosts int
	// Violations counts intervals out of budget: closed later than
	// Window after their start, or still open with the budget spent.
	Violations int
	// BurnRate is the violating fraction divided by the allowed
	// fraction (1 − Quantile): 1.0 means the error budget is exactly
	// spent, above 1.0 the SLO is burned through.
	BurnRate float64
	Pass     bool
}

// judge evaluates ivs against target at now.
func judge(name string, target Target, ivs []interval, now time.Duration) Verdict {
	v := Verdict{CVE: name, Target: target, Hosts: len(ivs)}
	for _, iv := range ivs {
		if iv.late(target.Window, now) {
			v.Violations++
		}
	}
	allowed, frac := 1-target.Quantile, 0.0
	if v.Hosts > 0 {
		frac = float64(v.Violations) / float64(v.Hosts)
	}
	switch {
	case allowed > 0:
		v.BurnRate = frac / allowed
	case v.Violations > 0:
		v.BurnRate = math.Inf(1)
	}
	v.Pass = v.BurnRate <= 1
	return v
}

func (v Verdict) String() string {
	state := "PASS"
	if !v.Pass {
		state = "FAIL"
	}
	return fmt.Sprintf("target %v: violations=%d/%d burn=%.3f %s",
		v.Target, v.Violations, v.Hosts, v.BurnRate, state)
}

// WindowReport is the fleet remediation timeline of one CVE.
type WindowReport struct {
	CVE        string
	Disclosed  time.Duration
	Exposed    int
	Remediated int
	Open       int
	// P50/P95/Max summarize remediation latency vs disclosure over
	// closed intervals.
	P50, P95, Max time.Duration
	// Verdict is evaluated against the declared target, or the zero
	// Verdict (Pass, 0 hosts) when no target was declared.
	Verdict   Verdict
	HasTarget bool
	// WorstHost is the last-remediated host (the one that closed the
	// fleet's vulnerability window).
	WorstHost string
}

// DowntimeSummary aggregates the per-VM downtime accounting.
type DowntimeSummary struct {
	VMs           int
	Total         time.Duration
	P50, P95, Max time.Duration
	// WorstVM is the VM with the largest accumulated downtime, the first
	// by name among equals.
	WorstVM string
}

// Downtime returns the fleet VM-downtime summary.
func (t *Tracker) Downtime() DowntimeSummary {
	if t == nil {
		return DowntimeSummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	d := DowntimeSummary{VMs: len(t.vms)}
	vs := make([]float64, 0, len(t.vms))
	for vm, dt := range t.vms {
		d.Total += dt
		vs = append(vs, float64(dt))
		if dt > d.Max || dt == d.Max && vm < d.WorstVM {
			d.Max, d.WorstVM = dt, vm
		}
	}
	d.P50 = time.Duration(obs.Percentile(vs, 50))
	d.P95 = time.Duration(obs.Percentile(vs, 95))
	return d
}

// Report returns one WindowReport per tracked CVE (first-seen order),
// evaluated at virtual time now.
func (t *Tracker) Report(now time.Duration) []WindowReport {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []WindowReport
	for _, cve := range t.cveOrder {
		cs := t.cves[cve]
		r := WindowReport{CVE: cve, Disclosed: cs.disclosed, Exposed: len(cs.windows), HasTarget: cs.hasTarget}
		var lats []float64
		var worst time.Duration
		for _, w := range cs.windows {
			if !w.done {
				r.Open++
				continue
			}
			r.Remediated++
			lat := w.to - w.from
			lats = append(lats, float64(lat))
			if lat >= worst {
				worst, r.WorstHost = lat, w.host
			}
		}
		r.P50 = time.Duration(obs.Percentile(lats, 50))
		r.P95 = time.Duration(obs.Percentile(lats, 95))
		r.Max = time.Duration(obs.Percentile(lats, 100))
		if cs.hasTarget {
			r.Verdict = judge(cve, cs.target, cs.windows, now)
		}
		out = append(out, r)
	}
	return out
}

// Pass reports whether every CVE with a declared target — and the MTTR
// budget, when declared — passes at virtual time now. A tracker with no
// targets passes vacuously.
func (t *Tracker) Pass(now time.Duration) bool {
	for _, r := range t.Report(now) {
		if r.HasTarget && !r.Verdict.Pass {
			return false
		}
	}
	v, _ := t.MTTRVerdict(now)
	return v.Pass
}
