// Package slo turns the raw observability stream into the paper's
// headline quantity: the vulnerability window. A Tracker maintains, in
// virtual time, the per-CVE × per-host exposure interval — opened at
// vulndb disclosure, closed when that host's kexec handoff commits — a
// fleet remediation timeline over those intervals, and per-VM downtime
// accounting, and evaluates burn rate against declared SLO targets of
// the form "quantile Q of hosts remediated within window W of
// disclosure".
//
// Everything is driven by explicit virtual timestamps and rendered
// deterministically (hosts and CVEs in first-seen order, which the
// callers keep deterministic), so SLO reports are byte-identical across
// -workers counts like every other exporter in the repo.
//
// A nil *Tracker is valid everywhere and free, mirroring the obs
// conventions: instrumented code needs no "is SLO tracking on"
// branches.
package slo

import (
	"fmt"
	"math"
	"sync"
	"time"

	"hypertp/internal/obs"
)

// DefaultQuantile is the fleet-response quantile used when targets are
// declared from vulndb records: "99% of hosts remediated within the
// record's remediation window of disclosure".
const DefaultQuantile = 0.99

// Target declares one SLO: at least Quantile of exposed hosts must be
// remediated within Window of disclosure.
type Target struct {
	Quantile float64       // e.g. 0.99 for "99% of hosts"
	Window   time.Duration // virtual time budget from disclosure
}

func (t Target) String() string {
	return fmt.Sprintf("p%g within %v", t.Quantile*100, t.Window)
}

// exposure is one host's window against one CVE.
type exposure struct {
	opened time.Duration // virtual time the host was found affected
	closed time.Duration
	done   bool
}

// outage is one host's unplanned-outage interval: opened when the
// hypervisor crashes (or is declared dead), closed when emergency
// recovery resumes the last VM.
type outage struct {
	from   time.Duration
	to     time.Duration
	reason string
	done   bool
}

// cveState is the per-CVE timeline.
type cveState struct {
	disclosed time.Duration
	target    Target
	hasTarget bool
	hosts     map[string]*exposure
	hostOrder []string
}

// Tracker accumulates exposure intervals and VM downtime. Safe for
// concurrent use; all methods are no-ops on a nil Tracker.
type Tracker struct {
	mu       sync.Mutex
	cves     map[string]*cveState
	cveOrder []string
	vms      map[string]time.Duration
	vmOrder  []string

	outages     map[string][]*outage
	outageOrder []string
	mttrTarget  Target
	hasMTTR     bool

	reg *obs.Registry
}

// NewTracker creates an empty tracker.
func NewTracker() *Tracker {
	return &Tracker{
		cves:    make(map[string]*cveState),
		vms:     make(map[string]time.Duration),
		outages: make(map[string][]*outage),
	}
}

// SetRegistry mirrors tracker updates into obs metrics: exposure and
// remediation counters, an open-windows gauge, and remediation-latency
// and VM-downtime histograms — the feed ROADMAP item 1 asks for.
func (t *Tracker) SetRegistry(reg *obs.Registry) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.reg = reg
	t.mu.Unlock()
}

// latencyBuckets spans 1ms..~17min of virtual remediation latency.
var latencyBuckets = obs.ExpBuckets(1e6, 4, 10)

// cveLocked returns (creating if needed) the state for cve.
func (t *Tracker) cveLocked(cve string, at time.Duration) *cveState {
	cs, ok := t.cves[cve]
	if !ok {
		cs = &cveState{disclosed: at, hosts: make(map[string]*exposure)}
		t.cves[cve] = cs
		t.cveOrder = append(t.cveOrder, cve)
	}
	return cs
}

// Disclose marks cve disclosed at virtual time at — the instant every
// affected host's vulnerability window starts counting. Calling it
// again is a no-op (first disclosure wins).
func (t *Tracker) Disclose(cve string, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.cveLocked(cve, at)
	t.mu.Unlock()
}

// SetTarget declares the SLO target for cve (implicitly disclosing it
// at `at` if Disclose was not called first).
func (t *Tracker) SetTarget(cve string, at time.Duration, target Target) {
	if t == nil {
		return
	}
	t.mu.Lock()
	cs := t.cveLocked(cve, at)
	cs.target = target
	cs.hasTarget = true
	t.mu.Unlock()
}

// Expose records that host was found running a hypervisor affected by
// cve at virtual time at, opening its exposure interval. An undisclosed
// CVE is implicitly disclosed at `at`. Re-exposing an open or closed
// interval is a no-op.
func (t *Tracker) Expose(cve, host string, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	cs := t.cveLocked(cve, at)
	if _, ok := cs.hosts[host]; !ok {
		cs.hosts[host] = &exposure{opened: at}
		cs.hostOrder = append(cs.hostOrder, host)
		t.reg.Counter("slo.exposed", "hosts").Add(1)
		t.reg.Gauge("slo.open_windows", "hosts").Add(1)
	}
	t.mu.Unlock()
}

// Remediate closes host's exposure interval against cve at virtual time
// at — the kexec-commit instant in a transplant, or the migration
// completion when the host was drained instead. A host never exposed is
// recorded as exposed-and-remediated at `at` (zero-length interval);
// re-remediating is a no-op.
func (t *Tracker) Remediate(cve, host string, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	cs := t.cveLocked(cve, at)
	e, ok := cs.hosts[host]
	if !ok {
		e = &exposure{opened: at}
		cs.hosts[host] = e
		cs.hostOrder = append(cs.hostOrder, host)
		t.reg.Counter("slo.exposed", "hosts").Add(1)
		t.reg.Gauge("slo.open_windows", "hosts").Add(1)
	}
	if !e.done {
		e.closed = at
		e.done = true
		t.reg.Counter("slo.remediated", "hosts").Add(1)
		t.reg.Gauge("slo.open_windows", "hosts").Add(-1)
		t.reg.Histogram("slo.remediation_latency", "ns", latencyBuckets).
			Observe(float64((at - cs.disclosed).Nanoseconds()))
	}
	t.mu.Unlock()
}

// AddVMDowntime accumulates observed downtime for one VM (blackout
// during kexec handoff or a migration stop-and-copy round).
func (t *Tracker) AddVMDowntime(vm string, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.mu.Lock()
	if _, ok := t.vms[vm]; !ok {
		t.vmOrder = append(t.vmOrder, vm)
	}
	t.vms[vm] += d
	t.reg.Histogram("slo.vm_downtime", "ns", latencyBuckets).
		Observe(float64(d.Nanoseconds()))
	t.mu.Unlock()
}

// HostDown opens host's unplanned-outage interval at virtual time at —
// the instant the hypervisor actually failed, not when the detector
// noticed: the undetected window is outage time too. A host already down
// stays down (first failure wins).
func (t *Tracker) HostDown(host string, at time.Duration, reason string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	os := t.outages[host]
	if n := len(os); n > 0 && !os[n-1].done {
		t.mu.Unlock()
		return
	}
	if len(os) == 0 {
		t.outageOrder = append(t.outageOrder, host)
	}
	t.outages[host] = append(os, &outage{from: at, reason: reason})
	t.reg.Counter("slo.outages", "outages").Add(1)
	t.reg.Gauge("slo.hosts_down", "hosts").Add(1)
	t.mu.Unlock()
}

// HostUp closes host's open outage interval at virtual time at — the
// instant emergency recovery resumed the last VM. A host that was never
// down is a no-op.
func (t *Tracker) HostUp(host string, at time.Duration) {
	if t == nil {
		return
	}
	t.mu.Lock()
	os := t.outages[host]
	if n := len(os); n > 0 && !os[n-1].done {
		o := os[n-1]
		o.to = at
		o.done = true
		t.reg.Gauge("slo.hosts_down", "hosts").Add(-1)
		t.reg.Histogram("slo.mttr", "ns", latencyBuckets).
			Observe(float64((at - o.from).Nanoseconds()))
	}
	t.mu.Unlock()
}

// SetMTTRBudget declares the recovery SLO: at least Quantile of outages
// must recover within Window of the failure instant. Pass then evaluates
// it alongside the per-CVE targets.
func (t *Tracker) SetMTTRBudget(target Target) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mttrTarget = target
	t.hasMTTR = true
	t.mu.Unlock()
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
	// WorstHost suffered the longest single outage (open or closed).
	WorstHost string
}

// Ratio converts the summary into fleet availability over a horizon:
// 1 − total outage time / (fleetHosts × horizon). Degenerate inputs
// report 1 (no evidence of unavailability).
func (s AvailabilitySummary) Ratio(fleetHosts int, horizon time.Duration) float64 {
	if fleetHosts <= 0 || horizon <= 0 {
		return 1
	}
	r := 1 - float64(s.Total)/(float64(fleetHosts)*float64(horizon))
	if r < 0 {
		return 0
	}
	return r
}

// Availability evaluates the outage timeline at virtual time now.
func (t *Tracker) Availability(now time.Duration) AvailabilitySummary {
	if t == nil {
		return AvailabilitySummary{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := AvailabilitySummary{Hosts: len(t.outages)}
	var mttrs []float64
	var worst time.Duration
	for _, host := range t.outageOrder {
		for _, o := range t.outages[host] {
			s.Outages++
			d := o.to - o.from
			if !o.done {
				s.Open++
				d = now - o.from
			} else {
				mttrs = append(mttrs, float64(d))
			}
			s.Total += d
			if d >= worst && d > 0 {
				worst, s.WorstHost = d, host
			}
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
// failure, or is still open with the budget spent. Without a declared
// budget the verdict passes vacuously with zero hosts.
func (t *Tracker) MTTRVerdict(now time.Duration) (Verdict, bool) {
	if t == nil {
		return Verdict{CVE: "mttr", Pass: true}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.hasMTTR {
		return Verdict{CVE: "mttr", Pass: true}, false
	}
	v := Verdict{CVE: "mttr", Target: t.mttrTarget}
	for _, host := range t.outageOrder {
		for _, o := range t.outages[host] {
			v.Hosts++
			deadline := o.from + t.mttrTarget.Window
			if o.done {
				if o.to > deadline {
					v.Violations++
				}
			} else if now > deadline {
				v.Violations++
			}
		}
	}
	allowed := 1 - t.mttrTarget.Quantile
	frac := 0.0
	if v.Hosts > 0 {
		frac = float64(v.Violations) / float64(v.Hosts)
	}
	switch {
	case allowed > 0:
		v.BurnRate = frac / allowed
	case v.Violations == 0:
		v.BurnRate = 0
	default:
		v.BurnRate = math.Inf(1)
	}
	v.Pass = v.BurnRate <= 1
	return v, true
}

// CVEs returns the tracked CVE ids in first-seen order.
func (t *Tracker) CVEs() []string {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]string(nil), t.cveOrder...)
}

// Verdict is the burn-rate evaluation of one CVE's timeline against a
// target.
type Verdict struct {
	CVE    string
	Target Target
	// Hosts is the number of exposure intervals (open or closed).
	Hosts int
	// Violations counts hosts out of budget: closed later than Window
	// after disclosure, or still open with the budget already spent.
	Violations int
	// BurnRate is the violating fraction divided by the allowed
	// fraction (1 − Quantile): 1.0 means the error budget is exactly
	// spent, above 1.0 the SLO is burned through.
	BurnRate float64
	Pass     bool
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
	// WorstVM is the VM with the largest accumulated downtime.
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
	var vs []float64
	for _, vm := range t.vmOrder {
		dt := t.vms[vm]
		d.Total += dt
		vs = append(vs, float64(dt))
		if dt > d.Max {
			d.Max, d.WorstVM = dt, vm
		}
	}
	d.P50 = time.Duration(obs.Percentile(vs, 50))
	d.P95 = time.Duration(obs.Percentile(vs, 95))
	return d
}

// evaluateLocked computes the verdict for cs at virtual time now.
func evaluateLocked(cve string, cs *cveState, target Target, now time.Duration) Verdict {
	v := Verdict{CVE: cve, Target: target, Hosts: len(cs.hosts)}
	deadline := cs.disclosed + target.Window
	for _, e := range cs.hosts {
		if e.done {
			if e.closed > deadline {
				v.Violations++
			}
		} else if now > deadline {
			v.Violations++
		}
	}
	allowed := 1 - target.Quantile
	frac := 0.0
	if v.Hosts > 0 {
		frac = float64(v.Violations) / float64(v.Hosts)
	}
	switch {
	case allowed > 0:
		v.BurnRate = frac / allowed
	case v.Violations == 0:
		v.BurnRate = 0
	default:
		v.BurnRate = math.Inf(1)
	}
	v.Pass = v.BurnRate <= 1
	return v
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
		r := WindowReport{CVE: cve, Disclosed: cs.disclosed, Exposed: len(cs.hosts)}
		var lats []float64
		var worst time.Duration
		for _, host := range cs.hostOrder {
			e := cs.hosts[host]
			if !e.done {
				r.Open++
				continue
			}
			r.Remediated++
			lat := e.closed - cs.disclosed
			lats = append(lats, float64(lat))
			if lat >= worst {
				worst, r.WorstHost = lat, host
			}
		}
		r.P50 = time.Duration(obs.Percentile(lats, 50))
		r.P95 = time.Duration(obs.Percentile(lats, 95))
		r.Max = time.Duration(obs.Percentile(lats, 100))
		if cs.hasTarget {
			r.HasTarget = true
			r.Verdict = evaluateLocked(cve, cs, cs.target, now)
		}
		out = append(out, r)
	}
	return out
}

// Evaluate returns cve's verdict against target at virtual time now,
// ignoring any declared target.
func (t *Tracker) Evaluate(cve string, target Target, now time.Duration) Verdict {
	if t == nil {
		return Verdict{CVE: cve, Target: target, Pass: true}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, ok := t.cves[cve]
	if !ok {
		return Verdict{CVE: cve, Target: target, Pass: true}
	}
	return evaluateLocked(cve, cs, target, now)
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
	if v, ok := t.MTTRVerdict(now); ok && !v.Pass {
		return false
	}
	return true
}
