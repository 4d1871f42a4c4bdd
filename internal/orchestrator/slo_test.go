package orchestrator

import (
	"testing"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/fault"
	"hypertp/internal/obs"
	"hypertp/internal/sched"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

// trackSLO records c's spans into a vulnerability-window tracker.
func trackSLO(c *cloud) *slo.Tracker {
	rec := obs.NewRecorder(c.clock)
	c.nova.SetRecorder(rec)
	tracker := slo.NewTracker()
	rec.AddSink(tracker)
	return tracker
}

// trackedFleet is the stock fleet with a vulnerability-window tracker
// attached.
func trackedFleet(t *testing.T) (*cloud, *slo.Tracker) {
	t.Helper()
	c := newFleet(t, stockFleet())
	return c, trackSLO(c)
}

// requireAllOpen checks that a response which secured no host still
// reports every affected host exposed and open, and fails its SLO once
// the remediation window has passed: a response that planned exposures
// must never pass vacuously.
func requireAllOpen(t *testing.T, c *cloud, tracker *slo.Tracker, base time.Duration) {
	t.Helper()
	const cve = "CVE-2016-6258"
	rec, _ := vulndb.Load().Lookup(cve)
	late := base + rec.RemediationWindow() + time.Second
	reports := tracker.Report(late)
	hosts := len(c.nova.Nodes())
	if len(reports) != 1 {
		t.Fatalf("reports = %+v, want one for %s", reports, cve)
	}
	r := reports[0]
	if r.CVE != cve || r.Disclosed != base || r.Exposed != hosts || r.Open != hosts || r.Remediated != 0 {
		t.Fatalf("report = %+v, want %d hosts exposed and open since %v", r, hosts, base)
	}
	if !r.HasTarget || r.Verdict.Pass || r.Verdict.Violations != hosts {
		t.Fatalf("verdict = %+v, want %d violations", r.Verdict, hosts)
	}
	if tracker.Pass(late) {
		t.Fatal("a response that remediated nothing passed its SLO")
	}
}

// Every transplant is faulted at admission: each host is quarantined,
// and with every host quarantined no drain has a destination, so no task
// of the response finishes.
func TestRespondToCVENoUpgradeFinishesFailsSLO(t *testing.T) {
	c, tracker := trackedFleet(t)
	c.nova.SetFaults(fault.NewPlan(1, 1).Restrict(fault.SiteClusterHost))
	c.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 4, LinkStreams: 4})
	base := c.clock.Now()
	resp, err := c.nova.RespondToCVE(vulndb.Load(), "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.UpgradedNodes) != 0 || len(resp.QuarantinedNodes) != len(c.nova.Nodes()) {
		t.Fatalf("upgraded %v, quarantined %v: want every host quarantined", resp.UpgradedNodes, resp.QuarantinedNodes)
	}
	requireAllOpen(t, c, tracker, base)
}

// The schedule itself fails: a transplant demanding more kexec slots
// than the limits hold starves sched.Execute, and RespondToCVE returns
// its error before any host op runs.
func TestRespondToCVEExecuteErrorFailsSLO(t *testing.T) {
	kexecs := opTransplant.kexecs
	opTransplant.kexecs = 2
	t.Cleanup(func() { opTransplant.kexecs = kexecs })
	c, tracker := trackedFleet(t)
	c.nova.SetFleetLimits(&sched.Limits{MaxKexecs: 1, LinkStreams: 4})
	base := c.clock.Now()
	if _, err := c.nova.RespondToCVE(vulndb.Load(), "CVE-2016-6258", []string{"xen", "kvm"}, core.DefaultOptions()); err == nil {
		t.Fatal("a starved schedule returned no error")
	}
	requireAllOpen(t, c, tracker, base)
}
