// Reactive recovery: the crash-triggered half of the orchestrator. Nova
// subscribes to the failure detector, keeps a ledger of downed hosts,
// and turns each detection into an emergency transplant — one host at a
// time through RecoverHost, or fleet-wide through RecoverFleet, which
// schedules a crash storm's recoveries on the same dependency-aware
// scheduler as RespondToCVE so kexec limits hold while many hosts
// recover at once.
package orchestrator

import (
	"fmt"
	"sort"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hterr"
	"hypertp/internal/hv"
	"hypertp/internal/obs"
	"hypertp/internal/reactive"
	"hypertp/internal/report"
	"hypertp/internal/sched"
	"hypertp/internal/simtime"
)

// CrashHost fail-stops the host's hypervisor: every vCPU freezes, guest
// memory and VM_i State stay intact in place. Reports an error when the
// hypervisor does not model crashes or has already failed.
func (d *LibvirtDriver) CrashHost(reason string) error {
	c, ok := d.hyp.(hv.Crashable)
	if !ok {
		return hterr.Incompatible(fmt.Errorf("orchestrator: %v does not model crashes", d.hyp.Kind()))
	}
	if !c.Crash(reason) {
		return fmt.Errorf("orchestrator: hypervisor already failed (%s)", c.CrashReason())
	}
	return nil
}

// HangHost wedges the host's control plane without fail-stopping it:
// vCPUs freeze, but the failure is only observable as missed heartbeats.
// Recovery fences the hypervisor before salvaging.
func (d *LibvirtDriver) HangHost(reason string) error {
	c, ok := d.hyp.(hv.Crashable)
	if !ok {
		return hterr.Incompatible(fmt.Errorf("orchestrator: %v does not model hangs", d.hyp.Kind()))
	}
	if !c.Hang(reason) {
		return fmt.Errorf("orchestrator: hypervisor already failed (%s)", c.CrashReason())
	}
	return nil
}

// EmergencyRecover salvages the frozen VMs from the crashed (or hung)
// hypervisor and boots the target in their place — the driver-level
// reactive-transplant operation, the crash-path sibling of
// HostLiveUpgrade.
func (d *LibvirtDriver) EmergencyRecover(target hv.Kind, opts core.Options) (*core.InPlaceReport, error) {
	newHyp, rep, err := d.engine.Emergency(d.hyp, target, opts)
	if err != nil {
		return nil, err
	}
	d.hyp = newHyp
	return rep, nil
}

// hostCrasher is the driver capability the reactive path needs; only
// drivers that model crashes (LibvirtDriver) implement it.
type hostCrasher interface {
	CrashHost(reason string) error
	HangHost(reason string) error
	EmergencyRecover(target hv.Kind, opts core.Options) (*core.InPlaceReport, error)
}

// EmergencyTarget picks the hypervisor an emergency transplant boots in
// place of a crashed one: the other member of the paper's transplant
// pair. The crashed binary is exactly what just failed, so rebooting
// into it is never the answer.
func EmergencyTarget(crashed hv.Kind) hv.Kind {
	if crashed == hv.KindXen {
		return hv.KindKVM
	}
	return hv.KindXen
}

// SetDetector attaches a failure detector: Nova subscribes to its
// events, so every observed failure — from CrashHost, chaos ops, or an
// external monitor — lands in the downed-host ledger and opens an
// unplanned-outage interval on the SLO timeline at the actual crash
// time (the undetected window counts against availability). A nil
// detector detaches; CrashHost then records outages directly with zero
// detection latency.
func (n *Nova) SetDetector(d *reactive.Detector) {
	n.detector = d
	if d != nil {
		d.Subscribe(n.noteCrash)
	}
}

// Detector returns the attached failure detector (nil when detached).
func (n *Nova) Detector() *reactive.Detector { return n.detector }

// noteCrash is the detector subscription: first failure per host wins,
// and hosts the manager does not run are ignored (the detector may
// watch a wider fleet).
func (n *Nova) noteCrash(ev reactive.Event) {
	if _, ok := n.nodes[ev.Host]; !ok {
		return
	}
	if _, down := n.downed[ev.Host]; down {
		return
	}
	n.downed[ev.Host] = ev
	n.slo.HostDown(ev.Host, ev.CrashedAt, ev.Reason)
	n.obs.Metrics().Counter("nova.hosts_crashed", "hosts").Add(1)
}

// CrashHost injects a fail-stop on a managed host and routes it through
// the detector. Returns the detection event (DetectedAt is when the
// control plane may begin recovery).
func (n *Nova) CrashHost(name, reason string) (reactive.Event, error) {
	return n.failHost(name, reason, false)
}

// HangHost wedges a managed host's control plane; recovery will fence
// it before salvaging.
func (n *Nova) HangHost(name, reason string) (reactive.Event, error) {
	return n.failHost(name, reason, true)
}

func (n *Nova) failHost(name, reason string, hang bool) (reactive.Event, error) {
	node, ok := n.nodes[name]
	if !ok {
		return reactive.Event{}, fmt.Errorf("nova: unknown node %q", name)
	}
	hc, ok := node.Driver.(hostCrasher)
	if !ok {
		return reactive.Event{}, hterr.Incompatible(fmt.Errorf("nova: driver %T cannot model crashes", node.Driver))
	}
	if _, down := n.downed[name]; down {
		return reactive.Event{}, fmt.Errorf("nova: node %q is already down", name)
	}
	var err error
	if hang {
		err = hc.HangHost(reason)
	} else {
		err = hc.CrashHost(reason)
	}
	if err != nil {
		return reactive.Event{}, err
	}
	now := n.clock.Now()
	if n.detector != nil {
		return n.detector.Observe(name, now, reason, hang), nil
	}
	ev := reactive.Event{Host: name, Reason: reason, Hung: hang, CrashedAt: now, DetectedAt: now}
	n.noteCrash(ev)
	return ev, nil
}

// Downed returns the crashed-but-unrecovered hosts in sorted order.
func (n *Nova) Downed() []string {
	out := make([]string, 0, len(n.downed))
	for name := range n.downed {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HostDowned reports whether the node is crashed and awaiting recovery.
func (n *Nova) HostDowned(name string) bool {
	_, ok := n.downed[name]
	return ok
}

// RecoverHost runs the emergency transplant for one downed host: wait
// out the heartbeat monitor's detection latency, salvage the frozen VMs
// from the crashed hypervisor's in-memory image, and boot the emergency
// target in their place. On success the outage closes at the last VM's
// resume time and the record's Elapsed is the host's MTTR — crash to
// resume, detection window included. A host whose salvage exhausts its
// retries stays downed (the frozen state is intact; RecoverHost may be
// retried), while a post-handover loss reconciles the database and
// quarantines the host.
func (n *Nova) RecoverHost(name string, opts core.Options) (*UpgradeRecord, error) {
	ev, down := n.downed[name]
	if !down {
		return nil, fmt.Errorf("nova: node %q is not down", name)
	}
	node := n.nodes[name]
	hc, ok := node.Driver.(hostCrasher)
	if !ok {
		return nil, hterr.Incompatible(fmt.Errorf("nova: driver %T cannot recover", node.Driver))
	}
	// Recovery cannot start before the monitor declared the host dead.
	if ev.DetectedAt > n.clock.Now() {
		n.clock.Advance(ev.DetectedAt - n.clock.Now())
	}
	target := EmergencyTarget(node.Driver.HypervisorKind())
	sp := n.obs.Start("nova.emergency-recover",
		obs.A("node", name), obs.A("target", target), obs.A("reason", ev.Reason))
	defer sp.End()

	var rep *core.InPlaceReport
	if node.Driver.Hypervisor().VMCount() > 0 {
		var err error
		rep, err = hc.EmergencyRecover(target, opts)
		if err != nil {
			if hterr.Class(err) == hterr.ErrVMLost {
				// Died past the point of no return: the VMs are gone, the
				// database must not keep placing them, and the outage
				// stays open (there is nothing left to bring up).
				delete(n.downed, name)
				n.reconcileLostHost(name)
			}
			return nil, err
		}
		for _, res := range rep.VMs {
			if r, ok := n.db[res.Name]; ok {
				r.ID = res.NewID
				r.Kind = target
			}
			n.slo.AddVMDowntime(res.Name, rep.Downtime)
		}
	} else {
		// Nothing to salvage: discard the crashed image and fresh-boot
		// the target.
		if err := rebootEmptyHost(node.Driver, target); err != nil {
			return nil, err
		}
	}
	delete(n.downed, name)
	n.slo.HostUp(name, n.clock.Now())
	n.obs.Metrics().Counter("nova.emergency_recoveries", "hosts").Add(1)
	return &UpgradeRecord{
		Node: name, Target: target, Report: rep,
		Elapsed: n.clock.Now() - ev.CrashedAt,
	}, nil
}

// StormResponse summarizes a fleet-wide crash-storm recovery sweep.
type StormResponse struct {
	// DownHosts is every host the sweep attempted, sorted by name.
	DownHosts []string
	// RecoveredNodes completed an emergency transplant (or a fresh boot
	// for empty hosts). FrozenNodes exhausted salvage retries and stay
	// downed with their VM state intact — a later sweep may retry them.
	// LostNodes died past the point of no return and were reconciled.
	RecoveredNodes []string
	FrozenNodes    []string
	LostNodes      []string
	Records        []*UpgradeRecord
	// Faults counts the injected faults absorbed across all recoveries.
	Faults  int
	Outcome report.Outcome
	Elapsed time.Duration
}

// Summary implements report.Report.
func (r *StormResponse) Summary() report.Summary {
	s := report.Summary{
		Kind:           "crash-storm",
		Outcome:        r.Outcome,
		Attempts:       len(r.DownHosts),
		Faults:         r.Faults,
		VirtualElapsed: r.Elapsed,
	}
	for _, rec := range r.Records {
		if rec.Report != nil {
			s.Downtime += rec.Report.Downtime
		}
	}
	return s
}

// RecoverFleet sweeps every downed host through emergency recovery —
// the crash-storm response. With fleet limits configured the sweep runs
// on the dependency-aware scheduler: one host-exclusive node per downed
// host, each consuming a kexec slot, each on a private clock that first
// waits out that host's detection latency, with derived fault plans so
// results are byte-identical for any -workers value. Without limits it
// recovers serially in name order. Hosts that stay frozen or are lost
// degrade the outcome but never abort the sweep: in a storm, every
// other host's recovery matters more than any one host's failure.
func (n *Nova) RecoverFleet(opts core.Options) (*StormResponse, error) {
	resp := &StormResponse{DownHosts: n.Downed(), Outcome: report.OutcomeCompleted}
	if len(resp.DownHosts) == 0 {
		return resp, nil
	}
	base := n.clock.Now()

	if n.fleetLimits == nil {
		for _, name := range resp.DownHosts {
			rec, err := n.RecoverHost(name, opts)
			switch {
			case err == nil:
				resp.RecoveredNodes = append(resp.RecoveredNodes, name)
				resp.Records = append(resp.Records, rec)
				if rec.Report != nil {
					resp.Faults += rec.Report.Faults
				}
			case hterr.Class(err) == hterr.ErrVMLost:
				resp.LostNodes = append(resp.LostNodes, name)
			case hterr.Class(err) == hterr.ErrHypervisorCrashed:
				resp.FrozenNodes = append(resp.FrozenNodes, name)
			default:
				return resp, err
			}
		}
		return n.finishStorm(resp, base, nil)
	}

	for _, name := range resp.DownHosts {
		if _, ok := n.nodes[name].Driver.(*LibvirtDriver); !ok {
			return nil, fmt.Errorf("nova: fleet scheduler requires libvirt drivers; node %q has %T", name, n.nodes[name].Driver)
		}
	}

	type stormPlan struct {
		name   string
		ev     reactive.Event
		target hv.Kind
		rep    *core.InPlaceReport
		start  time.Duration
	}

	g := sched.NewGraph()
	var spans []fleetSpan
	for _, name := range resp.DownHosts {
		node := n.nodes[name]
		ld := node.Driver.(*LibvirtDriver)
		hp := &stormPlan{name: name, ev: n.downed[name], target: EmergencyTarget(node.Driver.HypervisorKind())}
		nd := &sched.Node{Name: "emergency:" + name, Hosts: []string{name}, Kexecs: 1}
		nd.Prepare = func(start time.Duration) {
			hp.start = start
			// The engine runs concurrently: derived fault stream, shared
			// recorder detached (spans are buffered and replayed sorted).
			ld.engine.Fault = n.faults.Derive(nd.ID)
			ld.engine.Obs = nil
		}
		nd.Run = func(start time.Duration) (time.Duration, error) {
			c := simtime.NewClock()
			c.Advance(start)
			// A recovery slot may open before the monitor has declared
			// this host dead; the node then idles until detection.
			if det := hp.ev.DetectedAt - base; det > start {
				c.Advance(det - start)
			}
			restore := ld.engine.SwapClock(c)
			defer restore()
			if ld.hyp.VMCount() > 0 {
				rep, err := ld.EmergencyRecover(hp.target, opts)
				if err != nil {
					return c.Now() - start, err
				}
				hp.rep = rep
			} else if err := rebootEmptyHost(ld, hp.target); err != nil {
				return c.Now() - start, err
			}
			return c.Now() - start, nil
		}
		nd.Commit = func(end time.Duration, err error) {
			ld.engine.Fault = n.faults
			ld.engine.Obs = n.obs
			switch {
			case err == nil:
				if hp.rep != nil {
					for _, res := range hp.rep.VMs {
						if r, ok := n.db[res.Name]; ok {
							r.ID = res.NewID
							r.Kind = hp.target
						}
						n.slo.AddVMDowntime(res.Name, hp.rep.Downtime)
					}
					resp.Faults += hp.rep.Faults
				}
				delete(n.downed, hp.name)
				n.slo.HostUp(hp.name, base+end)
				n.obs.Metrics().Counter("nova.emergency_recoveries", "hosts").Add(1)
				resp.RecoveredNodes = append(resp.RecoveredNodes, hp.name)
				resp.Records = append(resp.Records, &UpgradeRecord{
					Node: hp.name, Target: hp.target, Report: hp.rep,
					Elapsed: base + end - hp.ev.CrashedAt,
				})
				spans = append(spans, fleetSpan{
					name: "nova.emergency-recover", start: base + hp.start, end: base + end,
					attrs: []obs.Attr{obs.A("node", hp.name), obs.A("target", hp.target)},
				})
			case hterr.Class(err) == hterr.ErrVMLost:
				resp.LostNodes = append(resp.LostNodes, hp.name)
				delete(n.downed, hp.name)
				n.reconcileLostHost(hp.name)
			case hterr.Class(err) == hterr.ErrHypervisorCrashed:
				resp.FrozenNodes = append(resp.FrozenNodes, hp.name)
			}
		}
		g.Add(nd)
	}

	schedule, err := sched.Execute(g, *n.fleetLimits, sched.Options{Metrics: n.obs.Metrics()})
	if err != nil {
		return nil, err
	}
	n.clock.Advance(schedule.Makespan)
	return n.finishStorm(resp, base, spans)
}

// finishStorm closes out a storm sweep: emit the buffered spans under
// one root (sorted by start so siblings open in monotone order), stamp
// the elapsed time, and grade the outcome.
func (n *Nova) finishStorm(resp *StormResponse, base time.Duration, spans []fleetSpan) (*StormResponse, error) {
	if n.obs != nil && len(spans) > 0 {
		root := n.obs.StartAt(nil, "nova.crash-storm", base,
			obs.A("hosts", len(resp.DownHosts)), obs.A("recovered", len(resp.RecoveredNodes)))
		sort.SliceStable(spans, func(i, j int) bool { return spans[i].start < spans[j].start })
		for _, fs := range spans {
			sp := root.ChildAt(fs.name, fs.start, fs.attrs...)
			sp.EndAt(fs.end)
		}
		root.EndAt(n.clock.Now())
	}
	resp.Elapsed = n.clock.Now() - base
	if len(resp.FrozenNodes) > 0 || len(resp.LostNodes) > 0 {
		resp.Outcome = report.OutcomeDegraded
	}
	return resp, nil
}
