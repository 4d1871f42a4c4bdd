// Reactive recovery: the crash-triggered half of the orchestrator. Nova
// subscribes to the failure detector, keeps a ledger of downed hosts,
// and turns each detection into an emergency transplant — one host at a
// time through RecoverHost, or fleet-wide through RecoverFleet, which
// plans a crash storm's recoveries for the same executor as RespondToCVE
// so kexec limits hold while many hosts recover at once.
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
)

// failHost fail-stops the host's hypervisor — every vCPU freezes, guest
// memory and VM_i State stay intact in place — or, with hang, wedges its
// control plane without fail-stopping it: the failure is then only
// observable as missed heartbeats, and recovery fences the hypervisor
// before salvaging. Reports an error when the hypervisor has already
// failed.
func (d *LibvirtDriver) failHost(reason string, hang bool) error {
	fail := d.hyp.Crash
	if hang {
		fail = d.hyp.Hang
	}
	if !fail(reason) {
		return fmt.Errorf("orchestrator: hypervisor already failed (%s)", d.hyp.CrashReason())
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
	// The outage's record: from the crash to its detection, the window
	// no monitor saw. Emergency recovery closes it.
	if n.obs != nil {
		n.obs.StartAt(nil, "nova.host-down", ev.CrashedAt,
			obs.Attr{Key: "node", Value: ev.Host}, obs.Attr{Key: "reason", Value: ev.Reason}).EndAt(ev.DetectedAt)
	}
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
	if _, down := n.downed[name]; down {
		return reactive.Event{}, fmt.Errorf("nova: node %q is already down", name)
	}
	if err := node.Driver.failHost(reason, hang); err != nil {
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
	// Recovery cannot start before the monitor declared the host dead.
	if ev.DetectedAt > n.clock.Now() {
		n.clock.Advance(ev.DetectedAt - n.clock.Now())
	}
	t := n.recovery(ev, opts)
	sp := n.obs.Start(t.op.span, append(t.op.attrs(t), obs.A("reason", ev.Reason))...)
	defer sp.End()
	if err := n.run(t, sp); err != nil {
		return nil, err
	}
	return t.record, nil
}

// recovery is the emergency-transplant task for a downed host.
func (n *Nova) recovery(ev reactive.Event, opts core.Options) *hostTask {
	return &hostTask{
		op: &opRecover, host: ev.Host, opts: opts, notBefore: ev.DetectedAt,
		target: EmergencyTarget(n.nodes[ev.Host].Driver.HypervisorKind()),
		plan:   &hostPlan{name: ev.Host, since: ev.CrashedAt},
	}
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
	Outcome hterr.Outcome
	Elapsed time.Duration
}

// Summary implements hterr.Report.
func (r *StormResponse) Summary() hterr.Summary {
	s := hterr.Summary{
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
// the crash-storm response: a planner that emits one recovery task per
// downed host for fleetRun to execute under the fleet limits, each
// consuming a kexec slot and first waiting out that host's detection
// latency. Hosts that stay frozen or are lost degrade the outcome but
// never abort the sweep: in a storm, every other host's recovery matters
// more than any one host's failure.
func (n *Nova) RecoverFleet(opts core.Options) (*StormResponse, error) {
	resp := &StormResponse{DownHosts: n.Downed(), Outcome: hterr.OutcomeCompleted}
	if len(resp.DownHosts) == 0 {
		return resp, nil
	}
	fr := n.newFleetRun()
	for _, name := range resp.DownHosts {
		fr.add(n.recovery(n.downed[name], opts))
	}
	if err := fr.execute(); err != nil {
		return nil, err
	}
	for _, rec := range fr.records {
		resp.RecoveredNodes = append(resp.RecoveredNodes, rec.Node)
		if rec.Report != nil {
			resp.Faults += rec.Report.Faults
		}
	}
	resp.Records, resp.FrozenNodes, resp.LostNodes = fr.records, fr.frozen, fr.lost
	fr.emit("nova.crash-storm", obs.A("hosts", len(resp.DownHosts)), obs.A("recovered", len(resp.RecoveredNodes)))
	resp.Elapsed = n.clock.Now() - fr.base
	if len(resp.FrozenNodes) > 0 || len(resp.LostNodes) > 0 {
		resp.Outcome = hterr.OutcomeDegraded
	}
	return resp, nil
}
