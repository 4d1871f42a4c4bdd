package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"hypertp/internal/core"
	"hypertp/internal/hv"
	"hypertp/internal/hw"
	"hypertp/internal/obs"
	"hypertp/internal/orchestrator"
	"hypertp/internal/reactive"
	"hypertp/internal/sched"
	"hypertp/internal/simnet"
	"hypertp/internal/simtime"
	"hypertp/internal/slo"
	"hypertp/internal/vulndb"
)

// fleetCVE is the disclosed flaw: a Xen-only privilege escalation, so
// every Xen host must move to KVM.
const fleetCVE = "CVE-2016-6258"

// fleetLimits are the response schedule's capacity constraints.
var fleetLimits = sched.Limits{MaxKexecs: 8, LinkStreams: 8}

// fleetFixture is fleet_cve_response: every op builds a Xen fleet the way
// cmd/sloreport does, fail-stops every 8th host, lets the reactive path
// recover them, then answers the CVE under fleetLimits with spans and SLO
// accounting attached. One op is one pass.
type fleetFixture struct {
	e          *env
	hosts, vms int
	last       *fleetRun // the traced op's fleet, handed to the probes

	schedProbed bool
}

type fleetRun struct {
	nova   *orchestrator.Nova
	rec    *obs.Recorder
	flight *obs.FlightRecorder
}

// spanCounter counts every span the recorder streams, ahead of sampling.
type spanCounter struct{ n int }

func (s *spanCounter) Consume(root []obs.SpanRecord) { s.n += len(root) }

func newFleetFixture(e *env) (fixture, error) {
	f := &fleetFixture{e: e, hosts: 64, vms: 512}
	if e.tiny {
		f.hosts, f.vms = 8, 32
	}
	return f, nil
}

func (f *fleetFixture) ops() int { return 1 }

func hostName(i int) string { return fmt.Sprintf("host-%03d", i) }

func (f *fleetFixture) run(_ int, tr *tracer, c *counters) (opReport, error) {
	var out opReport
	clock := simtime.NewClock()

	tr.begin("orchestrator.build")
	fabric := simnet.NewLink(clock, "fabric", simnet.Gbps10, 100*time.Microsecond)
	nova := orchestrator.NewNova(clock, fabric)
	rec := obs.NewRecorder(clock)
	rec.SetRetain(false)
	spans := &spanCounter{}
	flight := obs.NewFlightRecorder(256)
	rec.AddSink(spans)
	rec.AddSink(obs.NewHeadSampler(1, 0.1, flight))
	nova.SetRecorder(rec)
	tracker := slo.NewTracker()
	tracker.SetRegistry(rec.Metrics())
	nova.SetSLO(tracker)
	for i := 0; i < f.hosts; i++ {
		prof := hw.ClusterNode() // 30 free vCPUs: room for 8 VMs and the evacuees
		prof.Name = hostName(i)
		prof.RAMBytes = hw.GiB
		tr.begin("hw.new_machine")
		mach := hw.NewMachine(clock, prof)
		tr.end()
		d, err := orchestrator.NewLibvirtDriver(clock, mach, hv.KindXen)
		if err != nil {
			tr.end()
			return out, err
		}
		if err := nova.AddNode(prof.Name, d); err != nil {
			tr.end()
			return out, err
		}
	}
	for i := 0; i < f.vms; i++ {
		_, err := nova.BootVM(hv.Config{
			Name: fmt.Sprintf("vm-%04d", i), VCPUs: 1, MemBytes: 16 << 20,
			HugePages: true, Seed: f.e.seed + uint64(i), InPlaceCompatible: i%4 != 3,
		})
		if err != nil {
			tr.end()
			return out, fmt.Errorf("boot vm %d: %w", i, err)
		}
	}
	limits := fleetLimits
	nova.SetFleetLimits(&limits)
	nova.SetDetector(reactive.NewDetector(reactive.ProbeConfig{Seed: f.e.seed}))
	tr.end()

	tr.begin("orchestrator.crash")
	crashed := 0
	for i := 0; i < f.hosts; i += 8 {
		clock.Advance(37 * time.Millisecond)
		ev, err := nova.CrashHost(hostName(i), "injected fail-stop")
		if err != nil {
			tr.end()
			return out, err
		}
		crashed++
		c.peak("reactive.sim_detect_ms_max", float64(ev.Latency())/1e6)
	}
	tr.end()

	tr.begin("orchestrator.recover")
	storm, err := nova.RecoverFleet(core.DefaultOptions())
	tr.end()
	if err != nil {
		return out, err
	}

	tr.begin("orchestrator.respond")
	resp, err := nova.RespondToCVE(vulndb.Load(), fleetCVE, []string{"xen", "kvm"}, core.DefaultOptions())
	tr.end()
	if err != nil {
		return out, err
	}
	now := clock.Now()

	tr.begin("slo.report")
	err = tracker.WriteReport(io.Discard, now)
	pass := tracker.Pass(now)
	tr.end()
	if err != nil {
		return out, err
	}

	// Fleet completeness: every host was recovered, upgraded or found
	// already safe, and no VM was left behind.
	switch {
	case len(storm.RecoveredNodes) != crashed || len(storm.FrozenNodes)+len(storm.LostNodes) != 0:
		return out, fmt.Errorf("storm: %d crashed, recovered %v, frozen %v, lost %v",
			crashed, storm.RecoveredNodes, storm.FrozenNodes, storm.LostNodes)
	case len(resp.UpgradedNodes)+len(resp.SkippedNodes) != f.hosts:
		return out, fmt.Errorf("response covered %d upgraded + %d skipped of %d hosts",
			len(resp.UpgradedNodes), len(resp.SkippedNodes), f.hosts)
	case len(resp.SkippedNodes) != crashed:
		return out, fmt.Errorf("%d hosts skipped, want the %d recovered ones", len(resp.SkippedNodes), crashed)
	case len(resp.QuarantinedNodes)+len(resp.StrandedVMs) != 0:
		return out, fmt.Errorf("quarantined %v, stranded %v", resp.QuarantinedNodes, resp.StrandedVMs)
	case !pass:
		return out, fmt.Errorf("SLO violated")
	}

	down := tracker.Downtime()
	windows := tracker.Report(now)
	migrated := 0
	for _, r := range resp.Records {
		migrated += len(r.EvacuatedVMs)
		if r.Report != nil {
			countInPlace(c, r.Report)
		}
	}
	out.sim = fmt.Sprintf("storm %d %v | response %d up=%v skip=%v quar=%v replan=%v strand=%v %s | downtime %d/%d/%d vms=%d | remediation %d/%d/%d",
		storm.Elapsed, storm.RecoveredNodes,
		resp.Elapsed, resp.UpgradedNodes, resp.SkippedNodes, resp.QuarantinedNodes, resp.ReplannedVMs, resp.StrandedVMs, resp.Outcome,
		down.P50, down.P95, down.Max, down.VMs,
		windows[0].P50, windows[0].P95, windows[0].Max)
	out.downtimes = []time.Duration{down.P50}
	out.totals = []time.Duration{resp.Elapsed}

	if c != nil {
		c.add("orchestrator.upgraded_nodes", float64(len(resp.UpgradedNodes)))
		c.add("orchestrator.recovered_nodes", float64(len(storm.RecoveredNodes)))
		c.add("orchestrator.migrated_vms", float64(migrated))
		c.add("orchestrator.quarantined_nodes", float64(len(resp.QuarantinedNodes)))
		// The response DAG has one transplant node per upgraded host and
		// one stream node per evacuated VM.
		c.add("sched.nodes", float64(len(resp.UpgradedNodes)+migrated))
		c.add("obs.spans", float64(spans.n))
		c.add("slo.sim_remediation_p95_s", windows[0].P95.Seconds())
	}
	if tr != nil {
		f.last = &fleetRun{nova: nova, rec: rec, flight: flight}
	}
	return out, nil
}

func (f *fleetFixture) verify(*tracer) error { return nil } // run verifies

func (f *fleetFixture) probe(_ int, tr *tracer, c *counters) error {
	run := f.last
	f.last = nil

	var buf bytes.Buffer
	tr.begin("obs.export")
	err := run.flight.WriteJSONL(&buf)
	if err == nil {
		err = run.rec.Metrics().WritePrometheus(&buf, false)
	}
	tr.end()
	if err != nil {
		return err
	}
	c.add("obs.export_bytes", float64(buf.Len()))

	// One more fail-stop of a populated host, recovered alone, times the
	// emergency transplant that RecoverFleet runs once per crashed host.
	var victim *orchestrator.ComputeNode
	for _, name := range run.nova.Nodes() {
		if node, _ := run.nova.Node(name); len(node.Driver.VMs()) > 0 {
			victim = node
			break
		}
	}
	if victim == nil {
		return fmt.Errorf("no populated host left to probe")
	}
	if _, err := run.nova.CrashHost(victim.Name, "probe fail-stop"); err != nil {
		return err
	}
	tr.begin("core.emergency")
	_, err = run.nova.RecoverHost(victim.Name, core.DefaultOptions())
	tr.end()
	if err != nil {
		return err
	}

	if err := probeHost(tr, victim.Driver.Hypervisor(), f.e.spare); err != nil {
		return err
	}
	if err := probePhysMem(tr, c, f.e.spare); err != nil {
		return err
	}
	if err := probeSimnet(tr, c); err != nil {
		return err
	}
	// The 10⁴-node graph takes about two seconds: once per run is enough,
	// and the smoke test does without.
	largest := !f.schedProbed && !f.e.tiny
	f.schedProbed = true
	return probeSched(tr, largest)
}
