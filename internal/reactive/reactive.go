// Package reactive is the failure-detection half of crash-triggered
// hypervisor recovery: a virtual-time heartbeat model that turns "host h
// crashed at time t" into "the control plane noticed at time t+Δ", with
// Δ a deterministic function of the probe configuration and the host's
// phase in the probe schedule.
//
// The detector is analytic, not polled. Every host's heartbeat probes
// tick at phase(host) + k·Interval on the shared virtual clock; a crash
// stops the heartbeats, the first probe at or after the crash misses,
// and death is declared after MissThreshold consecutive misses. Because
// the schedule is a pure function of (seed, host name, config), the
// detection latency for any crash is computed in closed form — no
// background goroutines, no wall-clock, and byte-identical results for
// any worker count.
package reactive

import (
	"sync"
	"time"

	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

// ProbeConfig parameterizes the heartbeat model.
type ProbeConfig struct {
	// Interval is the probe period. Non-positive takes the default.
	Interval time.Duration
	// MissThreshold is how many consecutive missed probes declare the
	// host dead. Values below 1 are treated as 1 (first miss kills).
	MissThreshold int
	// Seed randomizes each host's phase in the probe schedule, modeling
	// unsynchronized per-host heartbeat timers. Two detectors with the
	// same seed assign every host the same phase.
	Seed uint64
}

// DefaultProbeConfig is the fleet default: 200 ms probes, dead after 3
// consecutive misses — worst-case detection latency of 600 ms, well
// under a single emergency transplant's duration.
func DefaultProbeConfig() ProbeConfig {
	return ProbeConfig{Interval: 200 * time.Millisecond, MissThreshold: 3}
}

func (c ProbeConfig) interval() time.Duration {
	if c.Interval <= 0 {
		return DefaultProbeConfig().Interval
	}
	return c.Interval
}

func (c ProbeConfig) threshold() int {
	if c.MissThreshold < 1 {
		return 1
	}
	return c.MissThreshold
}

// MaxLatency is the worst-case detection latency under this config: a
// crash just after a successful probe waits a full interval for the
// first miss, then threshold-1 more intervals for the declaration.
func (c ProbeConfig) MaxLatency() time.Duration {
	return time.Duration(c.threshold()) * c.interval()
}

// Event is one detected hypervisor failure.
type Event struct {
	// Host names the crashed host.
	Host string
	// Reason is the failure cause recorded by the crash model.
	Reason string
	// Hung distinguishes a control-plane wedge (needs fencing before
	// salvage) from a clean fail-stop.
	Hung bool
	// CrashedAt is the virtual time the hypervisor actually failed.
	CrashedAt time.Duration
	// DetectedAt is the virtual time the heartbeat monitor declared it
	// dead: the MissThreshold-th missed probe tick.
	DetectedAt time.Duration
}

// Latency is the crash-to-detection window — unplanned outage time that
// accrues before recovery can even start.
func (e Event) Latency() time.Duration { return e.DetectedAt - e.CrashedAt }

// Detector converts crash times into detection events and keeps the
// detection-latency record for MTTR accounting.
type Detector struct {
	cfg ProbeConfig

	mu       sync.Mutex
	events   []Event
	handlers []func(Event)
	rec      *obs.Recorder
}

// NewDetector creates a detector with the given probe configuration.
func NewDetector(cfg ProbeConfig) *Detector {
	return &Detector{cfg: cfg}
}

// Config returns the probe configuration in effect (defaults resolved).
func (d *Detector) Config() ProbeConfig {
	return ProbeConfig{Interval: d.cfg.interval(), MissThreshold: d.cfg.threshold(), Seed: d.cfg.Seed}
}

// SetRecorder wires an observability recorder; each detection then lands
// in the "reactive.detect_latency_s" histogram.
func (d *Detector) SetRecorder(rec *obs.Recorder) *Detector {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.rec = rec
	return d
}

// Subscribe registers a handler invoked synchronously, in subscription
// order, for every observed failure. The fleet orchestrator subscribes
// its emergency-transplant trigger here.
func (d *Detector) Subscribe(fn func(Event)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.handlers = append(d.handlers, fn)
}

// Phase is the host's fixed offset in the probe schedule, in [0,
// Interval): a pure function of (seed, host name), stable across
// detectors and runs.
func (d *Detector) Phase(host string) time.Duration {
	iv := d.cfg.interval()
	h := fnv64(host)
	return time.Duration(simtime.Mix(d.cfg.Seed^h) % uint64(iv))
}

// DetectionTime is the closed form of the heartbeat model: the virtual
// time at which a crash at crashedAt on the given host is declared.
// Probes tick at phase + k·Interval; the first probe at or after the
// crash misses (a heartbeat that stopped at the probe instant is
// already gone), and the threshold-th consecutive miss declares death.
func (d *Detector) DetectionTime(host string, crashedAt time.Duration) time.Duration {
	iv := d.cfg.interval()
	phase := d.Phase(host)
	firstMiss := phase
	if crashedAt > phase {
		k := (crashedAt - phase + iv - 1) / iv
		firstMiss = phase + k*iv
	}
	return firstMiss + time.Duration(d.cfg.threshold()-1)*iv
}

// Observe records that the given host's hypervisor failed at crashedAt,
// computes when the monitor declares it dead, notifies subscribers, and
// returns the event. Observe is the bridge from the crash model (fault
// injection, chaos ops) into the reactive control plane.
func (d *Detector) Observe(host string, crashedAt time.Duration, reason string, hung bool) Event {
	ev := Event{
		Host: host, Reason: reason, Hung: hung,
		CrashedAt:  crashedAt,
		DetectedAt: d.DetectionTime(host, crashedAt),
	}
	d.mu.Lock()
	d.events = append(d.events, ev)
	handlers := append([]func(Event){}, d.handlers...)
	rec := d.rec
	d.mu.Unlock()
	if rec != nil {
		rec.Metrics().Histogram("reactive.detect_latency_s", "s",
			obs.ExpBuckets(1e-3, 2, 12)).Observe(ev.Latency().Seconds())
		rec.Metrics().Counter("reactive.crashes_detected", "crashes").Add(1)
	}
	for _, fn := range handlers {
		fn(ev)
	}
	return ev
}

// Events returns every observed failure in observation order.
func (d *Detector) Events() []Event {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]Event(nil), d.events...)
}

// fnv64 is FNV-1a, the same host-name hash family the fault plan uses,
// so phase assignment shares its independence properties.
func fnv64(s string) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime
	}
	return h
}
