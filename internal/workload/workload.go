// Package workload models the paper's four application benchmarks —
// Redis (redis-benchmark), MySQL (sysbench), SPECrate 2017 and Darknet
// MNIST training — as metric generators driven by transplant phase
// timings (§5.3).
//
// Native per-hypervisor performance levels (e.g. Redis serving ~37%
// better on KVM, the SPEC column times) are testbed measurements from the
// paper used as calibration inputs; what the engines *derive* is how
// those metrics respond to InPlaceTP's service gap and MigrationTP's
// pre-copy degradation window, using the phase boundaries produced by the
// transplant engine.
package workload

import (
	"fmt"
	"time"

	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

// ServerProfile calibrates one request-serving workload.
type ServerProfile struct {
	Name string
	// Steady-state throughput per hypervisor (requests/sec).
	QPSXen, QPSKVM float64
	// Steady-state request latency per hypervisor (milliseconds).
	LatencyXenMS, LatencyKVMMS float64
	// MigQPSFactor and MigLatFactor shape the pre-copy degradation
	// window of a live migration (§5.3: MySQL QPS −68%, latency +252%).
	MigQPSFactor, MigLatFactor float64
	// NoiseFrac is sampling noise as a fraction of the current level.
	NoiseFrac float64
	// DirtyPagesPerSec is the guest page write rate the workload
	// imposes, which feeds the migration pre-copy loop.
	DirtyPagesPerSec float64
}

// Redis returns the Fig. 11 calibration: ~30k QPS under Xen, ~37% more
// under KVM.
func Redis() ServerProfile {
	return ServerProfile{
		Name:   "redis",
		QPSXen: 30000, QPSKVM: 41100,
		LatencyXenMS: 0.9, LatencyKVMMS: 0.66,
		MigQPSFactor: 0.45, MigLatFactor: 2.2,
		NoiseFrac:        0.04,
		DirtyPagesPerSec: 9000,
	}
}

// MySQL returns the Fig. 12 calibration: ~1.6k QPS, ~5 ms latency;
// during migration QPS −68% and latency +252%.
func MySQL() ServerProfile {
	return ServerProfile{
		Name:   "mysql",
		QPSXen: 1600, QPSKVM: 1650,
		LatencyXenMS: 5.0, LatencyKVMMS: 4.8,
		MigQPSFactor: 0.32, MigLatFactor: 3.52,
		NoiseFrac:        0.05,
		DirtyPagesPerSec: 7000,
	}
}

// VideoStream returns the §5.4 streaming-server calibration used in the
// cluster experiment (30% of cluster VMs).
func VideoStream() ServerProfile {
	return ServerProfile{
		Name:   "video-stream",
		QPSXen: 480, QPSKVM: 500,
		LatencyXenMS: 12, LatencyKVMMS: 11.5,
		MigQPSFactor: 0.6, MigLatFactor: 1.8,
		NoiseFrac:        0.03,
		DirtyPagesPerSec: 5000,
	}
}

// ScheduleKind selects the transplant scenario a timeline describes.
type ScheduleKind uint8

const (
	// RunXen is an untouched run on Xen (baseline curve).
	RunXen ScheduleKind = iota + 1
	// RunKVM is an untouched run on KVM (baseline curve).
	RunKVM
	// InPlaceTP inserts a full service gap between GapStart and GapEnd
	// (downtime plus NIC reinitialization for networked services),
	// after which the workload serves at KVM levels.
	InPlaceTP
	// MigrationTP inserts a degradation window (pre-copy) between
	// DegradeStart and DegradeEnd, a negligible gap, then KVM levels.
	MigrationTP
)

// Schedule describes one experiment timeline.
type Schedule struct {
	Kind  ScheduleKind
	Total time.Duration
	Step  time.Duration

	// InPlaceTP: service interruption window.
	GapStart, GapEnd time.Duration

	// MigrationTP: pre-copy degradation window; the downtime itself is
	// sub-sample-resolution (Table 4: ~5 ms) and does not produce a
	// visible gap.
	DegradeStart, DegradeEnd time.Duration
}

// Validate checks the schedule shape.
func (s *Schedule) Validate() error {
	if s.Total <= 0 || s.Step <= 0 {
		return fmt.Errorf("workload: schedule needs positive total and step")
	}
	switch s.Kind {
	case RunXen, RunKVM:
	case InPlaceTP:
		if s.GapEnd < s.GapStart {
			return fmt.Errorf("workload: gap ends before it starts")
		}
	case MigrationTP:
		if s.DegradeEnd < s.DegradeStart {
			return fmt.Errorf("workload: degradation ends before it starts")
		}
	default:
		return fmt.Errorf("workload: unknown schedule kind %d", s.Kind)
	}
	return nil
}

// levelAt returns (qps, latencyMS) at time t for the schedule.
func levelAt(p *ServerProfile, s *Schedule, t time.Duration) (float64, float64) {
	switch s.Kind {
	case RunXen:
		return p.QPSXen, p.LatencyXenMS
	case RunKVM:
		return p.QPSKVM, p.LatencyKVMMS
	case InPlaceTP:
		switch {
		case t < s.GapStart:
			return p.QPSXen, p.LatencyXenMS
		case t < s.GapEnd:
			return 0, 0 // no service, no samples answered
		default:
			return p.QPSKVM, p.LatencyKVMMS
		}
	case MigrationTP:
		switch {
		case t < s.DegradeStart:
			return p.QPSXen, p.LatencyXenMS
		case t < s.DegradeEnd:
			return p.QPSXen * p.MigQPSFactor, p.LatencyXenMS * p.MigLatFactor
		default:
			return p.QPSKVM, p.LatencyKVMMS
		}
	}
	return 0, 0
}

// Timelines generates the throughput and latency series for a schedule.
func Timelines(p ServerProfile, s Schedule, seed uint64) (qps, latency *obs.Series, err error) {
	if err := s.Validate(); err != nil {
		return nil, nil, err
	}
	rng := simtime.NewRand(seed)
	qps = &obs.Series{Name: p.Name + "-qps", Unit: "req/s"}
	latency = &obs.Series{Name: p.Name + "-latency", Unit: "ms"}
	for t := time.Duration(0); t <= s.Total; t += s.Step {
		q, l := levelAt(&p, &s, t)
		if q > 0 {
			q = rng.Jitter(q, p.NoiseFrac)
		}
		if l > 0 {
			l = rng.Jitter(l, p.NoiseFrac)
		}
		qps.Add(t, q)
		latency.Add(t, l)
	}
	return qps, latency, nil
}

// GapSeconds measures the observed service interruption in a QPS series:
// the longest run of (near-)zero samples times the step.
func GapSeconds(qps *obs.Series, step time.Duration) float64 {
	longest, cur := 0, 0
	for _, pt := range qps.Points {
		if pt.V < 1 {
			cur++
			if cur > longest {
				longest = cur
			}
		} else {
			cur = 0
		}
	}
	return (time.Duration(longest) * step).Seconds()
}
