package reactive

import (
	"fmt"
	"testing"
	"time"

	"hypertp/internal/par"
)

func TestDetectionTimeClosedForm(t *testing.T) {
	d := NewDetector(ProbeConfig{Interval: 100 * time.Millisecond, MissThreshold: 3, Seed: 42})
	phase := d.Phase("host-0")
	if phase < 0 || phase >= 100*time.Millisecond {
		t.Fatalf("phase = %v, want in [0, interval)", phase)
	}

	// A crash long before the first probe is declared at the third tick.
	if got, want := d.DetectionTime("host-0", 0), phase+200*time.Millisecond; phase > 0 && got != want {
		t.Fatalf("detect(0) = %v, want %v", got, want)
	}
	// A crash exactly on a probe tick misses that probe.
	tick := phase + 5*100*time.Millisecond
	if got, want := d.DetectionTime("host-0", tick), tick+200*time.Millisecond; got != want {
		t.Fatalf("detect(on-tick) = %v, want %v", got, want)
	}
	// A crash just after a tick waits a full interval for the first miss.
	if got, want := d.DetectionTime("host-0", tick+1), tick+100*time.Millisecond+200*time.Millisecond; got != want {
		t.Fatalf("detect(after-tick) = %v, want %v", got, want)
	}
}

func TestDetectionLatencyBounds(t *testing.T) {
	cfg := ProbeConfig{Interval: 250 * time.Millisecond, MissThreshold: 4, Seed: 7}
	d := NewDetector(cfg)
	lo := time.Duration(cfg.MissThreshold-1) * cfg.Interval
	hi := cfg.MaxLatency()
	for h := 0; h < 50; h++ {
		host := fmt.Sprintf("host-%03d", h)
		for _, at := range []time.Duration{0, 13 * time.Millisecond, time.Second, 17 * time.Second} {
			det := d.DetectionTime(host, at)
			lat := det - at
			if lat < lo || lat > hi {
				t.Fatalf("host %s crash at %v: latency %v outside [%v, %v]", host, at, lat, lo, hi)
			}
		}
	}
}

// TestDetectorDeterminism pins the schedule as a pure function of (seed,
// host, config): same inputs, byte-identical latencies, regardless of
// the worker count and of how many other hosts were observed.
func TestDetectorDeterminism(t *testing.T) {
	defer par.SetWorkers(0)
	grab := func(workers int) string {
		par.SetWorkers(workers)
		d := NewDetector(ProbeConfig{Interval: 200 * time.Millisecond, MissThreshold: 3, Seed: 20210426})
		out := ""
		for h := 0; h < 16; h++ {
			ev := d.Observe(fmt.Sprintf("host-%02d", h), time.Duration(h)*137*time.Millisecond, "injected", h%3 == 0)
			out += fmt.Sprintf("%s %v %v\n", ev.Host, ev.CrashedAt, ev.DetectedAt)
		}
		return out
	}
	one := grab(1)
	eight := grab(8)
	if one != eight {
		t.Fatalf("detection schedule differs between -workers 1 and 8:\n%s\nvs\n%s", one, eight)
	}
	if again := grab(8); again != eight {
		t.Fatal("identical wide runs differ")
	}
}

// TestDetectorPinnedSchedule is the golden anchor: a fixed (seed, host)
// pair must keep its phase forever, or every recorded soak and SLO
// timeline silently shifts.
func TestDetectorPinnedSchedule(t *testing.T) {
	d := NewDetector(ProbeConfig{Interval: 200 * time.Millisecond, MissThreshold: 3, Seed: 1})
	ev := d.Observe("host-00", time.Second, "pinned", false)
	d2 := NewDetector(ProbeConfig{Interval: 200 * time.Millisecond, MissThreshold: 3, Seed: 1})
	if d2.DetectionTime("host-00", time.Second) != ev.DetectedAt {
		t.Fatal("detection time not reproducible from a fresh detector")
	}
	if ev.Latency() < 400*time.Millisecond || ev.Latency() > 600*time.Millisecond {
		t.Fatalf("latency = %v outside the (threshold-1, threshold]·interval band", ev.Latency())
	}
	// Different seeds must spread phases (not all hosts in lockstep).
	spread := false
	for seed := uint64(2); seed < 12; seed++ {
		alt := NewDetector(ProbeConfig{Interval: 200 * time.Millisecond, MissThreshold: 3, Seed: seed})
		if alt.Phase("host-00") != d.Phase("host-00") {
			spread = true
			break
		}
	}
	if !spread {
		t.Fatal("phase ignores the seed")
	}
}

func TestDetectorSubscribeAndSeries(t *testing.T) {
	d := NewDetector(DefaultProbeConfig())
	var got []Event
	d.Subscribe(func(ev Event) { got = append(got, ev) })

	// Subscribers see observation order, and every detection lands
	// within the configured worst case.
	d.Observe("host-b", 3*time.Second, "panic", false)
	d.Observe("host-a", time.Second, "hang", true)
	if len(got) != 2 || got[0].Host != "host-b" || got[1].Host != "host-a" || !got[1].Hung {
		t.Fatalf("events = %+v", got)
	}
	for _, ev := range got {
		if ev.Latency() > DefaultProbeConfig().MaxLatency() {
			t.Fatalf("%s: latency %v above the worst case %v", ev.Host, ev.Latency(), DefaultProbeConfig().MaxLatency())
		}
	}
}

func TestProbeConfigDefaults(t *testing.T) {
	var zero ProbeConfig
	d := NewDetector(zero)
	cfg := d.Config()
	if cfg.Interval != DefaultProbeConfig().Interval || cfg.MissThreshold != 1 {
		t.Fatalf("resolved config = %+v", cfg)
	}
	if zero.MaxLatency() != DefaultProbeConfig().Interval {
		t.Fatalf("zero MaxLatency = %v", zero.MaxLatency())
	}
}
