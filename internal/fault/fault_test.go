package fault

import (
	"errors"
	"testing"
	"time"

	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

func TestNilPlanIsFree(t *testing.T) {
	var p *Plan
	if err := p.Fire(SitePRAMBuild); err != nil {
		t.Fatal(err)
	}
	if fired, _ := p.Arm(SiteHVBoot); fired {
		t.Fatal("nil plan fired")
	}
	if p.Shots() != nil || p.Count(SiteHVBoot) != 0 {
		t.Fatal("nil plan has state")
	}
	p.Restrict(SiteHVBoot)
	p.ForceAt(SiteHVBoot, 1)
	p.SetClock(nil)
	p.SetRecorder(nil)
}

func TestDeterministicAcrossPlans(t *testing.T) {
	run := func() []bool {
		p := NewPlan(42, 0.5)
		var out []bool
		for i := 0; i < 64; i++ {
			fired, _ := p.Arm(SiteLinkAbort)
			out = append(out, fired)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("occurrence %d differs across identical plans", i+1)
		}
	}
	// A different seed must produce a different firing pattern.
	p2 := NewPlan(43, 0.5)
	same := true
	for i := 0; i < 64; i++ {
		fired, _ := p2.Arm(SiteLinkAbort)
		if fired != a[i] {
			same = false
		}
	}
	if same {
		t.Fatal("seed 42 and 43 fire identically over 64 arms")
	}
}

func TestRateZeroAndOne(t *testing.T) {
	p0 := NewPlan(1, 0)
	p1 := NewPlan(1, 1)
	for i := 0; i < 32; i++ {
		if fired, _ := p0.Arm(SitePRAMBuild); fired {
			t.Fatal("rate 0 fired")
		}
		if fired, _ := p1.Arm(SitePRAMBuild); !fired {
			t.Fatal("rate 1 did not fire")
		}
	}
}

func TestForceAtFiresExactOccurrence(t *testing.T) {
	p := NewPlan(7, 0).ForceAt(SiteHVBoot, 3)
	for n := 1; n <= 5; n++ {
		fired, _ := p.Arm(SiteHVBoot)
		if fired != (n == 3) {
			t.Fatalf("occurrence %d fired=%v", n, fired)
		}
	}
	shots := p.Shots()
	if len(shots) != 1 || shots[0].Site != SiteHVBoot || shots[0].Occurrence != 3 {
		t.Fatalf("shots = %v", shots)
	}
}

func TestRestrictLimitsProbabilisticFiring(t *testing.T) {
	p := NewPlan(9, 1).Restrict(SiteLinkLoss)
	if fired, _ := p.Arm(SitePRAMBuild); fired {
		t.Fatal("restricted-out site fired")
	}
	if fired, _ := p.Arm(SiteLinkLoss); !fired {
		t.Fatal("restricted-in site did not fire")
	}
	// ForceAt overrides the restriction.
	p.ForceAt(SitePRAMBuild, 2)
	p2 := NewPlan(9, 0).Restrict(SiteLinkLoss).ForceAt(SitePRAMBuild, 1)
	if fired, _ := p2.Arm(SitePRAMBuild); !fired {
		t.Fatal("forced shot suppressed by restriction")
	}
}

func TestFireWrapsErrInjected(t *testing.T) {
	p := NewPlan(1, 0).ForceAt(SiteKexecHandover, 1)
	err := p.Fire(SiteKexecHandover)
	if !errors.Is(err, hterr.ErrInjected) {
		t.Fatalf("err = %v, want ErrInjected", err)
	}
	if err := p.Fire(SiteKexecHandover); err != nil {
		t.Fatalf("second occurrence fired: %v", err)
	}
}

func TestClockAndRecorder(t *testing.T) {
	clock := simtime.NewClock()
	clock.Advance(3 * time.Second)
	rec := obs.NewRecorder(clock)
	p := NewPlan(1, 0).ForceAt(SiteLinkAbort, 1).SetClock(clock).SetRecorder(rec)
	if err := p.Fire(SiteLinkAbort); err == nil {
		t.Fatal("forced shot did not fire")
	}
	if got := p.Shots()[0].At; got != 3*time.Second {
		t.Fatalf("shot at %v, want 3s", got)
	}
	if n := rec.Metrics().Counter("fault.injected", "faults").Value(); n != 1 {
		t.Fatalf("fault.injected = %d", n)
	}
}

func TestParseSites(t *testing.T) {
	sites, err := ParseSites("pram.build, link.abort")
	if err != nil || len(sites) != 2 || sites[0] != SitePRAMBuild || sites[1] != SiteLinkAbort {
		t.Fatalf("sites=%v err=%v", sites, err)
	}
	if sites, err := ParseSites(""); err != nil || sites != nil {
		t.Fatal("empty list should mean all sites")
	}
	if _, err := ParseSites("bogus.site"); err == nil {
		t.Fatal("unknown site accepted")
	}
	for _, s := range Sites() {
		if !Registered(s) {
			t.Fatalf("registry inconsistent for %s", s)
		}
	}
	if len(Sites()) < 10 {
		t.Fatalf("only %d sites registered", len(Sites()))
	}
}

func TestRetryPolicy(t *testing.T) {
	var zero RetryPolicy
	if zero.Attempts() != 1 || zero.Backoff(1) != 0 {
		t.Fatal("zero policy should mean one attempt, no backoff")
	}
	p := DefaultRetryPolicy()
	if p.Attempts() != 3 {
		t.Fatalf("attempts = %d", p.Attempts())
	}
	if p.Backoff(1) != 50*time.Millisecond || p.Backoff(2) != 100*time.Millisecond || p.Backoff(3) != 200*time.Millisecond {
		t.Fatalf("backoffs = %v %v %v", p.Backoff(1), p.Backoff(2), p.Backoff(3))
	}
	flat := RetryPolicy{MaxAttempts: 5, BaseBackoff: time.Second, Multiplier: 0}
	if flat.Backoff(4) != time.Second {
		t.Fatal("multiplier<1 should behave as constant backoff")
	}
}

func TestDeriveIndependentChildPlans(t *testing.T) {
	parent := NewPlan(42, 0.5).Restrict(SiteHVBoot, SitePRAMParse)
	parent.ForceAt(SiteClusterHost, 1)

	// Derivation is a pure function of (parent seed, index): two
	// derivations with the same index behave identically.
	a1, a2 := parent.Derive(3), parent.Derive(3)
	for i := 0; i < 20; i++ {
		f1, _ := a1.Arm(SiteHVBoot)
		f2, _ := a2.Arm(SiteHVBoot)
		if f1 != f2 {
			t.Fatalf("same-index children diverge at arm %d", i)
		}
	}

	// Different indices give independent streams (they must not all
	// mirror the parent draw-for-draw).
	same := true
	b := parent.Derive(7)
	c := parent.Derive(8)
	for i := 0; i < 40; i++ {
		fb, _ := b.Arm(SiteHVBoot)
		fc, _ := c.Arm(SiteHVBoot)
		if fb != fc {
			same = false
		}
	}
	if same {
		t.Fatal("children at different indices produced identical streams")
	}

	// Restriction is inherited; ForceAt one-shots are not.
	d := parent.Derive(0)
	if fired, _ := d.Arm(SiteClusterHost); fired {
		t.Fatal("derived plan inherited the parent's ForceAt one-shot")
	}
	if fired, _ := d.Arm(SiteLinkAbort); fired {
		t.Fatal("derived plan fired a site outside the inherited restriction")
	}

	// Child shots stay out of the parent's log.
	if n := parent.Count(SiteHVBoot); n != 0 {
		t.Fatalf("parent recorded %d child arms", n)
	}
}
