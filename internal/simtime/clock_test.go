package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestClockStartsAtZero(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", c.Now())
	}
}

func TestAdvance(t *testing.T) {
	c := NewClock()
	c.Advance(3 * time.Second)
	c.Advance(500 * time.Millisecond)
	if got, want := c.Now(), 3500*time.Millisecond; got != want {
		t.Fatalf("Now() = %v, want %v", got, want)
	}
}

func TestAdvanceNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance(-1) did not panic")
		}
	}()
	NewClock().Advance(-1)
}

func TestScheduleOrdering(t *testing.T) {
	c := NewClock()
	var order []string
	c.Schedule(2*time.Second, "b", func(*Clock) { order = append(order, "b") })
	c.Schedule(1*time.Second, "a", func(*Clock) { order = append(order, "a") })
	c.Schedule(3*time.Second, "c", func(*Clock) { order = append(order, "c") })
	c.Run()
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("fire order = %v, want [a b c]", order)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", c.Now())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	c := NewClock()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		c.Schedule(time.Second, "ev", func(*Clock) { order = append(order, i) })
	}
	c.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("order[%d] = %d, want %d (FIFO among ties)", i, v, i)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	c.Schedule(500*time.Millisecond, "late", func(*Clock) {})
}

func TestAfter(t *testing.T) {
	c := NewClock()
	c.Advance(time.Second)
	fired := time.Duration(-1)
	c.After(2*time.Second, "x", func(c *Clock) { fired = c.Now() })
	c.Run()
	if fired != 3*time.Second {
		t.Fatalf("fired at %v, want 3s", fired)
	}
}

func TestCancel(t *testing.T) {
	c := NewClock()
	fired := false
	ev := c.Schedule(time.Second, "x", func(*Clock) { fired = true })
	if !c.Cancel(ev) {
		t.Fatal("Cancel returned false for pending event")
	}
	if c.Cancel(ev) {
		t.Fatal("second Cancel returned true")
	}
	c.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
}

func TestCancelMiddleOfQueue(t *testing.T) {
	c := NewClock()
	var order []string
	a := c.Schedule(1*time.Second, "a", func(*Clock) { order = append(order, "a") })
	b := c.Schedule(2*time.Second, "b", func(*Clock) { order = append(order, "b") })
	d := c.Schedule(3*time.Second, "d", func(*Clock) { order = append(order, "d") })
	_ = a
	_ = d
	c.Cancel(b)
	c.Run()
	if len(order) != 2 || order[0] != "a" || order[1] != "d" {
		t.Fatalf("order = %v, want [a d]", order)
	}
}

func TestEventsScheduledDuringRun(t *testing.T) {
	c := NewClock()
	var times []time.Duration
	c.Schedule(time.Second, "first", func(c *Clock) {
		times = append(times, c.Now())
		c.After(time.Second, "second", func(c *Clock) {
			times = append(times, c.Now())
		})
	})
	c.Run()
	if len(times) != 2 || times[0] != time.Second || times[1] != 2*time.Second {
		t.Fatalf("times = %v, want [1s 2s]", times)
	}
}

func TestRunUntil(t *testing.T) {
	c := NewClock()
	var fired []string
	c.Schedule(1*time.Second, "a", func(*Clock) { fired = append(fired, "a") })
	c.Schedule(5*time.Second, "b", func(*Clock) { fired = append(fired, "b") })
	c.RunUntil(3 * time.Second)
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired = %v, want [a]", fired)
	}
	if c.Now() != 3*time.Second {
		t.Fatalf("Now() = %v, want 3s", c.Now())
	}
	if c.Pending() != 1 {
		t.Fatalf("Pending() = %d, want 1", c.Pending())
	}
}

func TestStepEmptyQueue(t *testing.T) {
	c := NewClock()
	if c.Step() {
		t.Fatal("Step() on empty queue returned true")
	}
}

func TestPending(t *testing.T) {
	c := NewClock()
	for i := 0; i < 5; i++ {
		c.Schedule(time.Duration(i)*time.Second, "x", func(*Clock) {})
	}
	if c.Pending() != 5 {
		t.Fatalf("Pending() = %d, want 5", c.Pending())
	}
	c.Step()
	if c.Pending() != 4 {
		t.Fatalf("Pending() = %d after Step, want 4", c.Pending())
	}
}

// Property: regardless of insertion order, events fire in non-decreasing time
// order and the clock never moves backwards.
func TestPropertyEventOrdering(t *testing.T) {
	f := func(offsets []uint16) bool {
		c := NewClock()
		for _, o := range offsets {
			c.Schedule(time.Duration(o)*time.Millisecond, "e", func(*Clock) {})
		}
		last := time.Duration(-1)
		for c.Step() {
			if c.Now() < last {
				return false
			}
			last = c.Now()
		}
		return c.Pending() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRandDeterministic(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

// TestMixStable pins the seed mixer: fault-plan children, head-sampling
// decisions and probe phases are all drawn through it, so these values
// must never change across refactors. Child seeds Mix(base + γ·i) differ
// per index and per base, and Rand's stream is Mix at successive γ steps.
func TestMixStable(t *testing.T) {
	const gamma = 0x9e3779b97f4a7c15
	for _, c := range []struct{ base, i, want uint64 }{
		{42, 0, 0xbdd732262feb6e95},
		{42, 1, 0x28efe333b266f103},
		{42, 999, 0x66091ca85313fa68},
		{1, 7, 0x85e7bb0f12278575},
		{2, 7, 0xbd34d3aef603e583},
		{0, 0, 0xe220a8397b1dcdaf},
	} {
		if got := Mix(c.base + gamma*c.i); got != c.want {
			t.Errorf("Mix(%d + γ·%d) = %#x, want %#x", c.base, c.i, got, c.want)
		}
	}
	seen := map[uint64]uint64{}
	for i := uint64(0); i < 1000; i++ {
		s := Mix(42 + gamma*i)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision between index %d and %d", prev, i)
		}
		seen[s] = i
	}
	r := NewRand(42)
	for i := uint64(0); i < 3; i++ {
		if got, want := r.Uint64(), Mix(42+gamma*i); got != want {
			t.Fatalf("Rand draw %d = %#x, want Mix step %#x", i, got, want)
		}
	}
}

func TestRandDifferentSeeds(t *testing.T) {
	a, b := NewRand(1), NewRand(2)
	same := 0
	for i := 0; i < 64; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds collided %d/64 times", same)
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64() = %v out of [0,1)", f)
		}
	}
}

func TestRandIntnRange(t *testing.T) {
	r := NewRand(9)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn(10) = %d", v)
		}
	}
}

func TestRandIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRand(1).Intn(0)
}

func TestRandNormalMoments(t *testing.T) {
	r := NewRand(11)
	const n = 50000
	var sum, sumsq float64
	for i := 0; i < n; i++ {
		v := r.Normal(10, 2)
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < 9.9 || mean > 10.1 {
		t.Fatalf("mean = %v, want ~10", mean)
	}
	if variance < 3.6 || variance > 4.4 {
		t.Fatalf("variance = %v, want ~4", variance)
	}
}

func TestRandJitterBounds(t *testing.T) {
	r := NewRand(13)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.1)
		if v < 90 || v > 110 {
			t.Fatalf("Jitter(100, 0.1) = %v out of [90,110]", v)
		}
	}
}
