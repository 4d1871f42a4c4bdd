package sched

import (
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/par"
)

// costNode is a shorthand for a fixed-duration node.
func costNode(g *Graph, name string, cost time.Duration) *Node {
	return g.Add(&Node{Name: name, Cost: cost})
}

func TestDiamondDAG(t *testing.T) {
	// a → (b, c) → d. b and c are independent and must overlap; the
	// makespan is a + max(b, c) + d, not the serial sum.
	g := NewGraph()
	a := costNode(g, "a", 4*time.Second)
	b := costNode(g, "b", 10*time.Second)
	c := costNode(g, "c", 6*time.Second)
	d := costNode(g, "d", 2*time.Second)
	g.Dep(b, a)
	g.Dep(c, a)
	g.Dep(d, b)
	g.Dep(d, c)

	s, err := Execute(g, Limits{}, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if want := 16 * time.Second; s.Makespan != want {
		t.Fatalf("makespan = %v, want %v", s.Makespan, want)
	}
	if rb, rc := s.Result(b), s.Result(c); rb.Start != rc.Start {
		t.Fatalf("b and c should start together, got %v and %v", rb.Start, rc.Start)
	}
	if rd := s.Result(d); rd.Start != 14*time.Second {
		t.Fatalf("d starts at %v, want 14s (after the slower of b/c)", rd.Start)
	}

	// The same diamond under Serial limits is the plain sum.
	g2 := NewGraph()
	a2 := costNode(g2, "a", 4*time.Second)
	b2 := costNode(g2, "b", 10*time.Second)
	c2 := costNode(g2, "c", 6*time.Second)
	d2 := costNode(g2, "d", 2*time.Second)
	g2.Dep(b2, a2)
	g2.Dep(c2, a2)
	g2.Dep(d2, b2)
	g2.Dep(d2, c2)
	s2, err := Execute(g2, Serial(), Options{})
	if err != nil {
		t.Fatalf("Execute serial: %v", err)
	}
	if want := 22 * time.Second; s2.Makespan != want {
		t.Fatalf("serial makespan = %v, want %v", s2.Makespan, want)
	}
}

func TestHostExclusivity(t *testing.T) {
	// Two migrations sharing a destination host must serialize even
	// with unlimited counting capacity.
	g := NewGraph()
	m1 := g.Add(&Node{Name: "m1", Hosts: []string{"src1", "dst"}, Cost: 5 * time.Second})
	m2 := g.Add(&Node{Name: "m2", Hosts: []string{"src2", "dst"}, Cost: 5 * time.Second})
	_ = m1
	_ = m2
	s, err := Execute(g, Limits{}, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if want := 10 * time.Second; s.Makespan != want {
		t.Fatalf("makespan = %v, want %v (shared host must serialize)", s.Makespan, want)
	}
}

func TestCapacityLimits(t *testing.T) {
	// Four kexecs under MaxKexecs=2 take two waves.
	g := NewGraph()
	for i := 0; i < 4; i++ {
		g.Add(&Node{Name: fmt.Sprintf("kexec-%d", i), Hosts: []string{fmt.Sprintf("h%d", i)}, Kexecs: 1, Cost: 8 * time.Second})
	}
	s, err := Execute(g, Limits{MaxKexecs: 2}, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if want := 16 * time.Second; s.Makespan != want {
		t.Fatalf("makespan = %v, want %v (two waves of two kexecs)", s.Makespan, want)
	}
}

func TestCapacityStarvedPlan(t *testing.T) {
	// A node demanding two streams on a one-stream fabric can never be
	// admitted: Execute must fail with ErrStarved + the invariant
	// class, not hang or silently drop the node.
	g := NewGraph()
	g.Add(&Node{Name: "wide-migrate", Streams: 2, Cost: time.Second})
	_, err := Execute(g, Limits{LinkStreams: 1}, Options{})
	if err == nil {
		t.Fatal("Execute succeeded on a starved plan")
	}
	if !errors.Is(err, ErrStarved) {
		t.Fatalf("err = %v, want ErrStarved", err)
	}
	if !errors.Is(err, hterr.ErrInvariantViolated) {
		t.Fatalf("err = %v, want invariant-violated class", err)
	}

	// A dependency cycle is the other starvation shape.
	g2 := NewGraph()
	a := costNode(g2, "a", time.Second)
	b := costNode(g2, "b", time.Second)
	g2.Dep(a, b)
	g2.Dep(b, a)
	_, err = Execute(g2, Limits{}, Options{})
	if !errors.Is(err, ErrStarved) {
		t.Fatalf("cycle: err = %v, want ErrStarved", err)
	}
}

func TestDepFailurePoisonsDependents(t *testing.T) {
	g := NewGraph()
	boom := errors.New("boom")
	a := g.Add(&Node{Name: "a", Run: func(start time.Duration) (time.Duration, error) {
		return time.Second, boom
	}})
	var bErr error
	b := g.Add(&Node{Name: "b", Cost: time.Second, Commit: func(end time.Duration, err error) { bErr = err }})
	c := costNode(g, "c", time.Second) // independent, must still run
	g.Dep(b, a)

	s, err := Execute(g, Limits{}, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if s.Failed != 1 || s.Skipped != 1 {
		t.Fatalf("failed/skipped = %d/%d, want 1/1", s.Failed, s.Skipped)
	}
	if !errors.Is(bErr, ErrDepFailed) || !strings.Contains(bErr.Error(), "boom") {
		t.Fatalf("b's commit error = %v, want ErrDepFailed wrapping boom", bErr)
	}
	if rc := s.Result(c); rc.Err != nil {
		t.Fatalf("independent node c failed: %v", rc.Err)
	}
}

func TestReplanMidSchedule(t *testing.T) {
	// A quarantined host mid-schedule: the transplant of h1 fails, and
	// OnFail replans its VMs as two drain migrations to h2 — which must
	// be admitted and extend the makespan, while h1's follow-up node is
	// skipped.
	g := NewGraph()
	boom := errors.New("host fault")
	tp := g.Add(&Node{Name: "transplant:h1", Hosts: []string{"h1"}, Kexecs: 1,
		Run: func(start time.Duration) (time.Duration, error) { return 4 * time.Second, boom }})
	follow := g.Add(&Node{Name: "verify:h1", Hosts: []string{"h1"}, Cost: time.Second})
	g.Dep(follow, tp)

	var drained []string
	opts := Options{OnFail: func(n *Node, err error) bool {
		if n != tp {
			t.Fatalf("OnFail for unexpected node %s", n.Name)
		}
		for i := 0; i < 2; i++ {
			vm := fmt.Sprintf("drain:vm-%d", i)
			g.Add(&Node{Name: vm, Hosts: []string{"h2"}, Streams: 1, Cost: 3 * time.Second,
				Commit: func(end time.Duration, err error) {
					if err == nil {
						drained = append(drained, vm)
					}
				}})
		}
		return false
	}}

	s, err := Execute(g, Limits{LinkStreams: 1}, opts)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if len(drained) != 2 {
		t.Fatalf("drained = %v, want both replanned migrations to run", drained)
	}
	// 4s failed transplant, then two 3s drains serialized on one stream
	// (same host h2 anyway).
	if want := 10 * time.Second; s.Makespan != want {
		t.Fatalf("makespan = %v, want %v", s.Makespan, want)
	}
	if rf := s.Result(follow); !errors.Is(rf.Err, ErrDepFailed) {
		t.Fatalf("follow-up on quarantined host: err = %v, want ErrDepFailed", rf.Err)
	}
}

func TestOnFailStop(t *testing.T) {
	g := NewGraph()
	boom := errors.New("vm lost")
	g.Add(&Node{Name: "a", Hosts: []string{"h1"},
		Run: func(start time.Duration) (time.Duration, error) { return time.Second, boom }})
	late := g.Add(&Node{Name: "late", Hosts: []string{"h2"}, Cost: time.Second})

	s, err := Execute(g, Serial(), Options{OnFail: func(n *Node, err error) bool {
		return true
	}})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if rl := s.Result(late); !errors.Is(rl.Err, ErrDepFailed) {
		t.Fatalf("node after stop: err = %v, want ErrDepFailed skip", rl.Err)
	}
}

func TestPrepareCommitSequential(t *testing.T) {
	// Prepare and Commit are the sequential phases: they must never
	// overlap each other even when Run bodies race on the pool. A
	// shared counter with no locking detects violations under -race.
	const nodes = 32
	g := NewGraph()
	seq := 0
	var order []string
	for i := 0; i < nodes; i++ {
		name := fmt.Sprintf("n-%02d", i)
		g.Add(&Node{
			Name:    name,
			Hosts:   []string{name},
			Cost:    time.Duration(1+i%3) * time.Second,
			Prepare: func(start time.Duration) { seq++ },
			Commit: func(end time.Duration, err error) {
				seq++
				order = append(order, name)
			},
		})
	}
	s, err := Execute(g, Limits{}, Options{})
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if seq != 2*nodes {
		t.Fatalf("sequential phases ran %d times, want %d", seq, 2*nodes)
	}
	if len(order) != nodes || len(s.Results) != nodes {
		t.Fatalf("commit order has %d entries, want %d", len(order), nodes)
	}
}

func TestDeterministicAcrossWorkers(t *testing.T) {
	// The full observable schedule — completion order, starts, ends,
	// makespan — must be identical for any pool width, including Run
	// bodies that take different wall time.
	build := func() (*Graph, *[]string) {
		g := NewGraph()
		var log []string
		var mu sync.Mutex
		for i := 0; i < 24; i++ {
			i := i
			name := fmt.Sprintf("op-%02d", i)
			n := g.Add(&Node{
				Name:    name,
				Hosts:   []string{fmt.Sprintf("h%d", i%8)},
				Kexecs:  i % 2,
				Streams: (i + 1) % 2,
				Run: func(start time.Duration) (time.Duration, error) {
					// Uneven wall-clock work; virtual cost is pure.
					x := 0
					for j := 0; j < (i%5)*10000; j++ {
						x += j
					}
					_ = x
					return time.Duration(1+i%7) * time.Second, nil
				},
				Commit: func(end time.Duration, err error) {
					mu.Lock()
					log = append(log, fmt.Sprintf("%s@%v", name, end))
					mu.Unlock()
				},
			})
			if i >= 8 {
				g.Dep(n, g.nodes[i-8])
			}
		}
		return g, &log
	}

	run := func(workers int) (time.Duration, []string) {
		old := par.Workers()
		par.SetWorkers(workers)
		defer par.SetWorkers(old)
		g, log := build()
		s, err := Execute(g, Limits{MaxKexecs: 2, LinkStreams: 3}, Options{})
		if err != nil {
			t.Fatalf("Execute(workers=%d): %v", workers, err)
		}
		return s.Makespan, *log
	}

	m1, l1 := run(1)
	m8, l8 := run(8)
	if m1 != m8 {
		t.Fatalf("makespan differs: workers=1 %v, workers=8 %v", m1, m8)
	}
	if fmt.Sprint(l1) != fmt.Sprint(l8) {
		t.Fatalf("commit log differs across workers:\n 1: %v\n 8: %v", l1, l8)
	}
}

func TestQueueDelayMetrics(t *testing.T) {
	// Four kexecs under MaxKexecs=2: the first wave admits with zero
	// delay, the second waits a full 8s wave. The queue-delay histogram
	// sees all four admissions; starvation sees only the delayed two.
	build := func() *Graph {
		g := NewGraph()
		for i := 0; i < 4; i++ {
			g.Add(&Node{Name: fmt.Sprintf("kexec-%d", i), Hosts: []string{fmt.Sprintf("h%d", i)}, Kexecs: 1, Cost: 8 * time.Second})
		}
		return g
	}
	reg := obs.NewRegistry()
	if _, err := Execute(build(), Limits{MaxKexecs: 2}, Options{Metrics: reg}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	qd := reg.Histogram("sched.queue_delay.kexec", "ns", nil)
	if qd.Count() != 4 {
		t.Fatalf("queue_delay.kexec count = %d, want 4", qd.Count())
	}
	if s, want := qd.Summary(), float64((16 * time.Second).Nanoseconds()); s.Mean*float64(s.Count) != want {
		t.Fatalf("queue_delay.kexec sum = %g ns, want %g (two 8s waits)", s.Mean*float64(s.Count), want)
	}
	sv := reg.Histogram("sched.starvation.kexec", "ns", nil)
	if sv.Count() != 2 {
		t.Fatalf("starvation.kexec count = %d, want 2", sv.Count())
	}
	if reg.Histogram("sched.queue_delay.host", "ns", nil).Count() != 0 {
		t.Fatal("kexec nodes must not be attributed to the host resource")
	}

	// A node with no counted demands lands in the host histogram.
	g := NewGraph()
	g.Add(&Node{Name: "m1", Hosts: []string{"src", "dst"}, Cost: time.Second})
	g.Add(&Node{Name: "m2", Hosts: []string{"dst", "other"}, Cost: time.Second})
	reg2 := obs.NewRegistry()
	if _, err := Execute(g, Limits{}, Options{Metrics: reg2}); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	hd := reg2.Histogram("sched.queue_delay.host", "ns", nil)
	if hd.Count() != 2 {
		t.Fatalf("queue_delay.host count = %d, want 2", hd.Count())
	}
	if reg2.Histogram("sched.starvation.host", "ns", nil).Count() != 1 {
		t.Fatal("host-blocked second migration should register one starvation sample")
	}

	// The metrics JSON of the scheduling histograms is identical across
	// worker-pool widths (the determinism contract extends to metrics).
	render := func(workers int) string {
		old := par.Workers()
		par.SetWorkers(workers)
		defer par.SetWorkers(old)
		reg := obs.NewRegistry()
		g := build()
		for _, n := range g.nodes {
			n.Run = func(start time.Duration) (time.Duration, error) { return 8 * time.Second, nil }
		}
		if _, err := Execute(g, Limits{MaxKexecs: 2}, Options{Metrics: reg}); err != nil {
			t.Fatalf("Execute(workers=%d): %v", workers, err)
		}
		var b strings.Builder
		if err := reg.WriteMetricsJSON(&b); err != nil {
			t.Fatalf("WriteMetricsJSON: %v", err)
		}
		return b.String()
	}
	if a, b := render(1), render(8); a != b {
		t.Fatalf("scheduling metrics differ across workers:\n%s\n---\n%s", a, b)
	}
}
