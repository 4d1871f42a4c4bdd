// Package sched is the dependency-aware concurrent fleet scheduler: the
// datacenter-scale execution layer the paper's §6 end-game needs. A
// fleet response (transplant every vulnerable host, evacuate what cannot
// transplant in place, migrate the rest) is modeled as a DAG of
// host-level operations with capacity constraints — migration streams
// on the shared fabric and a bound on simultaneous kexec micro-reboots —
// and executed as a discrete-event list schedule on a shared virtual
// timeline.
//
// The scheduler separates the two kinds of parallelism the same way the
// rest of the stack does (see internal/par):
//
//   - Virtual-time parallelism is the schedule itself: ready nodes whose
//     resources are free start at the same virtual instant, and the
//     makespan is the merged per-host timeline (a min-heap of completion
//     events on a simtime.Clock, the same structure as
//     hw.ParallelElapsedVaried).
//   - Wall-clock parallelism executes each admitted batch's Run bodies
//     on the internal/par worker pool. Run bodies must be independent —
//     host-exclusive by construction (every node claims its hosts) and
//     free of shared mutable state; everything order-dependent goes in
//     the sequential Prepare (admission) and Commit (completion) hooks.
//     A Run body never opens a pool of its own: this batch is the
//     outermost fan-out.
//
// Determinism contract: admission order is node-ID order, completion
// order is (virtual finish time, admission sequence) order, and batch
// results are collected by index via par.Map — so the schedule, every
// Commit's observation order, and the makespan are byte-identical for
// any worker-pool size.
package sched

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/par"
	"hypertp/internal/simtime"
)

// ErrDepFailed marks a node skipped because one of its dependencies
// failed (or was itself skipped). The node's Commit hook still runs so
// callers can record the degradation.
var ErrDepFailed = errors.New("sched: dependency failed")

// ErrStarved is returned by Execute when pending nodes can never be
// admitted: the graph has a cycle, or a node demands more capacity than
// the limits provide (e.g. two streams on a one-stream fabric).
var ErrStarved = errors.New("sched: schedule starved")

// Node is one host-level operation in the response DAG.
type Node struct {
	// ID is assigned by Graph.Add and orders admission among
	// simultaneously-ready nodes.
	ID int
	// Name labels the node in schedules, errors and spans.
	Name string

	// Hosts are the unit resources the node occupies exclusively while
	// running: a transplant claims its host, a migration claims both
	// endpoints. Host exclusivity is what makes Run bodies data-race
	// free without locks.
	Hosts []string
	// Kexecs and Streams are counted demands against Limits.MaxKexecs
	// and Limits.LinkStreams.
	Kexecs  int
	Streams int

	// Cost is the node's virtual duration when Run is nil (cost-mode
	// scheduling, used by the clock-less cluster planner).
	Cost time.Duration
	// Run executes the operation and returns its virtual duration. It
	// is called on the par pool (or inline under Limits.Serial) with
	// the node's virtual start time; it must not touch state shared
	// with other concurrently-runnable nodes.
	Run func(start time.Duration) (time.Duration, error)
	// Prepare runs sequentially at admission time (deterministic
	// order), before the batch is dispatched: the place to snapshot
	// shared state into the Run closure or arm shared fault plans.
	Prepare func(start time.Duration)
	// Commit runs sequentially at completion time with the node's
	// virtual end and its error (nil, a Run error, or ErrDepFailed):
	// the place to apply bookkeeping, emit spans, and mutate shared
	// state for later nodes to observe.
	Commit func(end time.Duration, err error)

	deps  []*Node
	state nodeState
	start time.Duration
	err   error

	// readyAt is the virtual time the node first became ready (all deps
	// done, none failed); admission latency is measured from here.
	readyAt  time.Duration
	readySet bool
}

type nodeState uint8

const (
	statePending nodeState = iota
	stateRunning
	stateDone
)

// Graph is a DAG of nodes under construction. The zero value is ready to
// use.
type Graph struct {
	nodes []*Node
}

// NewGraph returns an empty graph.
func NewGraph() *Graph { return &Graph{} }

// Add registers the node, assigns its ID, and returns it.
func (g *Graph) Add(n *Node) *Node {
	n.ID = len(g.nodes)
	g.nodes = append(g.nodes, n)
	return n
}

// Dep records that n runs only after dep completes successfully.
func (g *Graph) Dep(n, dep *Node) {
	if n == dep || dep == nil || n == nil {
		return
	}
	n.deps = append(n.deps, dep)
}

// Len returns the number of nodes added so far.
func (g *Graph) Len() int { return len(g.nodes) }

// Start returns the node's virtual start time; valid once the node has
// been admitted (inside Run, Commit, or after Execute).
func (n *Node) Start() time.Duration { return n.start }

// Limits are the capacity constraints a schedule runs under. Zero-valued
// counts mean "unlimited"; Serial admits one node at a time globally and
// executes it inline on the caller's goroutine (the sequential-baseline
// mode — byte-compatible with a plain loop over the nodes).
type Limits struct {
	// MaxKexecs bounds simultaneous in-place transplants: every kexec
	// micro-reboot monopolizes a host's cores and the fleet usually
	// caps how many hosts reboot at once.
	MaxKexecs int
	// LinkStreams bounds concurrent migration streams on the shared
	// fabric (per-link bandwidth admission).
	LinkStreams int
	// Serial disables all concurrency: one node at a time, in ID
	// order, run inline.
	Serial bool
}

// Serial returns the sequential-baseline limits.
func Serial() Limits { return Limits{Serial: true} }

// NodeResult is one node's slot in the finished schedule.
type NodeResult struct {
	Node  *Node
	Start time.Duration
	End   time.Duration
	// Err is nil on success, the Run error on failure, or wraps
	// ErrDepFailed when the node was skipped.
	Err error
}

// Schedule is the outcome of Execute.
type Schedule struct {
	// Makespan is the virtual time from schedule start to the last
	// completion.
	Makespan time.Duration
	// Results holds one entry per node in completion order (the
	// deterministic event order).
	Results []NodeResult
	// Failed counts nodes that ran and returned an error; Skipped
	// counts nodes dropped because a dependency failed.
	Failed  int
	Skipped int
}

// Result returns the slot for the given node, or nil.
func (s *Schedule) Result(n *Node) *NodeResult {
	for i := range s.Results {
		if s.Results[i].Node == n {
			return &s.Results[i]
		}
	}
	return nil
}

// Options tune one Execute call.
type Options struct {
	// OnFail, when non-nil, is called sequentially when a node's Run
	// errors (not for ErrDepFailed skips). Replanning mid-schedule is
	// done by calling Graph.Add/Dep from OnFail or from any Commit hook
	// — added nodes join the pending set immediately. Returning
	// stop=true skips every node that has not started yet (the
	// unrecoverable-loss case).
	OnFail func(n *Node, err error) (stop bool)
	// Metrics, when non-nil, receives per-resource admission-latency
	// histograms: sched.queue_delay.<res> observes every admitted
	// node's ready-to-start delay against each resource it demands
	// (kexec, stream; host when it demands none of the counted
	// kinds), and sched.starvation.<res> observes only the delayed
	// admissions — the contention tail. Observations happen in the
	// sequential admission path, so the histograms are deterministic.
	Metrics *obs.Registry
}

// queueBuckets spans 1ms..~4.7h of virtual admission delay.
var queueBuckets = obs.ExpBuckets(1e6, 4, 12)

// observeAdmission records n's ready-to-start delay per demanded
// resource. Nil registries no-op (obs convention).
func observeAdmission(m *obs.Registry, n *Node, delay time.Duration) {
	if m == nil {
		return
	}
	observe := func(res string) {
		m.Histogram("sched.queue_delay."+res, "ns", queueBuckets).
			Observe(float64(delay.Nanoseconds()))
		if delay > 0 {
			m.Histogram("sched.starvation."+res, "ns", queueBuckets).
				Observe(float64(delay.Nanoseconds()))
		}
	}
	if n.Kexecs > 0 {
		observe("kexec")
	}
	if n.Streams > 0 {
		observe("stream")
	}
	if n.Kexecs == 0 && n.Streams == 0 {
		observe("host")
	}
}

// Execute runs the graph to completion under the limits and returns the
// schedule. The returned error is non-nil only for structural failures
// (starvation, cycles); per-node errors land in the schedule results.
func Execute(g *Graph, limits Limits, opts Options) (*Schedule, error) {
	s := &Schedule{}
	clock := simtime.NewClock()
	stopped := false

	for _, n := range g.nodes {
		n.state = statePending
		n.err = nil
		n.readySet = false
	}

	running := 0
	usedKexecs, usedStreams := 0, 0
	busyHosts := make(map[string]bool)

	fits := func(n *Node) bool {
		if limits.Serial && running > 0 {
			return false
		}
		if limits.MaxKexecs > 0 && usedKexecs+n.Kexecs > limits.MaxKexecs {
			return false
		}
		if limits.LinkStreams > 0 && usedStreams+n.Streams > limits.LinkStreams {
			return false
		}
		for _, h := range n.Hosts {
			if busyHosts[h] {
				return false
			}
		}
		return true
	}
	claim := func(n *Node) {
		usedKexecs += n.Kexecs
		usedStreams += n.Streams
		for _, h := range n.Hosts {
			busyHosts[h] = true
		}
		running++
	}
	release := func(n *Node) {
		usedKexecs -= n.Kexecs
		usedStreams -= n.Streams
		for _, h := range n.Hosts {
			delete(busyHosts, h)
		}
		running--
	}

	// impossible reports a node that could never be admitted even on an
	// idle fleet — the starvation (not contention) case.
	impossible := func(n *Node) bool {
		return (limits.MaxKexecs > 0 && n.Kexecs > limits.MaxKexecs) ||
			(limits.LinkStreams > 0 && n.Streams > limits.LinkStreams)
	}

	// depsDone reports all deps finished; depErr returns the first
	// failed dep's error. Readiness is recomputed by scanning (not
	// counted incrementally) so Commit/OnFail hooks can add replan
	// nodes and deps mid-schedule without bookkeeping hazards.
	depsDone := func(n *Node) bool {
		for _, d := range n.deps {
			if d.state != stateDone {
				return false
			}
		}
		return true
	}
	depErr := func(n *Node) error {
		for _, d := range n.deps {
			if d.err != nil {
				return d.err
			}
		}
		return nil
	}

	finish := func(n *Node, end time.Duration, err error) {
		n.state = stateDone
		n.err = err
		s.Results = append(s.Results, NodeResult{Node: n, Start: n.start, End: end, Err: err})
		if err != nil {
			if errors.Is(err, ErrDepFailed) {
				s.Skipped++
			} else {
				s.Failed++
			}
		}
		if n.Commit != nil {
			n.Commit(end, err)
		}
		if err != nil && !errors.Is(err, ErrDepFailed) && opts.OnFail != nil {
			if opts.OnFail(n, err) {
				stopped = true
			}
		}
	}

	for {
		// Skip poisoned ready nodes first: their Commit runs at the
		// current virtual time with ErrDepFailed.
		for progressed := true; progressed; {
			progressed = false
			for i := 0; i < len(g.nodes); i++ {
				n := g.nodes[i]
				if n.state != statePending || !depsDone(n) {
					continue
				}
				ferr := depErr(n)
				if ferr == nil && !stopped {
					continue
				}
				if ferr == nil {
					ferr = errors.New("schedule stopped")
				}
				n.state = stateRunning
				n.start = clock.Now()
				finish(n, clock.Now(), fmt.Errorf("%w: %s: %v", ErrDepFailed, n.Name, ferr))
				progressed = true
			}
		}

		// Admit ready nodes in ID order while capacity lasts.
		var batch []*Node
		for _, n := range g.nodes {
			if n.state != statePending || !depsDone(n) || depErr(n) != nil || stopped {
				continue
			}
			if !n.readySet {
				n.readyAt = clock.Now()
				n.readySet = true
			}
			if !fits(n) {
				if limits.Serial && len(batch) > 0 {
					break
				}
				continue
			}
			claim(n)
			n.state = stateRunning
			n.start = clock.Now()
			observeAdmission(opts.Metrics, n, n.start-n.readyAt)
			if n.Prepare != nil {
				n.Prepare(n.start)
			}
			batch = append(batch, n)
			if limits.Serial {
				break
			}
		}

		if len(batch) > 0 {
			outs := make([]outcome, len(batch))
			if limits.Serial || len(batch) == 1 {
				for i, n := range batch {
					outs[i] = runNode(n)
				}
			} else {
				res, _ := par.Map(batch, func(i int, n *Node) (outcome, error) {
					return runNode(n), nil
				})
				copy(outs, res)
			}
			for i, n := range batch {
				n := n
				out := outs[i]
				end := n.start + out.dur
				clock.Schedule(end, n.Name, func(c *simtime.Clock) {
					release(n)
					finish(n, end, out.err)
				})
			}
			continue
		}

		if clock.Pending() > 0 {
			clock.Step()
			continue
		}

		// Nothing running, nothing admissible: done or starved.
		remaining := 0
		var stuck []string
		for _, n := range g.nodes {
			if n.state == statePending {
				remaining++
				if depsDone(n) {
					stuck = append(stuck, n.Name)
				}
			}
		}
		if remaining == 0 {
			break
		}
		for _, n := range g.nodes {
			if n.state == statePending && depsDone(n) && impossible(n) {
				return nil, hterr.InvariantViolated(fmt.Errorf("%w: node %q demands more capacity than the limits provide", ErrStarved, n.Name))
			}
		}
		sort.Strings(stuck)
		return nil, hterr.InvariantViolated(fmt.Errorf("%w: %d nodes unreachable (cycle or unsatisfiable deps; ready-but-stuck: %v)", ErrStarved, remaining, stuck))
	}

	s.Makespan = clock.Now()
	return s, nil
}

// outcome is one node body's virtual duration and error.
type outcome struct {
	dur time.Duration
	err error
}

// runNode executes one node body: Run when present, otherwise the
// cost-mode fixed duration.
func runNode(n *Node) (out outcome) {
	if n.Run == nil {
		out.dur = n.Cost
		return out
	}
	out.dur, out.err = n.Run(n.start)
	if out.dur < 0 {
		out.dur = 0
	}
	return out
}
