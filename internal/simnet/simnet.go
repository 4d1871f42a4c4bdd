// Package simnet models the datacenter network used by MigrationTP and by
// the cluster experiments: point-to-point links with a fixed line rate,
// propagation latency, and fair bandwidth sharing among concurrent
// transfers.
//
// The model is analytic rather than packet-level: a Link tracks the set of
// in-flight transfers and, whenever that set changes, recomputes each
// transfer's completion time assuming the line rate is split equally among
// them (max-min fair sharing, which is what long-lived TCP migration streams
// converge to in practice). This is the property that matters for the
// paper's Figure 9: total migration time is bandwidth-bound and grows
// linearly with the bytes moved, while concurrent migrations share the pipe.
package simnet

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/obs"
	"hypertp/internal/simtime"
)

// Common link speeds used in the paper's testbeds.
const (
	Gbps1  = 1_000_000_000 / 8  // bytes per second on the M1<->M1 1 Gbps link
	Gbps10 = 10_000_000_000 / 8 // bytes per second on the cluster's 10 Gbps fabric
)

// ErrTransferAborted is reported to completion callbacks when a transfer is
// cancelled before finishing.
var ErrTransferAborted = errors.New("simnet: transfer aborted")

// ErrTransferSevered is delivered when an injected link fault (the
// fault.SiteLinkAbort site) cuts a transfer mid-flight. It unwraps to
// ErrTransferAborted — callers that only distinguish "aborted" keep
// working — and is additionally classified retryable and injected, so
// the migration retry loop can route on errors.Is.
var ErrTransferSevered = hterr.Retryable(hterr.Injected(ErrTransferAborted))

// Link is a shared-medium network link. All transfers on the link divide its
// line rate equally.
type Link struct {
	name     string
	byteRate float64 // bytes per second of usable line rate
	latency  time.Duration
	clock    *simtime.Clock
	// active holds the in-flight transfers ordered by (started, name,
	// start sequence): every walk of it, and so every tie between
	// transfers, resolves the same way on every run.
	active     []*Transfer
	lastUpdate time.Duration
	rec        *obs.Recorder
	faults     *fault.Plan
	down       bool
}

// Transfer is one in-flight bulk transfer (e.g. a migration stream).
type Transfer struct {
	link      *Link
	name      string
	remaining float64 // bytes still to move
	started   time.Duration
	done      func(err error)
	finished  bool
	event     *simtime.Event
	sever     *simtime.Event
	span      *obs.Span
}

// NewLink creates a link with the given usable byte rate and one-way latency.
func NewLink(clock *simtime.Clock, name string, byteRate int64, latency time.Duration) *Link {
	if byteRate <= 0 {
		panic(fmt.Sprintf("simnet: NewLink(%q): byteRate must be positive", name))
	}
	return &Link{
		name:     name,
		byteRate: float64(byteRate),
		latency:  latency,
		clock:    clock,
	}
}

// SetRecorder attaches an observability recorder: every transfer gets a
// detached span on the "simnet" track plus transfer/byte counters and a
// virtual-duration histogram. A nil recorder detaches.
func (l *Link) SetRecorder(rec *obs.Recorder) { l.rec = rec }

// SetFaults attaches a fault plan. Every Start then arms two sites:
// fault.SiteLinkLoss (retransmissions inflate the bytes the transfer
// must move, slowing it without killing it) and fault.SiteLinkAbort
// (the transfer is severed mid-flight with ErrTransferSevered). A nil
// plan detaches.
func (l *Link) SetFaults(p *fault.Plan) { l.faults = p }

// Down reports whether the link is administratively severed.
func (l *Link) Down() bool { return l.down }

// SetDown severs or restores the link. Severing aborts every in-flight
// transfer with ErrTransferSevered; while the link stays down, new
// transfers fail the same way after one propagation latency (the time a
// real stream takes to notice the dead peer). Restoring brings the link
// back for subsequent transfers — nothing resumes automatically, which
// matches TCP streams: a severed migration must be retried end to end.
func (l *Link) SetDown(down bool) {
	if l.down == down {
		return
	}
	l.down = down
	if down {
		for _, tr := range slices.Clone(l.active) {
			l.abortWith(tr, ErrTransferSevered)
		}
	}
}

// Name returns the link's label.
func (l *Link) Name() string { return l.name }

// ByteRate returns the link's usable line rate in bytes per second.
func (l *Link) ByteRate() int64 { return int64(l.byteRate) }

// Latency returns the link's one-way propagation latency.
func (l *Link) Latency() time.Duration { return l.latency }

// ActiveTransfers reports the number of in-flight transfers.
func (l *Link) ActiveTransfers() int { return len(l.active) }

// Start begins moving size bytes across the link. done is invoked (with a
// nil error) at the virtual time the last byte lands, or with
// ErrTransferAborted if the transfer is cancelled. done may be nil.
func (l *Link) Start(name string, size int64, done func(err error)) *Transfer {
	if size < 0 {
		panic(fmt.Sprintf("simnet: transfer %q: negative size %d", name, size))
	}
	if l.down {
		// The peer is unreachable: the stream dies after one latency,
		// without ever contending for bandwidth.
		tr := &Transfer{link: l, name: name, started: l.clock.Now(),
			done: done, finished: true}
		if l.rec != nil {
			l.rec.Metrics().Counter("simnet.refused", "transfers").Add(1)
		}
		l.clock.After(l.latency, "simnet:down:"+name, func(*simtime.Clock) {
			if tr.done != nil {
				tr.done(ErrTransferSevered)
			}
		})
		return tr
	}
	l.settle()
	tr := &Transfer{
		link:      l,
		name:      name,
		remaining: float64(size),
		started:   l.clock.Now(),
		done:      done,
	}
	l.insert(tr)
	if l.rec != nil {
		tr.span = l.rec.StartDetached("xfer:"+name,
			obs.A("link", l.name), obs.A("bytes", size))
		tr.span.SetTrack("simnet")
	}
	if fired, sev := l.faults.Arm(fault.SiteLinkLoss); fired {
		// Retransmissions inflate the bytes to move by up to 50%,
		// scaled by the deterministic severity sample.
		tr.remaining *= 1 + 0.5*sev
		if tr.span != nil {
			tr.span.SetAttr("lossy", true)
		}
	}
	if fired, sev := l.faults.Arm(fault.SiteLinkAbort); fired && size > 0 {
		// Sever the stream partway through: between 10% and 90% of the
		// ideal (uncontended) transfer time, position set by severity.
		ideal := time.Duration(tr.remaining / l.byteRate * float64(time.Second))
		at := time.Duration(float64(ideal) * (0.1 + 0.8*sev))
		tr.sever = l.clock.After(at, "simnet:sever:"+name, func(*simtime.Clock) {
			tr.sever = nil
			l.abortWith(tr, ErrTransferSevered)
		})
	}
	l.reschedule()
	return tr
}

// TransferTime returns the time to move size bytes when the link is
// otherwise idle, including one latency hit. It does not start a transfer;
// it is the closed-form used by planners to estimate durations.
func (l *Link) TransferTime(size int64) time.Duration {
	return l.latency + time.Duration(float64(size)/l.byteRate*float64(time.Second))
}

// settle drains progress accrued since the last queue change: every active
// transfer has been moving at rate/n since lastUpdate.
func (l *Link) settle() {
	now := l.clock.Now()
	if now == l.lastUpdate || len(l.active) == 0 {
		l.lastUpdate = now
		return
	}
	elapsed := (now - l.lastUpdate).Seconds()
	share := l.byteRate / float64(len(l.active))
	for _, tr := range l.active {
		tr.remaining -= share * elapsed
		if tr.remaining < 0 {
			tr.remaining = 0
		}
	}
	l.lastUpdate = now
}

// insert adds a transfer started now to the active set. Nothing active
// started later, so it goes after every transfer started earlier or
// under a name that sorts no later than its own.
func (l *Link) insert(tr *Transfer) {
	i := len(l.active)
	for i > 0 && l.active[i-1].started == tr.started && l.active[i-1].name > tr.name {
		i--
	}
	l.active = slices.Insert(l.active, i, tr)
}

// remove drops a transfer from the active set.
func (l *Link) remove(tr *Transfer) {
	if i := slices.Index(l.active, tr); i >= 0 {
		l.active = slices.Delete(l.active, i, i+1)
	}
}

// reschedule recomputes the next completion event after the active set or
// the clock changed.
func (l *Link) reschedule() {
	for _, tr := range l.active {
		if tr.event != nil {
			l.clock.Cancel(tr.event)
			tr.event = nil
		}
	}
	if len(l.active) == 0 {
		return
	}
	// Find the transfer that finishes first under equal sharing; a tie
	// goes to the earliest in the active order.
	first := l.active[0]
	for _, tr := range l.active[1:] {
		if tr.remaining < first.remaining {
			first = tr
		}
	}
	share := l.byteRate / float64(len(l.active))
	dt := time.Duration(first.remaining / share * float64(time.Second))
	first.event = l.clock.After(dt, "simnet:"+first.name, func(*simtime.Clock) {
		l.complete(first)
	})
}

func (l *Link) complete(tr *Transfer) {
	l.settle()
	tr.finished = true
	tr.remaining = 0
	if tr.sever != nil {
		l.clock.Cancel(tr.sever)
		tr.sever = nil
	}
	l.remove(tr)
	l.reschedule()
	tr.span.End()
	if tr.done != nil {
		tr.done(nil)
	}
}

// Abort cancels an in-flight transfer. It is a no-op on finished transfers.
func (l *Link) Abort(tr *Transfer) { l.abortWith(tr, ErrTransferAborted) }

func (l *Link) abortWith(tr *Transfer, cause error) {
	if tr.finished {
		return
	}
	l.settle()
	if tr.event != nil {
		l.clock.Cancel(tr.event)
		tr.event = nil
	}
	if tr.sever != nil {
		l.clock.Cancel(tr.sever)
		tr.sever = nil
	}
	tr.finished = true
	l.remove(tr)
	l.reschedule()
	tr.span.SetAttr("aborted", true)
	tr.span.End()
	if tr.done != nil {
		tr.done(cause)
	}
}

// AbortAll severs every in-flight transfer — a link failure. Each
// transfer's done callback receives ErrTransferAborted.
//
// Only transfers in flight when AbortAll is called are severed: the
// active set is snapshotted first, so a done callback that Starts a
// replacement transfer (the migration retry loop does exactly this)
// neither gets its new transfer severed nor corrupts the iteration.
// The snapshot keeps the active order, so callback order is deterministic.
func (l *Link) AbortAll() {
	for _, tr := range slices.Clone(l.active) {
		l.Abort(tr) // no-op if a prior callback already finished it
	}
}

// Remaining returns the bytes the transfer still has to move, settling
// progress first.
func (l *Link) Remaining(tr *Transfer) int64 {
	l.settle()
	l.reschedule()
	return int64(tr.remaining + 0.5)
}

// Finished reports whether the transfer completed or was aborted.
func (tr *Transfer) Finished() bool { return tr.finished }
