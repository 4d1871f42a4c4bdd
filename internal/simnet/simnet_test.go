package simnet

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"hypertp/internal/fault"
	"hypertp/internal/hterr"
	"hypertp/internal/simtime"
)

const gb = int64(1) << 30

func TestSingleTransferTime(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var doneAt time.Duration
	l.Start("vm0", gb, func(err error) {
		if err != nil {
			t.Errorf("done err = %v", err)
		}
		doneAt = c.Now()
	})
	c.Run()
	// 1 GiB over 1 Gbps = 1073741824 / 125e6 = 8.59 s.
	want := time.Duration(float64(gb) / float64(Gbps1) * float64(time.Second))
	if diff := doneAt - want; diff < -time.Millisecond || diff > time.Millisecond {
		t.Fatalf("transfer finished at %v, want ~%v", doneAt, want)
	}
}

func TestTransferTimeClosedForm(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps10, 100*time.Microsecond)
	got := l.TransferTime(10 * gb)
	want := 100*time.Microsecond + time.Duration(float64(10*gb)/float64(Gbps10)*float64(time.Second))
	if got != want {
		t.Fatalf("TransferTime = %v, want %v", got, want)
	}
}

func TestConcurrentTransfersShareBandwidth(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var aDone, bDone time.Duration
	l.Start("a", gb, func(error) { aDone = c.Now() })
	l.Start("b", gb, func(error) { bDone = c.Now() })
	c.Run()
	solo := time.Duration(float64(gb) / float64(Gbps1) * float64(time.Second))
	// Two equal transfers sharing the link both finish at ~2x solo time.
	for _, d := range []time.Duration{aDone, bDone} {
		if diff := d - 2*solo; diff < -5*time.Millisecond || diff > 5*time.Millisecond {
			t.Fatalf("shared transfer finished at %v, want ~%v", d, 2*solo)
		}
	}
}

func TestUnevenTransfers(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var smallDone, bigDone time.Duration
	l.Start("small", gb, func(error) { smallDone = c.Now() })
	l.Start("big", 3*gb, func(error) { bigDone = c.Now() })
	c.Run()
	solo := float64(gb) / float64(Gbps1)
	// Shared phase: small needs 1 GB at half rate -> 2*solo. Then big has
	// 2 GB left at full rate -> 2*solo more. Total big = 4*solo.
	wantSmall := time.Duration(2 * solo * float64(time.Second))
	wantBig := time.Duration(4 * solo * float64(time.Second))
	if diff := smallDone - wantSmall; diff < -5*time.Millisecond || diff > 5*time.Millisecond {
		t.Fatalf("small finished at %v, want ~%v", smallDone, wantSmall)
	}
	if diff := bigDone - wantBig; diff < -5*time.Millisecond || diff > 5*time.Millisecond {
		t.Fatalf("big finished at %v, want ~%v", bigDone, wantBig)
	}
}

func TestZeroByteTransferCompletesImmediately(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	done := false
	l.Start("empty", 0, func(error) { done = true })
	c.Run()
	if !done {
		t.Fatal("zero-byte transfer did not complete")
	}
	if c.Now() != 0 {
		t.Fatalf("zero-byte transfer took %v", c.Now())
	}
}

func TestAbort(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var gotErr error
	tr := l.Start("doomed", gb, func(err error) { gotErr = err })
	otherDone := false
	l.Start("other", gb, func(error) { otherDone = true })
	c.RunUntil(time.Second)
	l.Abort(tr)
	c.Run()
	if gotErr != ErrTransferAborted {
		t.Fatalf("aborted transfer err = %v, want ErrTransferAborted", gotErr)
	}
	if !otherDone {
		t.Fatal("surviving transfer did not complete")
	}
	if !tr.Finished() {
		t.Fatal("aborted transfer not marked finished")
	}
}

func TestAbortSpeedsUpSurvivor(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	tr := l.Start("doomed", 8*gb, nil)
	var survivorDone time.Duration
	l.Start("survivor", gb, func(error) { survivorDone = c.Now() })
	// Abort the competitor almost immediately; the survivor should then
	// finish in ~solo time.
	c.Schedule(time.Millisecond, "abort", func(*simtime.Clock) { l.Abort(tr) })
	c.Run()
	solo := time.Duration(float64(gb) / float64(Gbps1) * float64(time.Second))
	if diff := survivorDone - solo; diff < -10*time.Millisecond || diff > 10*time.Millisecond {
		t.Fatalf("survivor finished at %v, want ~%v", survivorDone, solo)
	}
}

func TestRemainingDecreases(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	tr := l.Start("x", gb, nil)
	c.RunUntil(time.Second)
	rem := l.Remaining(tr)
	if rem >= gb || rem <= 0 {
		t.Fatalf("Remaining after 1s = %d, want in (0, %d)", rem, gb)
	}
	c.RunUntil(2 * time.Second)
	rem2 := l.Remaining(tr)
	if rem2 >= rem {
		t.Fatalf("Remaining did not decrease: %d -> %d", rem, rem2)
	}
}

func TestActiveTransfersCount(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	l.Start("a", gb, nil)
	l.Start("b", gb, nil)
	if l.ActiveTransfers() != 2 {
		t.Fatalf("ActiveTransfers = %d, want 2", l.ActiveTransfers())
	}
	c.Run()
	if l.ActiveTransfers() != 0 {
		t.Fatalf("ActiveTransfers after drain = %d, want 0", l.ActiveTransfers())
	}
}

func TestNegativeSizePanics(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("negative size did not panic")
		}
	}()
	l.Start("bad", -1, nil)
}

func TestBadRatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewLink with rate 0 did not panic")
		}
	}()
	NewLink(simtime.NewClock(), "bad", 0, 0)
}

func TestLinkAccessors(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "fabric", Gbps10, time.Millisecond)
	if l.Name() != "fabric" {
		t.Fatalf("Name = %q", l.Name())
	}
	if l.ByteRate() != Gbps10 {
		t.Fatalf("ByteRate = %d", l.ByteRate())
	}
	if l.Latency() != time.Millisecond {
		t.Fatalf("Latency = %v", l.Latency())
	}
}

// Property: for any set of transfer sizes, total elapsed time to drain the
// link equals (sum of sizes) / rate — fair sharing conserves bytes.
func TestPropertyWorkConservation(t *testing.T) {
	f := func(sizesRaw []uint16) bool {
		c := simtime.NewClock()
		l := NewLink(c, "lan", Gbps1, 0)
		var total int64
		n := 0
		for _, s := range sizesRaw {
			if n >= 16 {
				break
			}
			size := int64(s) * 1 << 20 // up to 64 GiB each
			total += size
			l.Start("t", size, nil)
			n++
		}
		if n == 0 {
			return true
		}
		c.Run()
		want := time.Duration(float64(total) / float64(Gbps1) * float64(time.Second))
		diff := c.Now() - want
		if diff < 0 {
			diff = -diff
		}
		// Allow a small tolerance for float accumulation.
		return diff <= time.Duration(n)*time.Millisecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: a transfer's completion order matches size order when all start
// together.
func TestPropertySmallerFinishesFirst(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var order []string
	l.Start("large", 4*gb, func(error) { order = append(order, "large") })
	l.Start("medium", 2*gb, func(error) { order = append(order, "medium") })
	l.Start("small", 1*gb, func(error) { order = append(order, "small") })
	c.Run()
	want := []string{"small", "medium", "large"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order = %v, want %v", order, want)
		}
	}
}

func TestAbortAll(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	errs := 0
	for i := 0; i < 3; i++ {
		l.Start("t", gb, func(err error) {
			if err == ErrTransferAborted {
				errs++
			}
		})
	}
	c.RunUntil(time.Second)
	l.AbortAll()
	if errs != 3 {
		t.Fatalf("aborted callbacks = %d, want 3", errs)
	}
	if l.ActiveTransfers() != 0 {
		t.Fatal("transfers survive AbortAll")
	}
	c.Run()
}

// Regression: a done callback that starts a replacement transfer while
// AbortAll is severing the link must not have the replacement severed
// too (and must not corrupt or livelock the iteration). The old
// implementation re-read l.active each round, so it did both.
func TestAbortAllCallbackReentrancy(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "lan", Gbps1, 0)
	var replacement *Transfer
	var replacementErr = errors.New("unset")
	l.Start("victim-a", gb, func(err error) {
		if !errors.Is(err, ErrTransferAborted) {
			t.Errorf("victim-a err = %v", err)
		}
		// Retry from inside the abort callback, as the migration
		// retry loop does.
		replacement = l.Start("retry-a", gb, func(err error) { replacementErr = err })
	})
	l.Start("victim-b", gb, func(err error) {
		if !errors.Is(err, ErrTransferAborted) {
			t.Errorf("victim-b err = %v", err)
		}
	})
	l.AbortAll()
	if replacement == nil || replacement.Finished() {
		t.Fatalf("replacement transfer was severed by AbortAll (tr=%v)", replacement)
	}
	if l.ActiveTransfers() != 1 {
		t.Fatalf("active transfers after AbortAll = %d, want 1", l.ActiveTransfers())
	}
	c.Run()
	if replacementErr != nil {
		t.Fatalf("replacement finished with err = %v", replacementErr)
	}
}

func TestInjectedSeverIsRetryable(t *testing.T) {
	c := simtime.NewClock()
	l := NewLink(c, "wan", Gbps1, 0)
	l.SetFaults(fault.NewPlan(1, 0).ForceAt(fault.SiteLinkAbort, 1).SetClock(c))
	var got error
	l.Start("vm0", gb, func(err error) { got = err })
	c.Run()
	if !errors.Is(got, ErrTransferAborted) || !errors.Is(got, hterr.ErrInjected) || !hterr.IsRetryable(got) {
		t.Fatalf("severed transfer err = %v; want aborted+injected+retryable", got)
	}
}

func TestInjectedLossSlowsTransfer(t *testing.T) {
	baseline := func(p *fault.Plan) time.Duration {
		c := simtime.NewClock()
		l := NewLink(c, "wan", Gbps1, 0)
		l.SetFaults(p)
		var doneAt time.Duration
		l.Start("vm0", gb, func(err error) {
			if err != nil {
				t.Fatalf("done err = %v", err)
			}
			doneAt = c.Now()
		})
		c.Run()
		return doneAt
	}
	clean := baseline(nil)
	lossy := baseline(fault.NewPlan(1, 0).ForceAt(fault.SiteLinkLoss, 1))
	if lossy <= clean {
		t.Fatalf("lossy transfer (%v) not slower than clean (%v)", lossy, clean)
	}
	if lossy > clean*2 {
		t.Fatalf("lossy transfer (%v) more than 2x clean (%v)", lossy, clean)
	}
}

// Transfers that tie on bytes and start time complete in (name, start
// sequence) order on every run, and SetDown and AbortAll sever them in
// the same order: none of it may depend on Go's map iteration order.
func TestTiedTransfersResolveInOneOrder(t *testing.T) {
	run := func(sever func(*Link)) string {
		c := simtime.NewClock()
		l := NewLink(c, "lan", Gbps1, 0)
		var order []byte
		for _, name := range []string{"c", "a", "b", "a"} {
			l.Start(name, 1<<20, func(error) { order = append(order, name[0]) })
		}
		if sever != nil {
			sever(l)
		}
		c.Run()
		return string(order)
	}
	for i := 0; i < 50; i++ {
		for _, tc := range []struct {
			how   string
			sever func(*Link)
		}{
			{"complete", nil},
			{"SetDown", func(l *Link) { l.SetDown(true) }},
			{"AbortAll", (*Link).AbortAll},
		} {
			if got := run(tc.sever); got != "aabc" {
				t.Fatalf("run %d, %s: order = %q, want %q", i, tc.how, got, "aabc")
			}
		}
	}
}
