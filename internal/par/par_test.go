package par

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestMapOrdering checks that results land in item order for a spread of
// worker counts and item counts, including n much larger and much smaller
// than the pool.
func TestMapOrdering(t *testing.T) {
	defer SetWorkers(0)
	for _, w := range []int{1, 2, 3, 8, 32} {
		SetWorkers(w)
		for _, n := range []int{0, 1, 7, 64, 1000} {
			items := make([]int, n)
			for i := range items {
				items[i] = i * 3
			}
			out, err := Map(items, func(i int, v int) (string, error) {
				return fmt.Sprintf("%d:%d", i, v), nil
			})
			if err != nil {
				t.Fatalf("w=%d n=%d: %v", w, n, err)
			}
			if len(out) != n {
				t.Fatalf("w=%d n=%d: got %d results", w, n, len(out))
			}
			for i, s := range out {
				if want := fmt.Sprintf("%d:%d", i, i*3); s != want {
					t.Fatalf("w=%d n=%d: out[%d] = %q, want %q", w, n, i, s, want)
				}
			}
		}
	}
}

// TestLowestIndexErrorWins checks the deterministic error rule: with
// several failing items, the reported error is always the lowest-index
// one, whatever the worker count.
func TestLowestIndexErrorWins(t *testing.T) {
	defer SetWorkers(0)
	fail := map[int]bool{13: true, 200: true, 77: true}
	for _, w := range []int{1, 2, 4, 16} {
		SetWorkers(w)
		for trial := 0; trial < 20; trial++ {
			out, err := Map(make([]struct{}, 500), func(i int, _ struct{}) (int, error) {
				if fail[i] {
					return 0, fmt.Errorf("item %d", i)
				}
				return i, nil
			})
			if err == nil || err.Error() != "item 13" || out != nil {
				t.Fatalf("w=%d: got %v, %d results; want item 13 and none", w, err, len(out))
			}
		}
	}
}

// TestNoSpanCancellation checks that a failing item does not cancel the
// rest of the work: every item is still attempted exactly once, even
// when the very first one errors, at any worker count.
func TestNoSpanCancellation(t *testing.T) {
	defer SetWorkers(0)
	boom := errors.New("boom")
	for _, w := range []int{1, 4} {
		SetWorkers(w)
		const n = 300
		var covered [n]atomic.Int32
		_, err := Map(make([]struct{}, n), func(i int, _ struct{}) (struct{}, error) {
			covered[i].Add(1)
			if i == 0 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("w=%d: got %v, want boom", w, err)
		}
		for i := range covered {
			if got := covered[i].Load(); got != 1 {
				t.Fatalf("w=%d: index %d attempted %d times", w, i, got)
			}
		}
	}
}

func TestSetWorkers(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(5)
	if got := Workers(); got != 5 {
		t.Fatalf("Workers() = %d, want 5", got)
	}
	SetWorkers(0)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d, want >= 1 with default", got)
	}
	SetWorkers(-3)
	if got := Workers(); got < 1 {
		t.Fatalf("Workers() = %d after negative set, want default", got)
	}
	// The width is what Map runs at: with w workers, at most w items are
	// ever in flight together.
	for _, w := range []int{1, 3} {
		SetWorkers(w)
		var mu sync.Mutex
		inFlight, peak := 0, 0
		_, err := Map(make([]struct{}, 64), func(int, struct{}) (struct{}, error) {
			mu.Lock()
			inFlight++
			peak = max(peak, inFlight)
			mu.Unlock()
			runtime.Gosched()
			mu.Lock()
			inFlight--
			mu.Unlock()
			return struct{}{}, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if got := peak; got > w {
			t.Fatalf("SetWorkers(%d): %d items in flight together", w, got)
		}
	}
}

// TestStress hammers the pool with result writes under many worker-count
// switches; run with -race this doubles as the data-race check for the
// dispatcher.
func TestStress(t *testing.T) {
	defer SetWorkers(0)
	for trial := 0; trial < 50; trial++ {
		SetWorkers(1 + trial%9)
		n := 1 + trial*13%257
		out, err := Map(make([]struct{}, n), func(i int, _ struct{}) (int, error) {
			sum := 0
			for j := 0; j <= i; j++ {
				sum += j
			}
			return sum, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, got := range out {
			if want := i * (i + 1) / 2; got != want {
				t.Fatalf("trial %d: out[%d] = %d, want %d", trial, i, got, want)
			}
		}
	}
}
