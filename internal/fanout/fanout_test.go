package fanout

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestWidth(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ workers, n, want int }{
		{3, 10, 3},
		{1, 10, 1},
		{4, 2, 2},
		{5, 0, 0},
		{0, 1 << 20, procs},
		{-3, 1 << 20, procs},
		{0, 1, 1},
	} {
		if got := Width(tc.workers, tc.n); got != tc.want {
			t.Errorf("Width(%d, %d) = %d, want %d", tc.workers, tc.n, got, tc.want)
		}
	}
}

// TestForCallsEachIndexOnce: every index is called exactly once, with no
// more calls in flight at a time than the width, at widths 1, 2, past n,
// and GOMAXPROCS.
func TestForCallsEachIndexOnce(t *testing.T) {
	const n = 57
	for _, workers := range []int{1, 2, n + 3, 0, -1} {
		var calls [n]atomic.Int32
		var inFlight, peak atomic.Int32
		err := For(context.Background(), n, workers, func(i int) {
			now := inFlight.Add(1)
			for p := peak.Load(); now > p && !peak.CompareAndSwap(p, now); p = peak.Load() {
			}
			calls[i].Add(1)
			runtime.Gosched()
			inFlight.Add(-1)
		})
		if err != nil {
			t.Fatalf("workers %d: For = %v", workers, err)
		}
		for i := range calls {
			if c := calls[i].Load(); c != 1 {
				t.Errorf("workers %d: index %d called %d times", workers, i, c)
			}
		}
		if w := Width(workers, n); int(peak.Load()) > w {
			t.Errorf("workers %d: %d calls in flight at once, width %d", workers, peak.Load(), w)
		}
	}
}

// TestForWidthOneRunsInOrder: at width 1 the calls run one after another
// in index order.
func TestForWidthOneRunsInOrder(t *testing.T) {
	var order []int
	busy := false
	err := For(context.Background(), 20, 1, func(i int) {
		if busy {
			t.Errorf("call %d overlaps another", i)
		}
		busy = true
		order = append(order, i)
		runtime.Gosched()
		busy = false
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("call %d was index %d; order %v", i, got, order)
		}
	}
	if len(order) != 20 {
		t.Fatalf("%d calls, want 20", len(order))
	}
}

func TestForPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 3} {
		var calls atomic.Int32
		err := For(ctx, 10, workers, func(int) { calls.Add(1) })
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers %d: For = %v, want context.Canceled", workers, err)
		}
		if c := calls.Load(); c != 0 {
			t.Errorf("workers %d: %d calls under a cancelled context", workers, c)
		}
	}
}

// TestForCancelStopsHandOuts: a cancel inside fn(k) stops the hand-outs.
// At width 1 the calls end at k. At width 3 the cancelling call waits
// until the other two workers each hold a call, and those calls wait for
// the cancel: exactly the three calls in flight run, and no index is
// handed out after them.
func TestForCancelStopsHandOuts(t *testing.T) {
	t.Run("width1", func(t *testing.T) {
		const k = 3
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var called []int
		err := For(ctx, 10, 1, func(i int) {
			called = append(called, i)
			if i == k {
				cancel()
			}
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("For = %v, want context.Canceled", err)
		}
		if len(called) != k+1 {
			t.Fatalf("calls %v, want indices 0..%d", called, k)
		}
	})
	t.Run("width3", func(t *testing.T) {
		const width = 3
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		var calls [40]atomic.Int32
		held := make(chan struct{}, len(calls))
		release := make(chan struct{})
		err := For(ctx, len(calls), width, func(i int) {
			calls[i].Add(1)
			if i != 0 {
				held <- struct{}{}
				<-release
				return
			}
			for range width - 1 {
				select {
				case <-held:
				case <-time.After(10 * time.Second):
					t.Error("the other workers never held a call")
				}
			}
			cancel()
			close(release)
		})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("For = %v, want context.Canceled", err)
		}
		for i := range calls {
			want := int32(0)
			if i < width {
				want = 1
			}
			if c := calls[i].Load(); c != want {
				t.Errorf("index %d called %d times, want %d", i, c, want)
			}
		}
	})
}

// TestForCancelAfterLastHandOut: a cancel once every index is handed out
// stops nothing, and For reports success.
func TestForCancelAfterLastHandOut(t *testing.T) {
	const n = 8
	for _, workers := range []int{1, 3} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int32
		err := For(ctx, n, workers, func(i int) {
			calls.Add(1)
			if i == n-1 {
				cancel()
			}
		})
		cancel()
		if err != nil {
			t.Errorf("workers %d: For = %v, want nil", workers, err)
		}
		if c := calls.Load(); c != n {
			t.Errorf("workers %d: %d calls, want %d", workers, c, n)
		}
	}
}
