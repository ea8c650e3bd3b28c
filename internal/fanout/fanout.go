// Package fanout runs n independent jobs on a bounded set of goroutines.
// It holds the two rules every fan-out of the library shares: how many
// goroutines a batch runs on, and when a cancellation stops it.
package fanout

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Width is the number of goroutines For runs n jobs on: workers, or
// GOMAXPROCS when workers <= 0, and never more than n.
func Width(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// For calls fn(i) once for every i in [0, n) on Width(workers, n)
// goroutines, or inline on the caller's goroutine when that width is 1;
// fn must be safe for concurrent calls at any wider width. Indices are
// handed out in order, and every hand-out first checks ctx: once a
// cancellation is visible no index is handed out. For returns after
// every call it made has returned. It returns ctx.Err() when some index
// was never handed out, and nil otherwise, even when ctx was cancelled
// after the last hand-out.
func For(ctx context.Context, n, workers int, fn func(i int)) error {
	w := Width(workers, n)
	if w <= 1 {
		for i := range n {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return nil
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(w)
	for range w {
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
	if int(next.Load()) < n {
		return ctx.Err()
	}
	return nil
}
