// Package fanout is the repo's one cursor-fed worker pool: the plan
// search's candidate workers, the fleet's tenant steps and the
// trainer's rank workers and rank fetches all hand out indices through
// it. Every caller writes outcomes to per-index slots and reduces them
// in index order afterwards, which is what keeps results byte-identical
// at any worker count.
package fanout

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run evaluates eval(0..n-1) on at most workers goroutines, handing out
// indices through an atomic cursor, and returns once every claimed
// index has finished. The calling goroutine is one of the workers, so
// only workers-1 are spawned; one worker or fewer runs inline, in index
// order — the serial reference path. Once ctx is done no further index
// is claimed; the remaining ones are never evaluated.
func Run(ctx context.Context, workers, n int, eval func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			eval(i)
		}
		return
	}
	var cursor atomic.Int64
	drain := func() {
		for ctx.Err() == nil {
			i := int(cursor.Add(1)) - 1
			if i >= n {
				return
			}
			eval(i)
		}
	}
	var wg sync.WaitGroup
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			drain()
		}()
	}
	drain()
	wg.Wait()
}
