package fanout

import (
	"context"
	"sync/atomic"
	"testing"
)

// TestRunEvaluatesEveryIndexOnce holds at every pool size, including
// the inline path (workers <= 1) and a pool wider than the work.
func TestRunEvaluatesEveryIndexOnce(t *testing.T) {
	const n = 37
	for _, workers := range []int{-1, 0, 1, 2, 4, n + 3} {
		hits := make([]atomic.Int32, n)
		Run(context.Background(), workers, n, func(i int) { hits[i].Add(1) })
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Errorf("workers %d: index %d evaluated %d times", workers, i, got)
			}
		}
	}
}

// TestRunInlineKeepsIndexOrder pins the serial reference path: one
// worker runs on the calling goroutine, in index order.
func TestRunInlineKeepsIndexOrder(t *testing.T) {
	var order []int
	Run(context.Background(), 1, 5, func(i int) { order = append(order, i) })
	for i, got := range order {
		if got != i {
			t.Fatalf("inline order %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("inline run evaluated %d of 5 indices", len(order))
	}
}

// TestRunStopsClaimingOnCancel: indices claimed before the cancel
// finish, nothing is claimed after it.
func TestRunStopsClaimingOnCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int32
		Run(ctx, workers, 1000, func(i int) {
			if ran.Add(1) == 3 {
				cancel()
			}
		})
		if got := int(ran.Load()); got < 3 || got >= 3+workers {
			t.Errorf("workers %d: %d indices ran, want the 3 before the cancel plus at most one in flight per other worker", workers, got)
		}
		cancel()
	}
}
