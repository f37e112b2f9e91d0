package orchestrator

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"disttrain/internal/model"
	"disttrain/internal/store"
)

// TestPlanAsyncCoalescing: K async requests for one fingerprint run
// exactly one search — the first claims the entry, the rest coalesce
// onto its ticket — and every waiter gets the same plan, identical to
// the synchronous path's.
func TestPlanAsyncCoalescing(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	want, err := NewPlanCache(SearchOptions{}).Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range []int{0, 2} {
		name := "sequential"
		if pool > 0 {
			name = "pool"
		}
		t.Run(name, func(t *testing.T) {
			c := NewPlanCache(SearchOptions{Parallelism: 2})
			if pool > 0 {
				if err := c.StartPlanners(pool); err != nil {
					t.Fatal(err)
				}
				defer c.StopPlanners()
			}
			const k = 4
			tickets := make([]*PlanTicket, k)
			for i := range tickets {
				tickets[i] = c.PlanAsync(context.Background(), spec)
			}
			for i, tk := range tickets {
				plan, err := tk.Wait(context.Background())
				if err != nil {
					t.Fatalf("waiter %d: %v", i, err)
				}
				if !reflect.DeepEqual(plan, want) {
					t.Errorf("waiter %d: async plan diverged from sync reference", i)
				}
			}
			if got := c.Searches(); got != 1 {
				t.Errorf("Searches() = %d, want 1", got)
			}
			if got := c.Coalesced(); got != k-1 {
				t.Errorf("Coalesced() = %d, want %d", got, k-1)
			}
			// Until Publish the result is invisible to non-blocking reads;
			// afterwards it is a plain hit.
			if _, ok, _ := c.PlanIfSettled(spec); ok {
				t.Error("unpublished plan visible to PlanIfSettled")
			}
			tickets[0].Publish()
			plan, ok, err := c.PlanIfSettled(spec)
			if !ok || err != nil || !reflect.DeepEqual(plan, want) {
				t.Errorf("published plan not served: ok=%v err=%v", ok, err)
			}
			hits := c.Hits()
			c.PlanAsync(context.Background(), spec).Publish()
			if c.Hits() != hits+1 {
				t.Error("PlanAsync on a published entry did not count a hit")
			}
		})
	}
}

// TestPlanAsyncPublishGating: an async result stays invisible to
// warm-seed lookups until Publish — a later async request for the
// neighbouring lease size is unseeded before the publish and seeded
// after, so cache visibility tracks landing rounds, not wall clock.
func TestPlanAsyncPublishGating(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	neighbor := spec
	neighbor.Cluster.Nodes = 5
	c := NewPlanCache(SearchOptions{})
	tk := c.PlanAsync(context.Background(), spec)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if c.Settled(spec) {
		t.Error("Settled() true before Publish")
	}
	if n := c.PlanAsync(context.Background(), neighbor); n.Seeded() {
		t.Error("unpublished incumbent leaked into a neighbour seed")
	}
	tk.Publish()
	if !c.Settled(spec) {
		t.Error("Settled() false after Publish")
	}
	c2 := NewPlanCache(SearchOptions{})
	tk2 := c2.PlanAsync(context.Background(), spec)
	if _, err := tk2.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	tk2.Publish()
	if n := c2.PlanAsync(context.Background(), neighbor); !n.Seeded() {
		t.Error("published incumbent did not seed the neighbour")
	}
}

// TestPlanAsyncFailureCoalesced: when a coalesced search fails, every
// waiter sees the one cached error from the single search, the entry
// is not poisoned for other fingerprints, and a later feasible spec
// plans normally.
func TestPlanAsyncFailureCoalesced(t *testing.T) {
	bad := cacheSpec(t, 4, 32)
	bad.Model = model.MLLM72B() // cannot fit a 4-node lease
	c := NewPlanCache(SearchOptions{Parallelism: 2})
	if err := c.StartPlanners(2); err != nil {
		t.Fatal(err)
	}
	defer c.StopPlanners()
	const k = 3
	tickets := make([]*PlanTicket, k)
	for i := range tickets {
		tickets[i] = c.PlanAsync(context.Background(), bad)
	}
	var firstErr error
	for i, tk := range tickets {
		_, err := tk.Wait(context.Background())
		if err == nil {
			t.Fatalf("waiter %d: infeasible spec planned", i)
		}
		if firstErr == nil {
			firstErr = err
		} else if err != firstErr {
			t.Errorf("waiter %d saw a different error: %v vs %v", i, err, firstErr)
		}
	}
	if got := c.Searches(); got != 1 {
		t.Errorf("failed herd ran %d searches, want 1", got)
	}
	if got := c.Coalesced(); got != k-1 {
		t.Errorf("Coalesced() = %d, want %d", got, k-1)
	}
	tickets[0].Publish()
	if _, ok, err := c.PlanIfSettled(bad); !ok || err == nil {
		t.Error("published infeasibility not served as a cached error")
	}
	good := cacheSpec(t, 4, 32)
	tk := c.PlanAsync(context.Background(), good)
	if _, err := tk.Wait(context.Background()); err != nil {
		t.Errorf("feasible spec after a failed herd: %v", err)
	}
}

// TestPlannerPoolLifecycle: double start errors, stop drains queued
// work, and stop without a pool is a no-op.
func TestPlannerPoolLifecycle(t *testing.T) {
	c := NewPlanCache(SearchOptions{})
	c.StopPlanners() // no pool: no-op
	if err := c.StartPlanners(0); err == nil {
		t.Error("StartPlanners(0) accepted")
	}
	if err := c.StartPlanners(2); err != nil {
		t.Fatal(err)
	}
	if err := c.StartPlanners(2); err == nil {
		t.Error("second StartPlanners accepted while running")
	}
	spec := cacheSpec(t, 4, 32)
	tk := c.PlanAsync(context.Background(), spec)
	c.StopPlanners() // must drain the queued search
	plan, err := tk.Wait(context.Background())
	if err != nil || plan == nil {
		t.Fatalf("queued search not drained by StopPlanners: %v", err)
	}
	// A fresh pool can start after a clean stop.
	if err := c.StartPlanners(1); err != nil {
		t.Fatal(err)
	}
	c.StopPlanners()
}

// TestPlanAsyncCancelledNotCached: a poolless PlanAsync under a
// cancelled context settles its ticket with the cancellation, but the
// outcome must not stay in the cache — a later PlanAsync for the same
// fingerprint used to coalesce onto the poisoned, never-published
// entry forever. It now claims a fresh entry and plans.
func TestPlanAsyncCancelledNotCached(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	c := NewPlanCache(SearchOptions{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.PlanAsync(cancelled, spec).Wait(context.Background()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PlanAsync: got %v, want context.Canceled", err)
	}
	if c.Len() != 0 {
		t.Errorf("cancelled search left %d cache entries", c.Len())
	}
	tk := c.PlanAsync(context.Background(), spec)
	plan, err := tk.Wait(context.Background())
	if err != nil || plan == nil {
		t.Fatalf("PlanAsync after a cancelled one: plan %v, err %v", plan, err)
	}
	if c.Coalesced() != 0 {
		t.Errorf("retry coalesced onto the cancelled ticket (%d coalesced)", c.Coalesced())
	}
	if c.Searches() != 2 {
		t.Errorf("Searches() = %d, want 2 (one cancelled, one real)", c.Searches())
	}
}

// TestPlanCacheDoorsCountAlike: the synchronous door and the ticket
// door are one resolve path, so the same request sequence — cold
// sizes, warm-seeded neighbours, a repeat, then a restart over the same
// store — leaves identical search, warm-seed, prune and warm-hit
// counts (and plans) on fresh caches, with or without a planner pool.
// A durable hit starts no search and therefore counts no warm seed,
// even though its neighbours are right there in the store.
func TestPlanCacheDoorsCountAlike(t *testing.T) {
	base := cacheSpec(t, 4, 32)
	var seq []Spec
	for _, nodes := range []int{4, 5, 3, 5, 8} {
		s := base
		s.Cluster.Nodes = nodes
		seq = append(seq, s)
	}
	ctx := context.Background()
	type counts struct{ searches, warmSeeds, pruned, warmHits int64 }
	run := func(t *testing.T, c *PlanCache, async bool) (counts, []*Plan) {
		var plans []*Plan
		for _, s := range seq {
			var p *Plan
			var err error
			if async {
				tk := c.PlanAsync(ctx, s)
				p, err = tk.Wait(ctx)
				tk.Publish()
			} else {
				p, err = c.Plan(ctx, s)
			}
			if err != nil {
				t.Fatal(err)
			}
			plans = append(plans, p)
		}
		return counts{c.Searches(), c.WarmSeeds(), c.Pruned(), c.WarmHits()}, plans
	}
	var want [2]counts
	var wantPlans []*Plan
	for _, door := range []struct {
		name  string
		async bool
		pool  int
	}{{"sync", false, 0}, {"ticket", true, 0}, {"ticket-pool", true, 2}} {
		t.Run(door.name, func(t *testing.T) {
			st := store.NewMem()
			for phase := range want { // cold store, then a restart over it
				c := NewPersistentPlanCache(SearchOptions{Parallelism: 2}, st)
				if door.pool > 0 {
					if err := c.StartPlanners(door.pool); err != nil {
						t.Fatal(err)
					}
					defer c.StopPlanners()
				}
				got, plans := run(t, c, door.async)
				if wantPlans == nil {
					wantPlans = plans
				} else if !reflect.DeepEqual(plans, wantPlans) {
					t.Errorf("phase %d: plans diverged from the sync door's", phase)
				}
				if want[phase] == (counts{}) {
					want[phase] = got
				} else if got != want[phase] {
					t.Errorf("phase %d: counts %+v, sync door had %+v", phase, got, want[phase])
				}
			}
		})
	}
	if want[0].searches != 4 || want[0].warmSeeds != 2 || want[0].pruned == 0 || want[0].warmHits != 0 {
		t.Errorf("cold phase counts %+v, want 4 searches, 2 warm seeds, pruning, no warm hits", want[0])
	}
	if want[1] != (counts{warmHits: 4}) {
		t.Errorf("restart phase counts %+v, want 4 warm hits and nothing else", want[1])
	}
}
