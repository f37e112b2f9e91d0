package fleet

import (
	"testing"

	"disttrain/internal/trainer"
)

// TestFleetEventsOffTheRunningState covers a fleet event landing on a
// tenant that is not running: a departure plucking a tenant out of the
// queue behind a running one. The lease table stays a partition every
// round, the tenant ahead is undisturbed, and a later admission of the
// running tenant's shape is a cache hit that starts the round it
// arrives.
func TestFleetEventsOffTheRunningState(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	// late wants the whole fleet — the shape hog runs on from round 0 —
	// long after hog finished.
	const lateArrive = 12
	t.Run("job-depart/queued", func(t *testing.T) {
		res, err := runChecked(t, Config{
			Cluster: spec.Cluster,
			Jobs: []JobSpec{
				{Name: "hog", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
				{Name: "waiter", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
				{Name: "late", Train: tmpl, Iters: 1, MinNodes: 4, MaxNodes: 4, Arrive: lateArrive},
			},
			Scenario: mustParse(t, "job-depart:iter=1,job=1"),
		})
		if err != nil {
			t.Fatal(err)
		}
		hog, waiter, late := res.Jobs[0], res.Jobs[1], res.Jobs[2]
		if !waiter.Departed || waiter.Started != -1 || waiter.Finished != 1 || waiter.Result != nil || waiter.Err != nil {
			t.Errorf("tenant departed while queued: %+v", waiter)
		}
		if hog.Err != nil || hog.Started != 0 || len(hog.Result.Iterations) != 2 {
			t.Errorf("tenant ahead of the departed one was disturbed: %+v", hog)
		}
		if late.Err != nil || late.Started != lateArrive {
			t.Errorf("late same-shape tenant started round %d (err %v), want its arrival round %d", late.Started, late.Err, lateArrive)
		}
		if res.PlanSearches != 1 || res.PlanHits != 1 {
			t.Errorf("ran %d plan searches and %d hits, want 1 and 1 (late's admission is a hit)", res.PlanSearches, res.PlanHits)
		}
	})
}
