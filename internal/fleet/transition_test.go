package fleet

import (
	"bytes"
	"reflect"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/trainer"
)

// TestFleetEventsOffTheRunningState covers the transitions fleet
// events take when they land on a tenant that is not running: a node
// failure and a departure hitting a reservation whose plan has not
// landed, and a departure hitting a queued tenant. In each the lease
// table stays a partition every round, the wave the event orphaned
// still publishes at its landing round — a later admission of the same
// shape starts the round it arrives instead of parking behind a new
// search — and results and merged trace are byte-identical on every
// executor.
func TestFleetEventsOffTheRunningState(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	whole := spec
	whole.Cluster = cluster.NewLease(0, 1, 2, 3).Subcluster(spec.Cluster)
	whole.MaxGPUs = 0
	cold := planLatency(whole, false)
	if cold < 2 {
		t.Fatalf("cold 4-node plan lands after %d round, need >= 2 for an event to find the tenant planning", cold)
	}
	// late wants the whole fleet — the shape the first tenant reserved
	// at round 0 — long after that wave's landing round.
	const lateArrive = 12
	late := JobSpec{Name: "late", Train: tmpl, Iters: 1, MinNodes: 4, MaxNodes: 4, Arrive: lateArrive}

	for _, tc := range []struct {
		name     string
		jobs     []JobSpec
		scenario string
		searches int64
		check    func(t *testing.T, res *Result, rounds []RoundInfo)
	}{
		{
			// The failure voids the 4-node reservation: the tenant requeues
			// at the front, re-reserves the 3 survivors under a new wave
			// and runs to completion; the 4-node wave is orphaned.
			name: "node-fail/planning",
			jobs: []JobSpec{
				{Name: "elastic", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 4},
				late,
			},
			scenario: "node-fail:iter=1,node=3; node-join:iter=2,node=3",
			searches: 3, // 4-node (orphaned), 3-node, speculated 2-node
			check: func(t *testing.T, res *Result, rounds []RoundInfo) {
				el := res.Jobs[0]
				if el.Err != nil || el.Result == nil || len(el.Result.Iterations) != 2 {
					t.Fatalf("displaced tenant did not run to completion: %+v", el)
				}
				if el.Started <= 1 || el.Resizes != 0 {
					t.Fatalf("displaced tenant started round %d with %d resizes, want after the round-1 failure and no resize (it never started on 4)",
						el.Started, el.Resizes)
				}
				if got := rounds[0].Leases[0]; len(got) != 4 {
					t.Errorf("round 0: tenant reserved %v, want the whole fleet", got)
				}
				for r := 1; r <= el.Started; r++ {
					if got := rounds[r].Leases[0]; !reflect.DeepEqual(got, []int{0, 1, 2}) {
						t.Errorf("round %d: displaced tenant holds %v, want the 3 survivors", r, got)
					}
				}
			},
		},
		{
			// The departure retires a tenant that never started; its
			// reservation returns to the free pool the same round.
			name: "job-depart/planning",
			jobs: []JobSpec{
				{Name: "gone", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
				late,
			},
			scenario: "job-depart:iter=1,job=0",
			searches: 1,
			check: func(t *testing.T, res *Result, rounds []RoundInfo) {
				gone := res.Jobs[0]
				if !gone.Departed || gone.Started != -1 || gone.Finished != 1 || gone.Result != nil || gone.Err != nil {
					t.Errorf("tenant departed while planning: %+v", gone)
				}
				if gone.Lease.NodeCount() != 0 {
					t.Errorf("departed tenant still holds %v", gone.Lease)
				}
			},
		},
		{
			// The departure plucks a tenant out of the queue behind a
			// reservation; it never held a node or a ticket.
			name: "job-depart/queued",
			jobs: []JobSpec{
				{Name: "hog", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
				{Name: "waiter", Train: tmpl, Iters: 2, MinNodes: 4, MaxNodes: 4},
				late,
			},
			scenario: "job-depart:iter=1,job=1",
			searches: 1,
			check: func(t *testing.T, res *Result, rounds []RoundInfo) {
				hog, waiter := res.Jobs[0], res.Jobs[1]
				if !waiter.Departed || waiter.Started != -1 || waiter.Finished != 1 || waiter.Result != nil || waiter.Err != nil {
					t.Errorf("tenant departed while queued: %+v", waiter)
				}
				if hog.Err != nil || hog.Started != cold || len(hog.Result.Iterations) != 2 {
					t.Errorf("tenant ahead of the departed one was disturbed: %+v", hog)
				}
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			type outcome struct {
				jobs  []JobResult
				trace []byte
			}
			var want outcome
			for i, planners := range []int{0, SequentialPlanners, 1, 4} {
				var rounds []RoundInfo
				res, err := runChecked(t, Config{
					Cluster:  spec.Cluster,
					Jobs:     tc.jobs,
					Scenario: mustParse(t, tc.scenario),
					Planners: planners,
					Trace:    true,
					OnRound:  func(info RoundInfo) { rounds = append(rounds, info) },
				})
				if err != nil {
					t.Fatal(err)
				}
				got := outcome{jobs: append([]JobResult(nil), res.Jobs...), trace: traceBytes(t, res.Trace)}
				for j := range got.jobs {
					got.jobs[j].Trace = nil // compared via the merged trace bytes
				}
				if i > 0 {
					if !reflect.DeepEqual(got.jobs, want.jobs) {
						t.Errorf("planners %d: job results diverged from planners 0", planners)
					}
					if !bytes.Equal(got.trace, want.trace) {
						t.Errorf("planners %d: merged trace diverged (%d vs %d bytes)", planners, len(got.trace), len(want.trace))
					}
					continue
				}
				want = got
				tc.check(t, res, rounds)
				// The orphaned wave published at its landing round: the
				// whole-fleet shape is a settled hit for late, which
				// therefore starts the round it arrives.
				lt := res.Jobs[len(res.Jobs)-1]
				if lt.Err != nil || lt.Started != lateArrive {
					t.Errorf("late same-shape tenant started round %d (err %v), want its arrival round %d", lt.Started, lt.Err, lateArrive)
				}
				if res.PlanSearches != tc.searches {
					t.Errorf("ran %d plan searches, want %d (late's admission must be a hit)", res.PlanSearches, tc.searches)
				}
				if res.PlanHits < 1 {
					t.Errorf("late's admission scored no cache hit (%d hits)", res.PlanHits)
				}
			}
		})
	}
}
