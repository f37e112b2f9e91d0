package fleet

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// classOf returns the address of the resolved class a runtime points
// at. The trainer exports no accessor for it, so it is read through
// reflect, which may read an unexported pointer's address.
func classOf(rt *trainer.Runtime) uintptr {
	return reflect.ValueOf(rt).Elem().FieldByName("cls").Pointer()
}

// classWatcher wraps a Scheduler and records, every round, the class
// each running tenant's runtime points at (Rebalance runs after the
// round's events and admissions, before stepping). It keeps the runner
// so the test can read the run's batch cache afterwards.
type classWatcher struct {
	Scheduler
	f      *runner
	rounds []map[int]uintptr // per round: tenant id -> class
}

func (w *classWatcher) Rebalance(ops Ops) {
	w.f = ops.(schedOps).f
	seen := map[int]uintptr{}
	for _, t := range w.f.tenants {
		if t.state == stateRunning {
			seen[t.ID] = classOf(t.rt)
		}
	}
	w.rounds = append(w.rounds, seen)
	w.Scheduler.Rebalance(ops)
}

// TestFleetResolvesEachClassOnce: a fleet resolves one class per
// distinct (plan, template content), and its tenants point at it. Two
// JobSpecs built apart from equal templates share one; a template that
// differs only in Reorder resolves its own under the same plan; and a
// 3-node tenant that loses a node resizes onto the class the 2-node
// tenants already hold. Every tenant's Result and trace equal a private
// runtime's, and after the run every plan the cache handed out still
// equals a fresh search's field for field: no runtime wrote the plan
// it keys its class on.
func TestFleetResolvesEachClassOnce(t *testing.T) {
	spec, corpus := buildSpec(t, 9, 32)
	fail, err := scenario.Parse("node-fail:iter=1,node=8")
	if err != nil {
		t.Fatal(err)
	}
	unordered := newTrainTemplate(spec, corpus)
	unordered.Reorder = false
	const iters = 4
	w := &classWatcher{Scheduler: fifo}
	cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	cfg := Config{
		Cluster: spec.Cluster, Policy: w, Scenario: fail, Cache: cache, Trace: true,
		Jobs: []JobSpec{
			{Name: "a", Train: newTrainTemplate(spec, corpus), Iters: iters, MinNodes: 2, MaxNodes: 2},
			{Name: "b", Train: newTrainTemplate(spec, corpus), Iters: iters, MinNodes: 2, MaxNodes: 2},
			{Name: "unordered", Train: unordered, Iters: iters, MinNodes: 2, MaxNodes: 2},
			{Name: "shrunk", Train: newTrainTemplate(spec, corpus), Iters: iters, MinNodes: 2, MaxNodes: 3},
		},
	}
	res, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, jr := range res.Jobs {
		if jr.Err != nil || jr.Result == nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if want := min(i/3, 1); jr.Resizes != want {
			t.Fatalf("job %s resized %d times, want %d", jr.Name, jr.Resizes, want)
		}
	}

	// One class per distinct (plan, template content): {2-node plan,
	// DistTrain}, {2-node plan, unordered} and {3-node plan, DistTrain}.
	resolved := map[uintptr]bool{}
	for it := reflect.ValueOf(&w.f.batches).Elem().FieldByName("classes").MapRange(); it.Next(); {
		resolved[it.Value().Pointer()] = true
	}
	if len(resolved) != 3 {
		t.Errorf("the run resolved %d classes, want 3", len(resolved))
	}
	if len(w.rounds) < 2 || len(w.rounds[0]) != 4 || len(w.rounds[1]) != 4 {
		t.Fatalf("rounds 0 and 1 do not run all four tenants: %v", w.rounds)
	}
	for round, seen := range w.rounds {
		a, ok := seen[0]
		if !ok {
			continue
		}
		for id, cls := range seen {
			if !resolved[cls] {
				t.Errorf("round %d: tenant %d points at a class the cache never resolved", round, id)
			}
		}
		if seen[1] != a {
			t.Errorf("round %d: equal templates on one plan point at two classes", round)
		}
		if seen[2] == a {
			t.Errorf("round %d: an unordered template shares the DistTrain class", round)
		}
		if shrunk := seen[3] == a; shrunk != (round > 0) {
			t.Errorf("round %d: the 3-node tenant on the 2-node class: %v", round, shrunk)
		}
	}

	// Each tenant against a private runtime: no batch cache, its own
	// classes, the same lease and resize.
	ctx := context.Background()
	planFor := func(l cluster.Lease) *orchestrator.Plan {
		p, err := cache.Plan(ctx, spec.ForLease(spec.Cluster, l, false))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, jr := range res.Jobs {
		ref := cfg.Jobs[jr.Spec].Train
		ref.Trace = metrics.NewTrace()
		l := cluster.NewLease(6, 7, 8)
		if jr.Resizes == 0 {
			l = cluster.NewLease(0, 1)
		}
		ref.Lease, ref.Plan = &l, planFor(l)
		rt, err := trainer.New(ref)
		if err != nil {
			t.Fatal(err)
		}
		j, err := rt.NewJob(iters)
		if err != nil {
			t.Fatal(err)
		}
		for !j.Done() {
			if sw := jr.Result.Replans; len(sw) == 1 && j.Iteration() == sw[0].AppliedAt && len(l.Nodes) == 3 {
				l = cluster.NewLease(6, 7)
				if err := j.Resize(l, planFor(l), sw[0].Reason); err != nil {
					t.Fatal(err)
				}
			}
			if err := j.Step(); err != nil {
				t.Fatal(err)
			}
		}
		want := j.Finish()
		rt.Close()
		if !reflect.DeepEqual(jr.Result, want) {
			t.Errorf("job %s diverged from its private runtime:\ngot  %+v\nwant %+v", jr.Name, jr.Result, want)
		}
		if !bytes.Equal(traceBytes(t, jr.Trace), traceBytes(t, ref.Trace)) {
			t.Errorf("job %s: trace diverged from its private runtime", jr.Name)
		}
	}

	// The cache holds the two lease sizes' plans, and each still equals
	// a fresh search's.
	if cache.Searches() != 2 {
		t.Fatalf("the cache searched %d specs, want 2", cache.Searches())
	}
	for _, l := range []cluster.Lease{cluster.NewLease(0, 1), cluster.NewLease(0, 1, 2)} {
		s := spec.ForLease(spec.Cluster, l, false)
		fresh, err := orchestrator.Search(s, orchestrator.SearchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if cached := planFor(l); !reflect.DeepEqual(cached, fresh) {
			t.Errorf("%d-node plan changed after the run:\ncached %+v\nfresh  %+v", len(l.Nodes), cached, fresh)
		}
	}
}
