package fleet

import (
	"bytes"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// freshRunning is Ops.Running as it read before the snapshot: every
// running tenant's view, rebuilt from an empty slice.
func freshRunning(f *runner) []JobView {
	var out []JobView
	for _, t := range f.tenants {
		if t.state == stateRunning {
			out = append(out, f.view(t))
		}
	}
	return out
}

// snapshotAuditor wraps a Scheduler and, before every call it
// delegates, holds the runner's Running() snapshot to a from-scratch
// build; the Ops it hands down repeats the check on every Running()
// the wrapped scheduler makes. checks counts both kinds.
type snapshotAuditor struct {
	Scheduler
	t      *testing.T
	checks *int
}

func (a snapshotAuditor) audit(ops Ops) Ops {
	a.t.Helper()
	so := ops.(schedOps)
	if got, want := so.Running(), freshRunning(so.f); !reflect.DeepEqual(got, want) {
		a.t.Errorf("round %d: Running() snapshot is stale:\n got  %+v\n want %+v", so.f.round, got, want)
	}
	*a.checks++
	return auditedOps{so, a}
}

func (a snapshotAuditor) GrantSize(ops Ops, head JobView) int {
	return a.Scheduler.GrantSize(a.audit(ops), head)
}
func (a snapshotAuditor) MakeRoom(ops Ops, head JobView) { a.Scheduler.MakeRoom(a.audit(ops), head) }
func (a snapshotAuditor) PlaceNodes(ops Ops, head JobView, grant int) []int {
	return a.Scheduler.PlaceNodes(a.audit(ops), head, grant)
}
func (a snapshotAuditor) Rebalance(ops Ops) { a.Scheduler.Rebalance(a.audit(ops)) }
func (a snapshotAuditor) ShapedPlacement() bool {
	ss, ok := a.Scheduler.(ShapedScheduler)
	return ok && ss.ShapedPlacement()
}

// auditedOps re-checks the snapshot on every Running() the wrapped
// scheduler makes — including the ones between its own Shrink, Grow
// and Preempt calls, where a missed invalidation would show.
type auditedOps struct {
	schedOps
	a snapshotAuditor
}

func (o auditedOps) Running() []JobView {
	o.a.t.Helper()
	got := o.schedOps.Running()
	if want := freshRunning(o.f); !reflect.DeepEqual(got, want) {
		o.a.t.Errorf("round %d: Running() inside a scheduler call is stale:\n got  %+v\n want %+v", o.f.round, got, want)
	}
	*o.a.checks++
	return got
}

// TestRunningSnapshotMatchesFreshBuild runs the fixtures that move
// tenants every way the runner can — node failure and rejoin,
// scenario arrival and departure, fair-share shrink-to-admit and
// grow-on-departure, a preempt storm with resume, a coalescing herd —
// under the auditing wrapper: at every scheduler decision point, and
// at every Running() call inside one, the served snapshot deep-equals
// a from-scratch build, and the run's outcome is the unwrapped run's.
func TestRunningSnapshotMatchesFreshBuild(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"node-fail+depart/fair-share", perturbedFleet(t, spec, corpus)},
		{"shrink-grow/fair-share", fairShareGoldenFleet(t)},
		{"node-fail/fifo", fifoGoldenFleet(t)},
		{"preempt-storm/priority", priorityFleet(t)},
		{"herd/fifo", herdConfig(t, 8, 4)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plain, err := runChecked(t, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfg := tc.cfg
			if cfg.Policy == nil {
				cfg.Policy = fifo
			}
			checks := 0
			cfg.Policy = snapshotAuditor{cfg.Policy, t, &checks}
			audited, err := runChecked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if checks < 2*audited.Rounds {
				t.Errorf("only %d snapshot checks over %d rounds: the auditor is not on the path", checks, audited.Rounds)
			}
			if audited.Rounds != plain.Rounds || len(audited.Jobs) != len(plain.Jobs) {
				t.Fatalf("audited run took %d rounds over %d tenants, plain %d over %d",
					audited.Rounds, len(audited.Jobs), plain.Rounds, len(plain.Jobs))
			}
			for i, jr := range audited.Jobs {
				pj := plain.Jobs[i]
				if jr.Started != pj.Started || jr.Finished != pj.Finished || jr.Resizes != pj.Resizes || jr.Preemptions != pj.Preemptions {
					t.Errorf("tenant %s: audited %d..%d r%d p%d, plain %d..%d r%d p%d", jr.Name,
						jr.Started, jr.Finished, jr.Resizes, jr.Preemptions, pj.Started, pj.Finished, pj.Resizes, pj.Preemptions)
				}
			}
		})
	}
}

// TestRunningSnapshotAllocFree pins the snapshot's point: between
// mutations every Running() call returns the one shared slice and
// allocates nothing; a transition or a resize invalidates it, and the
// rebuild is a new slice, so a result taken earlier keeps its contents.
func TestRunningSnapshotAllocFree(t *testing.T) {
	f := &runner{table: newLeaseTable(8)}
	for i := 0; i < 3; i++ {
		tn := &tenant{JobResult: JobResult{Name: "t", ID: i, Started: -1}, min: 1, max: 4, state: stateQueued}
		f.tenants = append(f.tenants, tn)
	}
	ops := schedOps{f}
	if got := ops.Running(); got != nil {
		t.Fatalf("no tenant runs, Running() = %v", got)
	}
	f.transition(f.tenants[0], stateRunning, "test")
	f.transition(f.tenants[2], stateRunning, "test")
	before := ops.Running()
	if len(before) != 2 || cap(before) != 2 || before[0].ID != 0 || before[1].ID != 2 {
		t.Fatalf("Running() = %+v (cap %d), want tenants 0 and 2 in an exact-size slice", before, cap(before))
	}
	if got := testing.AllocsPerRun(100, func() {
		if v := ops.Running(); &v[0] != &before[0] {
			t.Fatal("Running() rebuilt its snapshot with no mutation in between")
		}
	}); got != 0 {
		t.Errorf("Running() allocated %v times between mutations, want 0", got)
	}
	f.transition(f.tenants[0], stateQueued, "test")
	after := ops.Running()
	if len(after) != 1 || after[0].ID != 2 {
		t.Fatalf("after a suspend Running() = %+v, want tenant 2 alone", after)
	}
	if len(before) != 2 || before[0].ID != 0 || &before[0] == &after[0] {
		t.Errorf("the rebuild overwrote the snapshot a caller still held: %+v", before)
	}
}

// TestRunningSnapshotExtendsOnAdmission pins admitRunning's append:
// placing tenants in id order extends the current snapshot instead of
// rebuilding it, and the append never reaches a slice Running served
// earlier — its length, capacity and contents stay — nor does a
// scheduler's append onto a served slice reach the runner's next one.
// Every snapshot deep-equals a fresh build, including after a
// placement that cannot extend (a lower id than the last view's).
func TestRunningSnapshotExtendsOnAdmission(t *testing.T) {
	f := &runner{table: newLeaseTable(8)}
	for i := 0; i < 5; i++ {
		f.tenants = append(f.tenants, &tenant{JobResult: JobResult{Name: "t", ID: i, Started: -1}, min: 1, max: 4, state: stateQueued})
	}
	ops := schedOps{f}
	fresh := func(what string, got []JobView) {
		t.Helper()
		if want := freshRunning(f); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Running() = %+v, a fresh build %+v", what, got, want)
		}
	}
	for i := 0; i < 3; i++ {
		f.admitRunning(f.tenants[i])
		if f.runViewsGen != f.gen {
			t.Fatalf("placing tenant %d left the snapshot stale: it was rebuilt, not extended", i)
		}
	}
	held := ops.Running()
	fresh("after three placements", held)
	if len(held) != 3 || cap(held) != 3 {
		t.Fatalf("Running() served len %d cap %d, want 3 and 3: a later append could write into it", len(held), cap(held))
	}
	want := append([]JobView(nil), held...)

	f.admitRunning(f.tenants[3])
	extended := ops.Running()
	fresh("after the fourth placement", extended)
	if &extended[0] != &held[0] {
		t.Error("the fourth placement rebuilt the snapshot instead of extending it")
	}
	if len(held) != 3 || cap(held) != 3 || !reflect.DeepEqual(held, want) {
		t.Errorf("the extension changed a snapshot served earlier: len %d cap %d %+v", len(held), cap(held), held)
	}

	// A scheduler appends onto both slices it was served.
	_ = append(held, JobView{ID: 99, Name: "scheduler"})
	_ = append(extended, JobView{ID: 98, Name: "scheduler"})
	next := ops.Running()
	fresh("after scheduler appends", next)
	f.admitRunning(f.tenants[4])
	fresh("after the fifth placement", ops.Running())

	// Suspending tenant 1 and placing it again: id 1 sorts before the
	// last view's, so the snapshot goes stale and is rebuilt.
	f.transition(f.tenants[1], stateQueued, "test")
	fresh("after a suspend", ops.Running())
	f.admitRunning(f.tenants[1])
	if f.runViewsGen == f.gen {
		t.Error("placing tenant 1 after tenant 4 extended the snapshot out of id order")
	}
	fresh("after resuming tenant 1", ops.Running())
}

// TestRetireClosesRuntime began as the regression test for leaked
// checkpoint writers, one goroutine per checkpointing runtime that only
// Runtime.Close stopped. A checkpoint is now a record on the runtime and
// trainer.New starts no goroutine, so the goroutine count guards what a
// tenant still runs on a goroutine — its runtime's one-ahead prepare —
// which a retired tenant must leave drained.
// The results must not notice the close, and every tenant reports its
// one save (iteration 2 of 4).
func TestRetireClosesRuntime(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	config := func(every int) Config {
		tmpl := newTrainTemplate(spec, corpus)
		tmpl.CheckpointEvery = every
		cfg := Config{Cluster: spec.Cluster, Policy: fifo}
		for i := 0; i < 16; i++ {
			cfg.Jobs = append(cfg.Jobs, JobSpec{Name: "ck", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 2})
		}
		return cfg
	}
	before := runtime.NumGoroutine()
	res, err := runChecked(t, config(2))
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the run, %d after: retired tenants leave goroutines running", before, after)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil || jr.Result == nil || len(jr.Result.Iterations) != 4 || jr.Result.CheckpointsSaved != 1 {
			t.Fatalf("tenant %d: %+v (result %+v)", jr.ID, jr, jr.Result)
		}
	}
}

// TestRetiredTenantsKeepResultsAndTraces guards retire dropping each
// tenant's runtime: sixteen identical tenants on 2-node leases
// retire in four waves with the GC run every round, and every tenant's
// JobResult.Result and trace must still equal every other's — what its
// Finish returned and what its runtime recorded — with the merged
// trace carrying all of their events.
func TestRetiredTenantsKeepResultsAndTraces(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := newTrainTemplate(spec, corpus)
	cfg := Config{Cluster: spec.Cluster, Policy: fifo, Trace: true, OnRound: func(RoundInfo) { runtime.GC() }}
	for i := 0; i < 16; i++ {
		cfg.Jobs = append(cfg.Jobs, JobSpec{Name: "r", Train: tmpl, Iters: 3, MinNodes: 2, MaxNodes: 2})
	}
	res, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	first := res.Jobs[0]
	if first.Err != nil || first.Result == nil || len(first.Result.Iterations) != 3 || first.Trace == nil {
		t.Fatalf("tenant 0: %+v", first)
	}
	want := traceBytes(t, first.Trace)
	waves := map[int]bool{}
	events := 0
	for _, jr := range res.Jobs {
		waves[jr.Finished] = true
		if !reflect.DeepEqual(jr.Result, first.Result) {
			t.Errorf("tenant %d (retired round %d): result %+v, tenant 0's %+v", jr.ID, jr.Finished, jr.Result, first.Result)
		}
		if jr.Trace == nil || !bytes.Equal(traceBytes(t, jr.Trace), want) {
			t.Errorf("tenant %d (retired round %d): trace differs from tenant 0's", jr.ID, jr.Finished)
		} else {
			events += jr.Trace.Len()
		}
	}
	if len(waves) != 4 {
		t.Errorf("tenants retired in %d rounds, want 4 waves", len(waves))
	}
	if got := res.Trace.Len(); got <= events {
		t.Errorf("merged trace holds %d events, the tenants' traces %d", got, events)
	}
}
