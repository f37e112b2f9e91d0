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
		{"node-fail+depart/fair-share", perturbedFleet(t, spec, corpus, 0)},
		{"shrink-grow/fair-share", fairShareGoldenFleet(t)},
		{"node-fail/fifo", fifoGoldenFleet(t)},
		{"preempt-storm/priority", priorityFleet(t, 0)},
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
		tn := &tenant{id: i, name: "t", min: 1, max: 4, started: -1, state: stateQueued}
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

// TestRetireClosesRuntime is the regression test for the leaked
// checkpoint writers: trainer.New starts one goroutine per runtime
// with CheckpointEvery > 0 and only Runtime.Close stops it, so a fleet
// that never closed its retired tenants' runtimes ended a 16-tenant
// run with 16 goroutines more than it began with. The results must not
// notice the close.
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
		t.Errorf("%d goroutines before the run, %d after: retired tenants leak their checkpoint writers", before, after)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil || jr.Result == nil || len(jr.Result.Iterations) != 4 || jr.Result.CheckpointsSaved != 1 {
			t.Fatalf("tenant %d: %+v (result %+v)", jr.ID, jr, jr.Result)
		}
	}
}

// TestRetiredTenantsKeepResultsAndTraces guards retire dropping each
// tenant's runtime and Job: sixteen identical tenants on 2-node leases
// retire in four waves with the GC run every round, and every tenant's
// JobResult.Result and trace must still equal every other's — what its
// Job.Finish returned and what its runtime recorded — with the merged
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
