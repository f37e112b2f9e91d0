package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/model"
	"disttrain/internal/trainer"
)

// TestFleetPipelinedByteIdentity is the pipelined-admission contract:
// the perturbed K-job fleet produces Results, counters and a merged
// trace byte-identical across planner-pool sizes and identical to the
// SequentialPlanners reference — landing rounds come from the costed
// latency model, never from how fast the pool physically ran. The CI
// race gate runs this under -race.
func TestFleetPipelinedByteIdentity(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	type outcome struct {
		jobs     []JobResult
		trace    []byte
		searches int64
		coal     int64
		overlap  int
	}
	strip := func(r *Result) outcome {
		jobs := append([]JobResult(nil), r.Jobs...)
		for i := range jobs {
			jobs[i].Trace = nil // compared via the merged trace bytes
		}
		return outcome{
			jobs: jobs, trace: traceBytes(t, r.Trace),
			searches: r.PlanSearches, coal: r.PlanCoalesced, overlap: r.PlanOverlapRounds,
		}
	}
	var want outcome
	for i, planners := range []int{SequentialPlanners, 1, 4, runtime.GOMAXPROCS(0)} {
		cfg := perturbedFleet(t, spec, corpus, 0)
		cfg.Planners = planners
		res, err := runChecked(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("planners %d: job %s failed: %v", planners, jr.Name, jr.Err)
			}
		}
		got := strip(res)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Errorf("planners %d: job results diverged from sequential reference", planners)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("planners %d: merged trace diverged (%d vs %d bytes)", planners, len(got.trace), len(want.trace))
		}
		if got.searches != want.searches || got.coal != want.coal || got.overlap != want.overlap {
			t.Errorf("planners %d: counters diverged: searches %d/%d coalesced %d/%d overlap %d/%d",
				planners, got.searches, want.searches, got.coal, want.coal, got.overlap, want.overlap)
		}
	}
}

// herdConfig builds one job spec plus a herd event submitting count-1
// extra instances at round 0: count near-identical tenants whose plan
// searches share one fingerprint.
func herdConfig(t *testing.T, nodes, count int) Config {
	t.Helper()
	spec, corpus := buildSpec(t, nodes, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	return Config{
		Cluster:  spec.Cluster,
		Jobs:     []JobSpec{{Name: "herd", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2}},
		Scenario: mustParse(t, fmt.Sprintf("herd:iter=0,job=0,count=%d", count-1)),
	}
}

// TestFleetHerdCoalescing pins the herd regression: K near-identical
// tenants arriving the same round pay for exactly one §4.3 search —
// K-1 admissions coalesce onto the in-flight wave, on either executor.
func TestFleetHerdCoalescing(t *testing.T) {
	const k = 4
	for _, tc := range []struct {
		name     string
		planners int
	}{
		{"sequential", SequentialPlanners},
		{"pool", 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := herdConfig(t, 2*k, k)
			cfg.Planners = tc.planners
			res, err := runChecked(t, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(res.Jobs) != k {
				t.Fatalf("herd ran %d tenants, want %d", len(res.Jobs), k)
			}
			for _, jr := range res.Jobs {
				if jr.Err != nil {
					t.Fatalf("job %s: %v", jr.Name, jr.Err)
				}
			}
			if res.PlanSearches != 1 {
				t.Errorf("herd of %d ran %d plan searches, want exactly 1", k, res.PlanSearches)
			}
			if res.PlanCoalesced != k-1 {
				t.Errorf("herd coalesced %d requests, want %d", res.PlanCoalesced, k-1)
			}
			// Identical tenants on identical leases train identically.
			for _, jr := range res.Jobs[1:] {
				if !reflect.DeepEqual(jr.Result, res.Jobs[0].Result) {
					t.Errorf("herd tenants diverged: %s vs %s", jr.Name, res.Jobs[0].Name)
				}
			}
		})
	}
}

// TestFleetHerdLandingDeterminism pins the costed landing model: a
// cold herd starts exactly planLatency rounds after arrival — the
// same round at every pool size — and a later identical arrival
// against the published plan starts the round it arrives.
func TestFleetHerdLandingDeterminism(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	lease := cluster.NewLease(0, 1)
	leaseSpec := spec
	leaseSpec.Cluster = lease.Subcluster(spec.Cluster)
	leaseSpec.MaxGPUs = 0
	cold := planLatency(leaseSpec, false)
	if cold < 1 {
		t.Fatalf("planLatency = %d, want >= 1", cold)
	}
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	sc := fmt.Sprintf("herd:iter=0,job=0,count=2; job-arrive:iter=%d,job=0", cold+1)
	for _, planners := range []int{SequentialPlanners, 1, 4, runtime.GOMAXPROCS(0)} {
		res, err := runChecked(t, Config{
			Cluster:  spec.Cluster,
			Jobs:     []JobSpec{{Name: "h", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 2}},
			Scenario: mustParse(t, sc),
			Planners: planners,
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != 4 {
			t.Fatalf("planners %d: ran %d tenants, want 4", planners, len(res.Jobs))
		}
		for _, jr := range res.Jobs[:3] {
			if jr.Err != nil {
				t.Fatalf("planners %d: job %s: %v", planners, jr.Name, jr.Err)
			}
			if jr.Started != jr.Arrived+cold {
				t.Errorf("planners %d: cold tenant %d started round %d, want arrival %d + latency %d",
					planners, jr.ID, jr.Started, jr.Arrived, cold)
			}
		}
		warm := res.Jobs[3]
		if warm.Err != nil {
			t.Fatalf("planners %d: warm arrival: %v", planners, warm.Err)
		}
		if warm.Started != warm.Arrived {
			t.Errorf("planners %d: settled-plan arrival started round %d, want its arrival round %d",
				planners, warm.Started, warm.Arrived)
		}
	}
}

// TestFleetOverlappedPlanning pins what reserve-then-land buys: while
// one tenant's cold search is in flight, already-admitted tenants
// keep stepping — the run records rounds where planning and training
// overlapped.
func TestFleetOverlappedPlanning(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	spec48 := spec
	spec48.GlobalBatch = 48 // distinct fingerprint, same calibration
	tmpl48 := trainer.DistTrainConfig(spec48, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "early", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 2},
			{Name: "late", Train: tmpl48, Iters: 2, MinNodes: 2, MaxNodes: 2, Arrive: 1},
		},
		Planners: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
	}
	if res.PlanSearches != 2 {
		t.Errorf("distinct fingerprints ran %d searches, want 2", res.PlanSearches)
	}
	if res.PlanOverlapRounds == 0 {
		t.Error("no round overlapped planning with training")
	}
	early := res.Jobs[0]
	if early.Started < 0 || len(early.Result.Iterations) != 6 {
		t.Errorf("early tenant did not run to completion: %+v", early)
	}
}

// TestFleetHerdFailureCoalesced: a herd whose shared search is
// infeasible coalesces onto one failing wave — one search, every
// member rejected with the same cached error — without poisoning a
// later feasible job.
func TestFleetHerdFailureCoalesced(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	badSpec := spec
	badSpec.Model = model.MLLM72B() // cannot fit a 1-node lease
	badTmpl := trainer.DistTrainConfig(badSpec, nil, corpus)
	goodTmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "bad", Train: badTmpl, Iters: 1, MinNodes: 1, MaxNodes: 1},
			{Name: "good", Train: goodTmpl, Iters: 1, MinNodes: 2, MaxNodes: 2, Arrive: 4},
		},
		Scenario: mustParse(t, "herd:iter=0,job=0,count=2"),
		Planners: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("ran %d tenants, want 4", len(res.Jobs))
	}
	var firstErr error
	var good JobResult
	for _, jr := range res.Jobs {
		if jr.Spec == 1 {
			good = jr
			continue
		}
		if jr.Err == nil {
			t.Fatalf("infeasible herd member %s was admitted", jr.Name)
		}
		if firstErr == nil {
			firstErr = jr.Err
		} else if jr.Err.Error() != firstErr.Error() {
			t.Errorf("herd member %s saw a different error: %v vs %v", jr.Name, jr.Err, firstErr)
		}
	}
	if good.Err != nil {
		t.Fatalf("feasible job after a failed herd: %v", good.Err)
	}
	if len(good.Result.Iterations) != 1 {
		t.Errorf("feasible job ran %d iterations, want 1", len(good.Result.Iterations))
	}
	if res.PlanSearches != 2 {
		t.Errorf("ran %d searches, want 2 (one failed herd wave + one feasible)", res.PlanSearches)
	}
	if res.PlanCoalesced != 2 {
		t.Errorf("coalesced %d requests, want 2", res.PlanCoalesced)
	}
}
