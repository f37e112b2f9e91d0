package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

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
// the first admission runs it, the other K-1 are cache hits — whether
// tenants read the corpus ("sequential") or fetch every batch from the
// fleet's shared producer pool over TCP ("pool").
func TestFleetHerdCoalescing(t *testing.T) {
	const k = 4
	for _, tc := range []struct {
		name string
		pool bool
	}{
		{"sequential", false},
		{"pool", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := herdConfig(t, 2*k, k)
			if tc.pool {
				cfg.Preprocess = PreprocessFor(cfg.Jobs[0].Train, 2)
			}
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
			if res.PlanSearches != 1 || res.PlanHits != k-1 {
				t.Errorf("herd of %d ran %d plan searches and %d hits, want 1 and %d", k, res.PlanSearches, res.PlanHits, k-1)
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

// TestFleetPipelinedByteIdentity is the admission contract while other
// tenants train: a herd and a scenario arrival are planned and placed
// at their reservation rounds while admitted tenants step, and the
// Results, plan-cache counters, pruned candidates (as the cache's
// observer counts them) and merged trace are byte-identical across
// repeated runs, each on a fresh plan cache.
func TestFleetPipelinedByteIdentity(t *testing.T) {
	spec, corpus := buildSpec(t, 8, 32)
	type outcome struct {
		jobs                                  []JobResult
		trace                                 []byte
		searches, hits, warmSeeds, prunedCand int64
	}
	var want outcome
	for i := range 2 {
		cfg := perturbedFleet(t, spec, corpus)
		var pruned int64
		cfg.Cache = orchestrator.NewPlanCache(orchestrator.SearchOptions{
			OnCandidate: func(_ orchestrator.Candidate, _ *orchestrator.Plan, err error) {
				if errors.Is(err, orchestrator.ErrCandidatePruned) {
					pruned++
				}
			},
		})
		cfg.Scenario = mustParse(t, "herd:iter=1,job=1,count=1; job-arrive:iter=3,job=1; node-fail:iter=2,node=6; node-join:iter=4,node=6")
		res, err := runChecked(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("run %d: job %s failed: %v", i, jr.Name, jr.Err)
			}
		}
		jobs := append([]JobResult(nil), res.Jobs...)
		for j := range jobs {
			jobs[j].Trace = nil // compared via the merged trace bytes
		}
		got := outcome{
			jobs: jobs, trace: traceBytes(t, res.Trace),
			searches: res.PlanSearches, hits: res.PlanHits,
			warmSeeds: res.PlanWarmSeeds, prunedCand: pruned,
		}
		if i == 0 {
			if len(jobs) != 4 || got.hits == 0 {
				t.Fatalf("reference run admitted %d tenants with %d plan hits; want 4 and some hits", len(jobs), got.hits)
			}
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Error("repeated run: job results diverged")
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("repeated run: merged trace diverged (%d vs %d bytes)", len(got.trace), len(want.trace))
		}
		if got.searches != want.searches || got.hits != want.hits ||
			got.warmSeeds != want.warmSeeds || got.prunedCand != want.prunedCand {
			t.Errorf("repeated run: plan counters diverged: searches %d/%d hits %d/%d warm seeds %d/%d pruned %d/%d",
				got.searches, want.searches, got.hits, want.hits,
				got.warmSeeds, want.warmSeeds, got.prunedCand, want.prunedCand)
		}
	}
}

// TestFleetHerdLandingDeterminism pins synchronous admission: with
// capacity free, every admission starts the round it arrives, however
// its plan is found. A cold herd of two on 2-node leases pays one search
// and one hit at round 0; a 3-node tenant arriving at round 1 runs a
// search warm-seeded from the 2-node plan; a third 2-node tenant
// arriving at round 2 is a plain hit.
func TestFleetHerdLandingDeterminism(t *testing.T) {
	spec, corpus := buildSpec(t, 10, 32)
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "h", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 2},
			{Name: "seeded", Train: tmpl, Iters: 4, MinNodes: 3, MaxNodes: 3, Arrive: 1},
		},
		Scenario: mustParse(t, "herd:iter=0,job=0,count=1; job-arrive:iter=2,job=0"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("ran %d tenants, want 4", len(res.Jobs))
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if jr.Started != jr.Arrived {
			t.Errorf("tenant %s arrived round %d but started round %d", jr.Name, jr.Arrived, jr.Started)
		}
	}
	if res.PlanSearches != 2 || res.PlanWarmSeeds != 1 || res.PlanHits != 2 {
		t.Errorf("%d searches, %d warm-seeded, %d hits; want 2 (one cold, one seeded), 1 and 2",
			res.PlanSearches, res.PlanWarmSeeds, res.PlanHits)
	}
}

// TestFleetHerdFailureCoalesced: a herd whose shared search is
// infeasible pays for it once — one search, every later member a hit
// rejected with the same cached error — without poisoning a later
// feasible job.
func TestFleetHerdFailureCoalesced(t *testing.T) {
	spec, corpus := buildSpec(t, 4, 32)
	badSpec, _ := buildModelSpec(t, model.MLLM72B(), 4, 32) // cannot fit a 1-node lease
	badTmpl := trainer.DistTrainConfig(badSpec, nil, corpus)
	goodTmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "bad", Train: badTmpl, Iters: 1, MinNodes: 1, MaxNodes: 1},
			{Name: "good", Train: goodTmpl, Iters: 1, MinNodes: 2, MaxNodes: 2, Arrive: 4},
		},
		Scenario: mustParse(t, "herd:iter=0,job=0,count=2"),
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
		if jr.Err == nil || !strings.Contains(jr.Err.Error(), "no feasible plan (cluster too small for the model)") {
			t.Fatalf("infeasible herd member %s: got %v, want the search's infeasibility", jr.Name, jr.Err)
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
	if res.PlanSearches != 2 || res.PlanHits != 2 {
		t.Errorf("ran %d searches and %d hits, want 2 (the failed herd's and the feasible job's) and 2", res.PlanSearches, res.PlanHits)
	}
}
