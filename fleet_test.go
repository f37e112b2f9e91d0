package disttrain

import (
	"strings"
	"testing"

	"disttrain/internal/experiments"
	"disttrain/internal/fleet"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

// TestFacadeFleet composes a fleet the way disttrain-fleet does —
// experiments.NewSpec, a scheduler looked up by name, a DistTrain
// template and fleet.Run — with a caller-held plan cache: two
// identical tenants pay for one search, and the cache stays warm.
func TestFacadeFleet(t *testing.T) {
	spec, corpus, err := experiments.NewSpec(model.MLLM9B(), 4, 32, model.FullTraining)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"fifo": "fifo", "fair-share": "fair-share", "fair": "fair-share", "priority": "priority",
	} {
		if got, err := fleet.LookupScheduler(name); err != nil || got.Name() != want {
			t.Errorf("LookupScheduler(%q) = %v, %v, want %s", name, got, err, want)
		}
	}
	// The unknown-name error lists the registered schedulers.
	if _, err := fleet.LookupScheduler("nope"); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("LookupScheduler(nope) error %v should list registered names", err)
	}
	pol, err := fleet.LookupScheduler("fair-share")
	if err != nil {
		t.Fatal(err)
	}
	cache := orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	res, err := fleet.Run(fleet.Config{
		Cluster: spec.Cluster,
		Jobs: []fleet.JobSpec{
			{Name: "x", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
			{Name: "y", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
		},
		Policy: pol,
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSearches != 1 || res.PlanHits != 1 {
		t.Errorf("shared cache: %d searches, %d hits", res.PlanSearches, res.PlanHits)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if jr.Result.MFU <= 0 {
			t.Errorf("job %s: implausible MFU", jr.Name)
		}
	}
	// The shared cache is warm for the next fleet with the same spec.
	if cache.Len() != 1 {
		t.Errorf("cache holds %d fingerprints", cache.Len())
	}
}
