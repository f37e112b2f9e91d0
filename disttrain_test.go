package disttrain

import (
	"strings"
	"testing"
)

func TestFacadeEndToEnd(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalGPUs() > 32 {
		t.Fatalf("plan exceeds fleet: %d GPUs", plan.TotalGPUs())
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 || res.TokensPerSec <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestFacadeBaselines(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	mg, err := PlanMegatron(spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(NewMegatronTrainConfig(spec, mg, corpus), 1); err != nil {
		t.Fatal(err)
	}
	if _, err := PlanDistMM(spec); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeFrozen(t *testing.T) {
	spec, corpus, err := NewSpecFrozen(MLLM9B(), 4, 32, LLMOnly)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(NewTrainConfig(spec, plan, corpus), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.MFU <= 0 {
		t.Fatal("frozen run produced no MFU")
	}
}

func TestExperimentRegistry(t *testing.T) {
	ids := ExperimentIDs()
	if len(ids) < 10 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
	if _, err := Experiment("nope", true); err == nil {
		t.Error("unknown experiment accepted")
	}
	tb, err := Experiment("table2", true)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 3 {
		t.Errorf("table2 rows = %d", len(tb.Rows))
	}
	if out := tb.Render(); len(out) == 0 {
		t.Error("empty render")
	}
}

func TestFacadeFleet(t *testing.T) {
	spec, corpus, err := NewSpec(MLLM9B(), 4, 32)
	if err != nil {
		t.Fatal(err)
	}
	for name, want := range map[string]string{
		"fifo": "fifo", "fair-share": "fair-share", "fair": "fair-share", "priority": "priority",
	} {
		if got, err := ParseFleetPolicy(name); err != nil || got.Name() != want {
			t.Errorf("ParseFleetPolicy(%q) = %v, %v, want %s", name, got, err, want)
		}
	}
	// The unknown-name error lists the registered schedulers.
	if _, err := ParseFleetPolicy("nope"); err == nil || !strings.Contains(err.Error(), "fifo") {
		t.Errorf("ParseFleetPolicy(nope) error %v should list registered names", err)
	}
	pol, err := ParseFleetPolicy("fair-share")
	if err != nil {
		t.Fatal(err)
	}
	if l := NewLease(1, 0); l.NodeCount() != 2 {
		t.Fatalf("lease %v", l)
	}
	cache := NewPlanCache(SearchOptions{})
	tmpl := NewTrainConfig(spec, nil, corpus)
	res, err := RunFleet(FleetConfig{
		Cluster: spec.Cluster,
		Jobs: []FleetJobSpec{
			{Name: "x", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
			{Name: "y", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2},
		},
		Policy: pol,
		Cache:  cache,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.PlanSearches != 1 || res.PlanCoalesced != 1 {
		t.Errorf("shared cache: %d searches, %d coalesced", res.PlanSearches, res.PlanCoalesced)
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
