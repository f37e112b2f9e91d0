package disttrain

import (
	"bytes"
	"os/exec"
	"path/filepath"
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

// TestCLIRejectsBadArguments runs the real binaries on the argument
// holes that used to panic, print a table of zeros, or silently
// regenerate every experiment: each must exit 1 with one line on
// stderr.
func TestCLIRejectsBadArguments(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three binaries")
	}
	bin := t.TempDir()
	for _, cmd := range []string{"disttrain-fleet", "disttrain-data", "disttrain-bench"} {
		if out, err := exec.Command("go", "build", "-o", filepath.Join(bin, cmd), "./cmd/"+cmd).CombinedOutput(); err != nil {
			t.Fatalf("go build %s: %v\n%s", cmd, err, out)
		}
	}
	for _, tc := range []struct {
		cmd  string
		args []string
		want string
	}{
		{"disttrain-fleet", []string{"-jobs", "-1"}, "disttrain-fleet: -jobs must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "0"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-data", []string{"-samples", "-1"}, "disttrain-data: -samples must be at least 1\n"},
		{"disttrain-bench", []string{"fig13"}, "disttrain-bench: unexpected argument \"fig13\" (select an experiment with -experiment)\n"},
	} {
		t.Run(tc.cmd+" "+strings.Join(tc.args, " "), func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			c := exec.Command(filepath.Join(bin, tc.cmd), tc.args...)
			c.Stdout, c.Stderr = &stdout, &stderr
			err := c.Run()
			ee, ok := err.(*exec.ExitError)
			if !ok || ee.ExitCode() != 1 {
				t.Errorf("exit = %v, want status 1", err)
			}
			if stderr.String() != tc.want {
				t.Errorf("stderr = %q, want %q", stderr.String(), tc.want)
			}
			if stdout.Len() != 0 {
				t.Errorf("stdout not empty: %q", stdout.String())
			}
		})
	}
}
