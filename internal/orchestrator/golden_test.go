package orchestrator

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the sweep plan golden")

// TestSweepPlanGolden pins the plan of each of the twelve sweepSpecs
// one node either side of Table 3's sizes and at them: 36 plans. Table
// 3's own test times the planner, so no paper-table golden holds
// these plans; this one is the byte-identity oracle for a change to
// the search, its bounds or its exact solve.
func TestSweepPlanGolden(t *testing.T) {
	var b strings.Builder
	for _, s := range sweepSpecs(t) {
		for _, d := range []int{-1, 0, 1} {
			s.Cluster.Nodes += d
			plan, err := PlanDistTrain(s)
			if err != nil {
				t.Fatalf("%s nodes=%d: %v", s.Model.Name, s.Cluster.Nodes, err)
			}
			fmt.Fprintf(&b, "%s freeze=%s nodes=%d batch=%d\n%s", s.Model.Name,
				s.Profiler.Options().Freeze.Name, s.Cluster.Nodes, s.GlobalBatch, plan)
			s.Cluster.Nodes -= d
		}
	}
	got := b.String()

	const path = "testdata/sweep_plans.golden"
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		t.Errorf("sweep plans drifted from their golden\n--- want\n%s--- got\n%s", want, got)
	}
}
