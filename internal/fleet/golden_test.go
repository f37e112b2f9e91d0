package fleet

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

// newTrainTemplate builds the plain training template the golden
// fixtures share.
func newTrainTemplate(spec orchestrator.Spec, corpus *data.Corpus) trainer.Config {
	return trainer.DistTrainConfig(spec, nil, corpus)
}

// -update rewrites the golden lease-table fixtures. The committed
// goldens are what the last commit that still had inline admission
// wrote for these fixtures at Planners: SequentialPlanners: deleting
// that mode had to reproduce them byte-for-byte, and so must any later
// fleet-core refactor.
var updateGolden = flag.Bool("update", false, "rewrite golden lease-table fixtures")

// leaseTableLog renders a fleet run's complete scheduling story as a
// canonical text form: every round's lease table (free, failed and
// per-tenant node sets), the plan-cache traffic, and each tenant's
// final scheduling summary. Everything the scheduler decides is
// visible here; two runs with equal logs made identical decisions.
func leaseTableLog(t *testing.T, cfg Config) string {
	t.Helper()
	var b strings.Builder
	cfg.OnRound = func(info RoundInfo) {
		fmt.Fprintf(&b, "round %d free=%v failed=%v leases={", info.Round, info.Free, info.Failed)
		ids := make([]int, 0, len(info.Leases))
		for id := range info.Leases {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for i, id := range ids {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%d:%v", id, info.Leases[id])
		}
		b.WriteString("}\n")
	}
	res, err := runChecked(t, cfg)
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(&b, "rounds=%d searches=%d hits=%d\n", res.Rounds, res.PlanSearches, res.PlanHits)
	for _, jr := range res.Jobs {
		fmt.Fprintf(&b, "job %d %s spec=%d arrived=%d started=%d finished=%d resizes=%d departed=%v err=%v\n",
			jr.ID, jr.Name, jr.Spec, jr.Arrived, jr.Started, jr.Finished, jr.Resizes, jr.Departed, jr.Err)
		if jr.Result != nil {
			fmt.Fprintf(&b, "  iters=%d switches=%d strategy=%s\n",
				len(jr.Result.Iterations), jr.Result.PlanSwitches, jr.Strategy)
		}
	}
	return b.String()
}

// goldenCompare checks the log against testdata/<name>.golden,
// rewriting it under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
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
		t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
	}
	if got != string(want) {
		t.Errorf("%s diverged from the golden:\n--- got ---\n%s--- want ---\n%s", name, got, want)
	}
}

// fifoGoldenFleet is the FIFO golden fixture: lease sizing, placement,
// reserve-then-land rounds, shrink-on-failure, head-of-line blocking.
func fifoGoldenFleet(t *testing.T) Config {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := newTrainTemplate(spec, corpus)
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 5, MinNodes: 2, MaxNodes: 4},
			{Name: "b", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 4},
			{Name: "c", Train: tmpl, Iters: 3, MinNodes: 2, MaxNodes: 8, Arrive: 1},
		},
		Policy:   fifo,
		Scenario: mustParse(t, "node-fail:iter=2,node=1; node-join:iter=4,node=1"),
	}
}

// fairShareGoldenFleet is the FairShare golden fixture: equal shares,
// shrink-to-admit, grow-on-departure. It keeps every share division
// even (8 nodes, at most 2 active tenants), so the deliberate
// remainder bugfix (fairShare distributing healthy%tenants) does not
// perturb it. Tenant a's cold plan lands at round 2, so its departure
// sits at round 5: it leaves after 3 of its 6 iterations, with b
// running beside it.
func fairShareGoldenFleet(t *testing.T) Config {
	spec, corpus := buildSpec(t, 8, 32)
	tmpl := newTrainTemplate(spec, corpus)
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8},
			{Name: "b", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 8, Arrive: 1},
		},
		Policy:   FairShare,
		Scenario: mustParse(t, "job-depart:iter=5,job=0"),
	}
}

// TestGoldenFIFOLeaseTable pins FIFO's scheduling decisions against
// the golden.
func TestGoldenFIFOLeaseTable(t *testing.T) {
	goldenCompare(t, "fifo_lease_table", leaseTableLog(t, fifoGoldenFleet(t)))
}

// TestGoldenFairShareLeaseTable pins FairShare's decisions against the
// golden.
func TestGoldenFairShareLeaseTable(t *testing.T) {
	goldenCompare(t, "fairshare_lease_table", leaseTableLog(t, fairShareGoldenFleet(t)))
}

// traceDigest is one line of a trace-bytes golden: the event count and
// the size and hash of the trace's WriteJSON output.
func traceDigest(t *testing.T, tr *metrics.Trace) string {
	t.Helper()
	b := traceBytes(t, tr)
	return fmt.Sprintf("events=%d bytes=%d sha256=%x", tr.Len(), len(b), sha256.Sum256(b))
}

// TestGoldenTraceBytes pins the written trace bytes — the merged fleet
// timeline and every tenant's own — of the two lease-table fixtures
// and the mixed-priority fixture (one preemption, one resize). The
// committed digests were written by the sharded per-lane recorder that
// encoded []TraceEvent through encoding/json; a recorder or encoder
// change has to reproduce them byte for byte.
func TestGoldenTraceBytes(t *testing.T) {
	for _, fx := range []struct {
		name string
		cfg  func(*testing.T) Config
	}{
		{"fifo", fifoGoldenFleet},
		{"fairshare", fairShareGoldenFleet},
		{"priority", func(t *testing.T) Config { return priorityFleet(t, 0) }},
	} {
		cfg := fx.cfg(t)
		cfg.Trace = true
		res, err := runChecked(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		fmt.Fprintf(&b, "merged %s\n", traceDigest(t, res.Trace))
		for _, jr := range res.Jobs {
			if jr.Trace == nil {
				fmt.Fprintf(&b, "job %d %s no trace\n", jr.ID, jr.Name)
				continue
			}
			fmt.Fprintf(&b, "job %d %s %s\n", jr.ID, jr.Name, traceDigest(t, jr.Trace))
		}
		goldenCompare(t, fx.name+"_trace_digest", b.String())
	}
}
