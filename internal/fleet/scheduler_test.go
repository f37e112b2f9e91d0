package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/orchestrator"
	"disttrain/internal/trainer"
)

// trainerTemplate builds the per-job training template off a spec.
func trainerTemplate(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus) trainer.Config {
	t.Helper()
	return trainer.DistTrainConfig(spec, nil, corpus)
}

// TestFairSharePure pins the share arithmetic, including the remainder
// fix: healthy%tenants no longer strands nodes — the remainder goes
// one node each to the lowest-ranked tenants, and shares always sum to
// the healthy fleet when there are at least as many nodes as tenants.
func TestFairSharePure(t *testing.T) {
	for _, tc := range []struct {
		healthy, tenants int
		want             []int // share per rank k
	}{
		{5, 3, []int{2, 2, 1}}, // the pre-fix case: floor stranded 2 nodes
		{5, 2, []int{3, 2}},
		{8, 2, []int{4, 4}}, // even split: byte-identical to the old floor
		{7, 3, []int{3, 2, 2}},
		{6, 1, []int{6}},
		{2, 5, []int{1, 1, 1, 1, 1}}, // oversubscribed: floor of 1 each
	} {
		for k, want := range tc.want {
			if got := fairShare(tc.healthy, tc.tenants, k); got != want {
				t.Errorf("fairShare(%d, %d, %d) = %d, want %d", tc.healthy, tc.tenants, k, got, want)
			}
		}
	}
	for healthy := 1; healthy <= 12; healthy++ {
		for tenants := 1; tenants <= healthy; tenants++ {
			sum := 0
			for k := 0; k < tenants; k++ {
				sum += fairShare(healthy, tenants, k)
			}
			if sum != healthy {
				t.Errorf("fairShare(%d, %d, ·) sums to %d: %d nodes stranded",
					healthy, tenants, sum, healthy-sum)
			}
		}
	}
	if clamp(5, 2, 3) != 3 || clamp(1, 2, 8) != 2 || clamp(2, 3, 1) != 1 {
		t.Error("clamp wrong")
	}
}

// TestFairShareNoIdleNodes is the remainder bugfix end-to-end: on a
// 5-node fleet with two elastic tenants, a node failure and rejoin,
// no healthy node may idle while any tenant sits below MaxNodes. The
// pre-fix floor target (5/2 = 2) left the rejoined node unleased
// forever. Both tenants are admitted at round 0 and run through round
// 5, so the failure and the rejoin sit at rounds 2 and 4.
func TestFairShareNoIdleNodes(t *testing.T) {
	spec, corpus := buildSpec(t, 5, 32)
	tmpl := trainerTemplate(t, spec, corpus)
	sawThree := false
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "a", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 5},
			{Name: "b", Train: tmpl, Iters: 6, MinNodes: 2, MaxNodes: 5},
		},
		Policy:   FairShare,
		Scenario: mustParse(t, "node-fail:iter=2,node=2; node-join:iter=4,node=2"),
		OnRound: func(info RoundInfo) {
			// Both tenants cap at the whole fleet, so any round with both
			// running and a free healthy node is a stranded remainder.
			if len(info.Leases) == 2 && len(info.Free) > 0 {
				t.Errorf("round %d: %d free nodes idle with both tenants below MaxNodes (leases %v)",
					info.Round, len(info.Free), info.Leases)
			}
			if len(info.Leases[0]) == 3 {
				sawThree = true
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
	}
	if !sawThree {
		t.Error("tenant a never held the 3-node remainder share")
	}
	// a's story: three resizes. It is granted the whole fleet at round 0
	// and shrunk to 3 nodes in that same round to admit b (the admit
	// shrink: a is already running, so MakeRoom can shrink it at once),
	// then shrinks on the failure and grows on the rejoin.
	if res.Jobs[0].Resizes != 3 {
		t.Errorf("tenant a resized %d times, want 3 (admit shrink, failure shrink, rejoin grow)",
			res.Jobs[0].Resizes)
	}
}

// TestPackNodes pins the priority scheduler's placement scoring:
// best-fit contiguous run (lowest index on ties), else whole runs
// largest-first.
func TestPackNodes(t *testing.T) {
	free := []int{0, 1, 2, 4, 5, 6, 7}
	for _, tc := range []struct {
		free  []int
		grant int
		want  []int
	}{
		{free, 2, []int{0, 1}}, // best fit: the 3-run beats the 4-run
		{free, 3, []int{0, 1, 2}},
		{free, 4, []int{4, 5, 6, 7}},
		{free, 5, []int{0, 4, 5, 6, 7}},     // no run fits: largest run whole, rest from next
		{[]int{0, 2, 4}, 2, []int{0, 2}},    // all fragments: lowest-index singles
		{[]int{0, 1, 3, 4}, 2, []int{0, 1}}, // tie on run length: lowest index
		{[]int{3, 4}, 2, []int{3, 4}},
	} {
		if got := packNodes(tc.free, tc.grant); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("packNodes(%v, %d) = %v, want %v", tc.free, tc.grant, got, tc.want)
		}
	}
}

// TestPriorityOrderAging pins the effective-priority arithmetic: class
// rank is worth agingRounds rounds of waiting, so a queued job ages
// past any fixed class in bounded time; suspended tenants win ties.
func TestPriorityOrderAging(t *testing.T) {
	p := &priorityScheduler{}
	high := JobView{ID: 2, Priority: classHigh}
	low := JobView{ID: 1, Priority: classLow}
	if !p.Order(high, low) || p.Order(low, high) {
		t.Error("fresh high must outrank fresh low")
	}
	agedLow := low
	agedLow.Waited = 2*agingRounds - 1
	if p.Order(agedLow, high) {
		t.Error("low aged less than 2*agingRounds must not outrank a fresh high")
	}
	agedLow.Waited = 2*agingRounds + 1
	if !p.Order(agedLow, high) {
		t.Error("low aged past 2*agingRounds must outrank a fresh high")
	}
	// Ties: suspended first (progress is sunk cost), then submission id.
	susp := JobView{ID: 5, Priority: classLow, Waited: 2 * agingRounds, Suspended: true}
	fresh := JobView{ID: 0, Priority: classHigh}
	if p.Effective(susp) != p.Effective(fresh) {
		t.Fatalf("fixture broken: eff %d vs %d", p.Effective(susp), p.Effective(fresh))
	}
	if !p.Order(susp, fresh) {
		t.Error("suspended tenant must win an effective-priority tie")
	}
	a, b := JobView{ID: 0, Priority: classNormal}, JobView{ID: 1, Priority: classNormal}
	if !p.Order(a, b) || p.Order(b, a) {
		t.Error("equal class and wait must fall back to submission order")
	}
	if got := p.Effective(JobView{Priority: classHigh, Waited: 3}); got != 2*agingRounds+3 {
		t.Errorf("high effective after 3 rounds = %d, want %d", got, 2*agingRounds+3)
	}
	if classLow.Rank() != 0 || Class("").Rank() != 1 || classNormal.Rank() != 1 || classHigh.Rank() != 2 {
		t.Error("class ranks changed")
	}
	if Class("").String() != "normal" {
		t.Error("empty class must render as normal")
	}
}

// TestJobSpecPriorityValidation: an unknown class fails Run with a
// clear error naming the job and the accepted classes.
func TestJobSpecPriorityValidation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainerTemplate(t, spec, corpus)
	_, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs:    []JobSpec{{Train: tmpl, Iters: 1, Priority: Class("urgent")}},
	})
	if err == nil {
		t.Fatal("unknown priority class accepted")
	}
	for _, needle := range []string{"job 0", "urgent", "low, normal or high"} {
		if !strings.Contains(err.Error(), needle) {
			t.Errorf("error %q missing %q", err, needle)
		}
	}
	for _, s := range []string{"", "low", "normal", "high"} {
		if _, perr := ParseClass(s); perr != nil {
			t.Errorf("ParseClass(%q): %v", s, perr)
		}
	}
}

// priorityFleet is the mixed-priority fixture: a low tenant holding
// the whole 4-node fleet, then a preempt-storm of high arrivals that
// evicts it; the low tenant resumes from checkpoints once the storm
// drains.
func priorityFleet(t *testing.T) Config {
	t.Helper()
	spec, corpus := buildSpec(t, 4, 32)
	tmpl := trainerTemplate(t, spec, corpus)
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "low", Train: tmpl, Iters: 4, MinNodes: 2, MaxNodes: 4, Priority: classLow},
			{Name: "high", Train: tmpl, Iters: 2, MinNodes: 2, MaxNodes: 2, Priority: classHigh, Arrive: 2},
		},
		Policy:   Priority,
		Scenario: mustParse(t, "preempt-storm:iter=2,job=1,count=2"),
		Trace:    true,
	}
}

// TestPriorityPreemptResume drives the tentpole end-to-end: a high
// gang preempts the running low tenant through the suspend path, the
// storm runs on packed placements, and the low tenant resumes via the
// costed checkpoint-restore and still finishes every iteration.
func TestPriorityPreemptResume(t *testing.T) {
	res, err := runChecked(t, priorityFleet(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 4 {
		t.Fatalf("fleet ran %d tenants, want 4 (low + high + 2 storm arrivals)", len(res.Jobs))
	}
	low := res.Jobs[0]
	if low.Err != nil {
		t.Fatal(low.Err)
	}
	if low.Priority != classLow || low.Preemptions != 1 {
		t.Errorf("low: class %q preemptions %d, want low/1", low.Priority, low.Preemptions)
	}
	if low.Resizes != 1 {
		t.Errorf("low resized %d times, want exactly 1 (the checkpoint-restore resume)", low.Resizes)
	}
	if got := len(low.Result.Iterations); got != 4 {
		t.Errorf("preempted low finished %d iterations, want all 4", got)
	}
	if low.Result.PlanSwitches == 0 || low.Result.DowntimeSeconds <= 0 {
		t.Errorf("resume was not a costed reconfiguration: switches=%d downtime=%g",
			low.Result.PlanSwitches, low.Result.DowntimeSeconds)
	}
	if low.Plan == nil {
		t.Error("low has no final plan")
	}
	for _, hi := range res.Jobs[1:] {
		if hi.Err != nil {
			t.Fatalf("high %s: %v", hi.Name, hi.Err)
		}
		if hi.Priority != classHigh || hi.Preemptions != 0 {
			t.Errorf("high %s: class %q preemptions %d", hi.Name, hi.Priority, hi.Preemptions)
		}
		if hi.Started < 2 {
			t.Errorf("high %s started round %d before its arrival", hi.Name, hi.Started)
		}
		if got := len(hi.Result.Iterations); got != 2 {
			t.Errorf("high %s finished %d iterations, want 2", hi.Name, got)
		}
	}
	// The merged trace tells the preemption story.
	trace := traceBytes(t, res.Trace)
	for _, needle := range []string{"job-preempt", "preempted by high"} {
		if !bytes.Contains(trace, []byte(needle)) {
			t.Errorf("merged trace missing %q", needle)
		}
	}
}

// TestPriorityDeterminism pins the mixed-priority contract of the
// redesign: the fixed arrival trace yields identical job results,
// identical per-round lease tables and an identical merged trace
// across reruns. The determinism gate reruns it at GOMAXPROCS=1.
func TestPriorityDeterminism(t *testing.T) {
	type outcome struct {
		jobs   []JobResult
		rounds []string
		trace  []byte
	}
	var want outcome
	for i := range 2 {
		cfg := priorityFleet(t)
		var rounds []string
		cfg.OnRound = func(info RoundInfo) {
			rounds = append(rounds, fmt.Sprintf("r%d free=%v failed=%v leases=%v",
				info.Round, info.Free, info.Failed, leaseLines(info.Leases)))
		}
		res, err := runChecked(t, cfg)
		if err != nil {
			t.Fatal(err)
		}
		jobs := append([]JobResult(nil), res.Jobs...)
		for j := range jobs {
			jobs[j].Trace = nil // compared via the merged trace bytes
		}
		got := outcome{jobs: jobs, rounds: rounds, trace: traceBytes(t, res.Trace)}
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Error("repeated run: job results diverged")
		}
		if !reflect.DeepEqual(got.rounds, want.rounds) {
			t.Errorf("repeated run: lease tables diverged:\n%v\nvs\n%v", got.rounds, want.rounds)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("repeated run: merged trace diverged (%d vs %d bytes)",
				len(got.trace), len(want.trace))
		}
	}
}

// leaseLines renders a lease map deterministically (sorted by tenant).
func leaseLines(leases map[int][]int) string {
	max := -1
	for id := range leases {
		if id > max {
			max = id
		}
	}
	var sb strings.Builder
	for id := 0; id <= max; id++ {
		if nodes, ok := leases[id]; ok {
			fmt.Fprintf(&sb, "%d:%v ", id, nodes)
		}
	}
	return sb.String()
}

// TestPriorityAgingBoundsStarvation: under a steady stream of
// higher-class arrivals, a low job starts in bounded time — once it has
// waited agingRounds rounds longer than the freshest normal arrival —
// instead of running dead last, after the stream.
func TestPriorityAgingBoundsStarvation(t *testing.T) {
	spec, corpus := buildSpec(t, 2, 16)
	tmpl := trainerTemplate(t, spec, corpus)
	// One normal-class arrival per round, each a one-iteration job on
	// the whole fleet, from round 1 to well past the aging horizon.
	const last = 3 * agingRounds
	var stream []string
	for r := 2; r <= last; r++ {
		stream = append(stream, fmt.Sprintf("priority-arrive:iter=%d,job=2", r))
	}
	res, err := runChecked(t, Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "hog", Train: tmpl, Iters: 1, MinNodes: 2, MaxNodes: 2},
			{Name: "low", Train: tmpl, Iters: 1, MinNodes: 2, MaxNodes: 2, Priority: classLow},
			{Name: "norm", Train: tmpl, Iters: 1, MinNodes: 2, MaxNodes: 2, Arrive: 1},
		},
		Policy:   Priority,
		Scenario: mustParse(t, strings.Join(stream, "; ")),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("job %s: %v", jr.Name, jr.Err)
		}
		if got := len(jr.Result.Iterations); got != 1 {
			t.Errorf("%s finished %d iterations, want 1", jr.Name, got)
		}
		// Preemption crosses class boundaries only: the normal-class
		// stream may evict the running low tenant, but nothing outranks
		// the normals themselves, and an aged queue position never
		// evicts (it only jumps the queue).
		if jr.Priority != classLow && jr.Preemptions != 0 {
			t.Errorf("%s preempted %d times with no higher class in the fleet", jr.Name, jr.Preemptions)
		}
	}
	// Until it has waited agingRounds rounds the low job loses to every
	// fresh normal arrival; from then on it outranks them, and it starts
	// while the stream is still arriving, not after it.
	if start := res.Jobs[1].Started; start < agingRounds || start >= last {
		t.Errorf("low started round %d, want in [%d, %d)", start, agingRounds, last)
	}
}

// TestSchedulerRegistry covers the built-in name table.
func TestSchedulerRegistry(t *testing.T) {
	if got, want := SchedulerNames(), []string{"fair-share", "fifo", "priority"}; !reflect.DeepEqual(got, want) {
		t.Errorf("SchedulerNames() = %v, want %v (sorted)", got, want)
	}
	if s, err := LookupScheduler("fifo"); err != nil || s.Name() != "fifo" {
		t.Errorf("LookupScheduler(fifo) = %v, %v", s, err)
	}
	if _, err := LookupScheduler("lifo"); err == nil {
		t.Error("LookupScheduler invented a scheduler")
	}
}
