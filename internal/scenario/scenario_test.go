package scenario

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/pipeline"
)

func TestScheduleEventsAt(t *testing.T) {
	s, err := newSchedule("t",
		Event{Kind: straggler, Start: 2, End: 5, Rank: 0, Stage: -1, Factor: 2},
		Event{Kind: linkCongestion, Start: 3, End: 4, Rank: -1, Stage: -1, Factor: 3},
		Event{Kind: nodeFailure, Start: 4, Downtime: 10},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventsAt(0); len(got) != 0 {
		t.Errorf("iteration 0 perturbed: %v", got)
	}
	if got := s.EventsAt(2); len(got) != 1 || got[0].Kind != straggler {
		t.Errorf("iteration 2 = %v, want one straggler", got)
	}
	if got := s.EventsAt(3); len(got) != 2 {
		t.Errorf("iteration 3 = %v, want straggler+congestion", got)
	}
	p := At(s, 4)
	if _, ok := p.Failure(); !ok {
		t.Error("iteration 4 should fail")
	}
	if got := s.EventsAt(5); len(got) != 0 {
		t.Errorf("half-open window leaked into iteration 5: %v", got)
	}
}

func TestEventValidate(t *testing.T) {
	for _, bad := range []Event{
		{Kind: straggler, Start: 2, End: 2, Factor: 2},
		{Kind: straggler, Start: -1, End: 3, Factor: 2},
		{Kind: linkCongestion, Start: 0, End: 1, Factor: 0.5},
		{Kind: preprocessDegrade, Start: 0, End: 1, Factor: math.NaN()},
		{Kind: nodeFailure, Start: 0, Downtime: -1},
		{Kind: nodeFailure, Start: 0, Downtime: math.NaN()},
		{Kind: nodeFailure, Start: 0, Downtime: math.Inf(1)},
		{Kind: workloadShift, Start: 0, End: 1, Factor: 0.5},
		{Kind: straggler, Start: 0, End: 1, Factor: 2e9},
		{Kind: straggler, Start: 0, End: 1, Factor: math.Inf(1)},
		{Kind: straggler, Start: 0, End: 1, Factor: 2, From: math.NaN()},
		{Kind: straggler, Start: 0, End: 1, Factor: 2, Until: math.Inf(1)},
		{Kind: straggler, Start: 0, End: 1, Factor: 2, From: -1},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("event %+v accepted", bad)
		}
	}
}

func TestPerturbationFactors(t *testing.T) {
	s, err := newSchedule("t",
		Event{Kind: preprocessDegrade, Start: 0, End: 2, Factor: 4},
		Event{Kind: linkCongestion, Start: 1, End: 2, Factor: 3},
		Event{Kind: linkCongestion, Start: 1, End: 3, Factor: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := At(s, 1)
	if got := p.PreprocessFactor(); got != 4 {
		t.Errorf("preprocess factor = %g, want 4", got)
	}
	if got := p.P2PFactor(); got != 6 {
		t.Errorf("congestion factors should compose: got %g, want 6", got)
	}
	if !At(s, 9).Steady() {
		t.Error("iteration 9 should be steady")
	}
	if At(nil, 0).PreprocessFactor() != 1 || At(nil, 0).P2PFactor() != 1 {
		t.Error("nil scenario should be the steady state")
	}
}

// TestStackedFactorsStayFinite: per-event validation bounds each
// factor by maxFactor, but events may stack without limit on one
// iteration — the combined factor (and the combined straggler rate)
// must clamp instead of overflowing to +Inf / underflowing to 0.
func TestStackedFactorsStayFinite(t *testing.T) {
	var events []Event
	for i := 0; i < 40; i++ {
		events = append(events,
			Event{Kind: linkCongestion, Start: 0, End: 1, Factor: maxFactor},
			Event{Kind: straggler, Start: 0, End: 1, Rank: -1, Stage: -1, Factor: maxFactor})
	}
	s, err := newSchedule("stack", events...)
	if err != nil {
		t.Fatal(err)
	}
	p := At(s, 0)
	if got := p.P2PFactor(); got != maxFactor {
		t.Errorf("stacked congestion factor = %g, want clamped to %g", got, maxFactor)
	}
	for _, sched := range p.RateSchedules(0, 2) {
		for _, seg := range sched {
			if seg.Rate < 1/maxFactor || math.IsNaN(seg.Rate) {
				t.Errorf("stacked straggler rate %g below the 1/MaxFactor clamp", seg.Rate)
			}
		}
	}
}

func TestRateSchedules(t *testing.T) {
	s, err := newSchedule("t",
		Event{Kind: straggler, Start: 0, End: 1, Rank: 1, Stage: 2, Factor: 2},
		Event{Kind: straggler, Start: 0, End: 1, Rank: -1, Stage: 0, Factor: 4, From: 1, Until: 3},
	)
	if err != nil {
		t.Fatal(err)
	}
	p := At(s, 0)

	// Rank 0 only sees the windowed all-rank stage-0 straggler.
	r0 := p.RateSchedules(0, 4)
	if r0 == nil {
		t.Fatal("rank 0 should be perturbed")
	}
	want := pipeline.RateSchedule{{Until: 1, Rate: 1}, {Until: 3, Rate: 0.25}}
	if !reflect.DeepEqual(r0[0], want) {
		t.Errorf("rank 0 stage 0 schedule = %v, want %v", r0[0], want)
	}
	for s := 1; s < 4; s++ {
		if len(r0[s]) != 0 {
			t.Errorf("rank 0 stage %d unexpectedly perturbed: %v", s, r0[s])
		}
	}

	// Rank 1 additionally runs stage 2 at half speed all iteration.
	r1 := p.RateSchedules(1, 4)
	if len(r1[2]) != 1 || !math.IsInf(r1[2][0].Until, 1) || r1[2][0].Rate != 0.5 {
		t.Errorf("rank 1 stage 2 schedule = %v", r1[2])
	}

	// Unaffected rank stays rate-free... rank 2 still matches the
	// all-rank event, so check a scenario without it.
	only, _ := newSchedule("t2", Event{Kind: straggler, Start: 0, End: 1, Rank: 0, Stage: -1, Factor: 2})
	if got := At(only, 0).RateSchedules(3, 4); got != nil {
		t.Errorf("unaffected rank got schedules: %v", got)
	}

	// A from-only window is open-ended from From — it must NOT widen to
	// the whole iteration.
	tail, err := newSchedule("t3", Event{Kind: straggler, Start: 0, End: 1, Rank: -1, Stage: -1, Factor: 2, From: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	got := At(tail, 0).RateSchedules(0, 1)[0]
	wantTail := pipeline.RateSchedule{{Until: 0.5, Rate: 1}, {Until: math.Inf(1), Rate: 0.5}}
	if !reflect.DeepEqual(got, wantTail) {
		t.Errorf("from-only window schedule = %v, want %v", got, wantTail)
	}
}

func TestRandomStragglersDeterministic(t *testing.T) {
	g := randomStragglers{Seed: 7, Ranks: 8, Prob: 0.5, Max: 3}
	sawOne := false
	for i := 0; i < 20; i++ {
		a, b := g.EventsAt(i), g.EventsAt(i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("iteration %d nondeterministic: %v vs %v", i, a, b)
		}
		if len(a) > 0 {
			sawOne = true
			for _, e := range a {
				if e.Factor < 1 || e.Factor > 3 || e.Rank < 0 || e.Rank >= 8 {
					t.Errorf("implausible straggler %+v", e)
				}
			}
		}
	}
	if !sawOne {
		t.Error("p=0.5 over 20 iterations x 8 ranks produced no stragglers")
	}
	// Different seeds diverge somewhere.
	other := randomStragglers{Seed: 8, Ranks: 8, Prob: 0.5, Max: 3}
	same := true
	for i := 0; i < 20; i++ {
		if !reflect.DeepEqual(g.EventsAt(i), other.EventsAt(i)) {
			same = false
		}
	}
	if same {
		t.Error("seeds 7 and 8 generated identical straggler schedules")
	}
}

// Pool-membership events fire once, don't perturb the cost model, and
// surface through PoolEvents.
func TestProducerEvents(t *testing.T) {
	s, err := newSchedule("t",
		Event{Kind: ProducerFail, Start: 2, Producer: 1},
		Event{Kind: ProducerJoin, Start: 4, Producer: 1},
	)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventsAt(3); len(got) != 0 {
		t.Errorf("fire-once event leaked into iteration 3: %v", got)
	}
	p := At(s, 2)
	if !p.Steady() {
		t.Error("pool-membership events must not mark the iteration perturbed")
	}
	if p.PreprocessFactor() != 1 || p.P2PFactor() != 1 {
		t.Error("pool-membership events must not scale cost factors")
	}
	ev := p.PoolEvents()
	if len(ev) != 1 || ev[0].Kind != ProducerFail || ev[0].Producer != 1 {
		t.Errorf("PoolEvents at 2 = %v", ev)
	}
	if ev := At(s, 4).PoolEvents(); len(ev) != 1 || ev[0].Kind != ProducerJoin {
		t.Errorf("PoolEvents at 4 = %v", ev)
	}
	// A cost event still breaks steadiness even alongside pool events.
	mixed, err := newSchedule("m",
		Event{Kind: ProducerFail, Start: 0, Producer: 0},
		Event{Kind: straggler, Start: 0, End: 1, Rank: -1, Stage: -1, Factor: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	if At(mixed, 0).Steady() {
		t.Error("straggler alongside pool event reported steady")
	}
	// Negative producer index is rejected.
	if err := (Event{Kind: ProducerFail, Start: 0, Producer: -1}).Validate(); err == nil {
		t.Error("negative producer accepted")
	}
}

func TestParse(t *testing.T) {
	s, err := Parse("straggler:iters=2-5,rank=0,factor=2.5; congestion:iter=3,factor=3; failure:iter=6,downtime=12; preprocess:iters=0-1,factor=4")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.EventsAt(5); len(got) != 1 || got[0].Kind != straggler {
		t.Errorf("inclusive iters upper bound broken: %v", got)
	}
	if got := s.EventsAt(3); len(got) != 2 {
		t.Errorf("iteration 3 = %v, want straggler+congestion", got)
	}
	ev, ok := At(s, 6).Failure()
	if !ok || ev.Downtime != 12 {
		t.Errorf("failure = %+v ok=%v", ev, ok)
	}

	pe, err := Parse("producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1")
	if err != nil {
		t.Fatal(err)
	}
	if got := At(pe, 2).PoolEvents(); len(got) != 1 || got[0].Kind != ProducerFail || got[0].Producer != 1 {
		t.Errorf("parsed producer-fail = %v", got)
	}
	if got := At(pe, 4).PoolEvents(); len(got) != 1 || got[0].Kind != ProducerJoin {
		t.Errorf("parsed producer-join = %v", got)
	}

	g, err := Parse("random-stragglers:seed=3,ranks=4,prob=0.9,max=2")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := g.(randomStragglers); !ok {
		t.Fatalf("got %T, want RandomStragglers", g)
	}

	for _, bad := range []string{
		"",
		"warp:iter=1",
		"straggler:factor=2",                        // missing iteration window
		"straggler:iters=5-2,factor=2",              // empty window
		"congestion:iter=1,factor=0.2",              // factor < 1
		"failure:iter=2,downtime=-3",                // negative downtime
		"failure:iter=2,downtime=nan",               // non-finite downtime
		"straggler:iter=1,volume=9",                 // unknown key
		"straggler:iter=1,from=nan",                 // non-finite window bound
		"straggler:iter=1,iters=2-4,factor=2",       // iter and iters collide
		"straggler:iter=1;random-stragglers:seed=1", // generator mixed with events
		"producer-fail:iter=1,producer=-2",          // negative producer
		"straggler:iter=1,producer=0",               // producer on a non-pool event
		"congestion:iter=1,rank=0",                  // rank on a fabric-wide event
		"workload-shift:iter=1,stage=2",             // stage on a data event
		"failure:iter=2,factor=3",                   // factor on a fire-once event
		"failure:iters=2-5",                         // window on a fire-once event
		"preprocess:iter=1,downtime=3",              // downtime on a windowed event
		"straggler:iter=1,factor=2,factor=3",        // duplicate key
		"workload-shift:iter=1,factor=1e308",        // factor beyond maxFactor
		"random-stragglers:prob=nan",                // non-finite generator prob
		"random-stragglers:max=inf",                 // non-finite generator factor
		"random-stragglers:ranks=99999999",          // generator fan-out bound
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseWorkloadShift: the new kind parses, resolves to a shift
// factor over exactly its window, and marks iterations perturbed.
func TestParseWorkloadShift(t *testing.T) {
	s, err := Parse("workload-shift:iters=2-3,factor=3")
	if err != nil {
		t.Fatal(err)
	}
	if got := At(s, 1).ShiftFactor(); got != 1 {
		t.Errorf("shift leaked before its window: %g", got)
	}
	for _, iter := range []int{2, 3} {
		p := At(s, iter)
		if got := p.ShiftFactor(); got != 3 {
			t.Errorf("iter %d shift factor = %g, want 3", iter, got)
		}
		if p.Steady() {
			t.Errorf("iter %d with a workload shift reported steady", iter)
		}
	}
	if got := At(s, 4).ShiftFactor(); got != 1 {
		t.Errorf("shift leaked past its window: %g", got)
	}
}

// TestShiftSample: the transform scales image cost, preserves sample
// identity and text, and composes deterministically through
// ShiftBatch.
func TestShiftSample(t *testing.T) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	s := corpus.Sample(7)
	for s.NumImages() == 0 {
		s = corpus.Sample(s.Index + 1)
	}
	shifted := shiftSample(s, 4)
	if shifted.Index != s.Index || shifted.GenImages != s.GenImages || shifted.TextTokens() != s.TextTokens() {
		t.Errorf("shift changed sample identity: %+v vs %+v", shifted, s)
	}
	lo, hi := float64(s.TotalImageTokens())*3, float64(s.TotalImageTokens())*5
	if got := float64(shifted.TotalImageTokens()); got < lo || got > hi {
		t.Errorf("4x shift moved image tokens %d -> %g, want within [%g, %g]",
			s.TotalImageTokens(), got, lo, hi)
	}
	if !reflect.DeepEqual(shiftSample(s, 4), shifted) {
		t.Error("ShiftSample is not deterministic")
	}
	if got := shiftSample(s, 1); !reflect.DeepEqual(got, s) {
		t.Error("factor 1 must be the identity")
	}
	sc, err := newSchedule("t", Event{Kind: workloadShift, Start: 0, End: 1, Factor: 4})
	if err != nil {
		t.Fatal(err)
	}
	batch := []data.Sample{s, corpus.Sample(s.Index + 1)}
	out := At(sc, 0).ShiftBatch(batch)
	if !reflect.DeepEqual(out[0], shifted) {
		t.Error("ShiftBatch disagrees with ShiftSample")
	}
	if same := At(sc, 5).ShiftBatch(batch); &same[0] != &batch[0] {
		t.Error("unshifted iteration should return the batch untouched")
	}
}

// TestParseErrorsCarryEventContext: every parse failure names the
// offending event's index and raw token (`event %d: %q`), in all
// paths — malformed key/value splits, bad event bodies, and the
// random-stragglers generator alike.
func TestParseErrorsCarryEventContext(t *testing.T) {
	for _, tc := range []struct {
		spec string
		idx  int
		tok  string
	}{
		{"straggler:iter=1;congestion:iter=2,factor=0.2", 1, "congestion:iter=2,factor=0.2"},
		{"straggler:iter=1; warp:iter=1", 1, "warp:iter=1"},
		{"straggler:iter=1,rank", 0, "straggler:iter=1,rank"},
		{"congestion:iter=1; straggler:iter=1;random-stragglers:seed=1", 2, "random-stragglers:seed=1"},
		{"random-stragglers:prob=7", 0, "random-stragglers:prob=7"},
		{"failure:iter=1;failure:iter=2,downtime=nan", 1, "failure:iter=2,downtime=nan"},
	} {
		_, err := Parse(tc.spec)
		if err == nil {
			t.Errorf("Parse(%q) accepted", tc.spec)
			continue
		}
		wantIdx := fmt.Sprintf("event %d:", tc.idx)
		if !strings.Contains(err.Error(), wantIdx) || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.tok)) {
			t.Errorf("Parse(%q) error %q missing %q / %q context", tc.spec, err, wantIdx, tc.tok)
		}
	}
}

// TestParseErrorIsDeterministic pins which fault a spec with several
// reports: the first offending pair in spec order, every time. (The
// pairs used to live in a map, so this spec named rank, stage or factor
// at random.)
func TestParseErrorIsDeterministic(t *testing.T) {
	const spec = "straggler:iters=2-5,rank=x,stage=y,factor=z"
	const want = `bad rank="x"`
	for i := 0; i < 200; i++ {
		_, err := Parse(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("parse %d: error %v, want it to name %s", i, err, want)
		}
	}
}

// TestParseFleetEvents covers the fleet-scope grammar: job-arrive,
// job-depart, node-fail and node-join parse as fire-once events with
// their target keys, in schedule order; the trainer-facing resolution
// treats them as steady (they address the fleet scheduler, not one
// run's cost model).
func TestParseFleetEvents(t *testing.T) {
	sc, err := Parse("job-arrive:iter=2,job=1; node-fail:iter=2,node=3; node-join:iter=4,node=3; job-depart:iter=5,job=0")
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := sc.(*Schedule)
	if !ok {
		t.Fatalf("Parse returned %T, want *Schedule", sc)
	}
	evs := sched.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	want := []struct {
		kind Kind
		job  int
		node int
	}{
		{JobArrive, 1, 0}, {FleetNodeFail, 0, 3}, {FleetNodeJoin, 0, 3}, {JobDepart, 0, 0},
	}
	for i, w := range want {
		if evs[i].Kind != w.kind || evs[i].Job != w.job || evs[i].Node != w.node {
			t.Errorf("event %d = %+v, want kind %v job %d node %d", i, evs[i], w.kind, w.job, w.node)
		}
		if !w.kind.FleetScope() || !w.kind.fireOnce() {
			t.Errorf("%v should be fleet-scope and fire-once", w.kind)
		}
	}

	// Round 2 carries two fleet events; the trainer sees a steady
	// iteration.
	if !At(sc, 2).Steady() {
		t.Error("fleet events perturbed a training iteration")
	}

	// Fleet kinds are fire-once and reject windows and foreign keys.
	for _, bad := range []string{
		"job-arrive:iters=2-5",
		"node-fail:iter=1,factor=2",
		"job-depart:iter=1,node=0",
		"node-join:iter=1,job=0",
		"job-arrive:iter=1,job=-1",
		"node-fail:iter=1,node=-2",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParsePriorityEvents covers the priority-scheduler grammar:
// priority-arrive (class defaults to the spec's own) and preempt-storm
// (class defaults to high, count to 2), both fleet-scope fire-once.
func TestParsePriorityEvents(t *testing.T) {
	sc, err := Parse("priority-arrive:iter=1,job=1,class=high; priority-arrive:iter=2,job=2; preempt-storm:iter=3,job=3; preempt-storm:iter=4,job=4,class=low,count=5")
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := sc.(*Schedule)
	if !ok {
		t.Fatalf("Parse returned %T, want *Schedule", sc)
	}
	evs := sched.Events()
	if len(evs) != 4 {
		t.Fatalf("%d events, want 4", len(evs))
	}
	want := []struct {
		kind  Kind
		job   int
		class string
		count int
	}{
		{PriorityArrive, 1, "high", 0},
		{PriorityArrive, 2, "", 0}, // class inherits the job spec's own
		{PreemptStorm, 3, "high", 2},
		{PreemptStorm, 4, "low", 5},
	}
	for i, w := range want {
		e := evs[i]
		if e.Kind != w.kind || e.Job != w.job || e.Class != w.class || e.Count != w.count {
			t.Errorf("event %d = %+v, want kind %v job %d class %q count %d",
				i, e, w.kind, w.job, w.class, w.count)
		}
		if !w.kind.FleetScope() || !w.kind.fireOnce() {
			t.Errorf("%v should be fleet-scope and fire-once", w.kind)
		}
	}
	if !At(sc, 1).Steady() {
		t.Error("priority events perturbed a training iteration")
	}

	for _, bad := range []string{
		"priority-arrive:iter=1,job=0,class=urgent", // unknown class
		"preempt-storm:iter=1,job=0,count=0",        // storm needs at least one arrival
		"preempt-storm:iter=1,job=0,count=1000",     // beyond maxStormCount
		"preempt-storm:iters=1-3,job=0",             // fire-once rejects windows
		"priority-arrive:iter=1,job=0,count=2",      // count is storm-only
		"job-arrive:iter=1,job=0,class=high",        // class is priority-only
		"priority-arrive:iter=1,job=-1",             // negative job
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}

// TestParseHerdEvents covers the herd grammar: Count near-identical
// arrivals of one job spec at one round, class inherited from the
// spec (herd takes no class key — a classed burst is a preempt-storm).
func TestParseHerdEvents(t *testing.T) {
	sc, err := Parse("herd:iter=0,job=1,count=6; herd:iter=2,job=0")
	if err != nil {
		t.Fatal(err)
	}
	sched, ok := sc.(*Schedule)
	if !ok {
		t.Fatalf("Parse returned %T, want *Schedule", sc)
	}
	evs := sched.Events()
	if len(evs) != 2 {
		t.Fatalf("%d events, want 2", len(evs))
	}
	want := []struct {
		job, count int
	}{
		{1, 6},
		{0, 2}, // count defaults to 2
	}
	for i, w := range want {
		e := evs[i]
		if e.Kind != Herd || e.Job != w.job || e.Class != "" || e.Count != w.count {
			t.Errorf("event %d = %+v, want herd job %d class \"\" count %d", i, e, w.job, w.count)
		}
	}
	if !Herd.FleetScope() || !Herd.fireOnce() {
		t.Error("herd should be fleet-scope and fire-once")
	}
	if !At(sc, 0).Steady() {
		t.Error("herd events perturbed a training iteration")
	}

	for _, bad := range []string{
		"herd:iter=1,job=0,count=0",    // needs at least one arrival
		"herd:iter=1,job=0,count=1000", // beyond maxStormCount
		"herd:iters=1-3,job=0",         // fire-once rejects windows
		"herd:iter=1,job=0,class=high", // class belongs to preempt-storm
		"herd:iter=1,job=-1",           // negative job
		"herd:iter=1,job=0,factor=2",   // foreign key
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
