package scenario

import (
	"math"
	"reflect"
	"testing"
)

// FuzzScenarioParse hammers the -scenario grammar — the only
// user-facing parser in the repo beyond the preprocessing wire
// protocol. The oracle: Parse must never panic, a rejection must read
// the same every time, and anything it accepts must be a well-formed
// scenario — every event it yields revalidates cleanly, resolves
// deterministically, and carries finite cost factors (no NaN/Inf
// smuggled through the grammar into the cost model).
func FuzzScenarioParse(f *testing.F) {
	for _, seed := range []string{
		// Every documented event kind, including the new workload-shift.
		"straggler:iters=2-5,rank=0,stage=1,factor=2.5,from=0.1,until=0.4",
		"straggler:iter=3",
		"preprocess:iters=2-4,factor=4",
		"preproc:iter=1,factor=2",
		"congestion:iters=1-3,factor=3",
		"workload-shift:iters=4-9,factor=3",
		"failure:iter=5,downtime=30",
		"producer-fail:iter=2,producer=1",
		"producer-join:iter=4,producer=1",
		// Fleet-scope grammar (multi-tenant runtime).
		"job-arrive:iter=2,job=1",
		"job-depart:iter=5,job=0",
		"node-fail:iter=3,node=2",
		"node-join:iter=6,node=2",
		"job-arrive:iter=0,job=1; node-fail:iter=2,node=0; node-join:iter=4,node=0",
		// Priority-scheduler grammar.
		"priority-arrive:iter=2,job=1,class=high",
		"priority-arrive:iter=2,job=1",
		"preempt-storm:iter=3,job=0,class=high,count=3",
		"preempt-storm:iter=1,job=2",
		"priority-arrive:iter=0,job=0,class=low; preempt-storm:iter=2,job=1,count=4",
		// Herd admission bursts.
		"herd:iter=0,job=0,count=4",
		"herd:iter=1,job=0",
		"herd:iter=1,job=0,count=0",
		"herd:iter=1,job=0,class=high",
		// Priority near-misses: bad class, zero/huge storm, wrong keys.
		"priority-arrive:iter=1,job=0,class=urgent",
		"preempt-storm:iter=1,job=0,count=0",
		"preempt-storm:iter=1,job=0,count=100000",
		"preempt-storm:iters=1-3,job=0",
		"job-arrive:iter=1,job=0,class=high",
		"node-fail:iter=1,count=2",
		"random-stragglers:seed=7,ranks=8,prob=0.3,max=3",
		// Multi-event composition and whitespace tolerance.
		"straggler:iters=2-4,rank=0,factor=3; failure:iter=6,downtime=20",
		" congestion:iter=1 ; ; preprocess:iter=2,factor=9 ",
		// Near-miss garbage the parser must reject, not mangle.
		"straggler:iter=1,iters=2-4",
		"straggler:iter=1,factor=nan",
		"failure:iter=1,downtime=inf",
		"random-stragglers:prob=nan",
		"random-stragglers:ranks=99999999999",
		"workload-shift:iters=1-2,factor=1e308",
		"straggler:iter=1,factor=2,factor=3",
		"failure:iters=2-5",
		"congestion:iter=1,rank=0",
		"job-arrive:iters=2-5",
		"node-fail:iter=1,job=0",
		"job-depart:iter=1,node=-1",
		":iter=1",
		"straggler:",
		"straggler:iter",
		"straggler:iters=9223372036854775807-9223372036854775807",
		// Several faults at once: the first in spec order is the one reported.
		"straggler:iters=2-5,rank=x,stage=y,factor=z",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			if sc != nil {
				t.Fatalf("Parse(%q) returned both a scenario and %v", spec, err)
			}
			if _, again := Parse(spec); again == nil || again.Error() != err.Error() {
				t.Fatalf("Parse(%q) rejected with %q, then with %v", spec, err, again)
			}
			return
		}
		if sc == nil {
			t.Fatalf("Parse(%q) returned nil scenario with nil error", spec)
		}
		_ = sc.Name()
		if g, ok := sc.(randomStragglers); ok {
			if g.Ranks < 1 || g.Ranks > maxGeneratorRanks ||
				math.IsNaN(g.Prob) || g.Prob < 0 || g.Prob > 1 ||
				math.IsNaN(g.Max) || g.Max < 1 || g.Max > maxFactor {
				t.Fatalf("Parse(%q) accepted out-of-range generator %+v", spec, g)
			}
		}
		for iter := 0; iter < 4; iter++ {
			evs := sc.EventsAt(iter)
			if again := sc.EventsAt(iter); !reflect.DeepEqual(evs, again) {
				t.Fatalf("Parse(%q): EventsAt(%d) nondeterministic: %v vs %v", spec, iter, evs, again)
			}
			p := At(sc, iter)
			for _, f := range []float64{p.PreprocessFactor(), p.P2PFactor(), p.ShiftFactor()} {
				if math.IsNaN(f) || math.IsInf(f, 0) || f < 1 {
					t.Fatalf("Parse(%q): non-finite perturbation factor %g at iter %d", spec, f, iter)
				}
			}
			for _, e := range evs {
				if err := e.Validate(); err != nil {
					t.Fatalf("Parse(%q) accepted invalid event %+v: %v", spec, e, err)
				}
			}
			if ev, ok := p.Failure(); ok && (math.IsNaN(ev.Downtime) || math.IsInf(ev.Downtime, 0) || ev.Downtime < 0) {
				t.Fatalf("Parse(%q): failure with unusable downtime %g", spec, ev.Downtime)
			}
		}
	})
}
