package scenario

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
)

// Parse builds a Scenario from the CLI grammar of the -scenario flag:
// semicolon-separated events, each `kind:key=value,...`.
//
//	straggler:iters=2-5,rank=0,stage=1,factor=2.5,from=0.1,until=0.4
//	preprocess:iters=2-4,factor=4
//	congestion:iters=1-3,factor=3
//	workload-shift:iters=4-9,factor=3
//	failure:iter=5,downtime=30
//	producer-fail:iter=2,producer=1
//	producer-join:iter=4,producer=1
//	job-arrive:iter=2,job=1
//	job-depart:iter=5,job=0
//	node-fail:iter=3,node=2
//	node-join:iter=6,node=2
//	priority-arrive:iter=2,job=1,class=high
//	preempt-storm:iter=3,job=0,class=high,count=3
//	herd:iter=0,job=0,count=8
//	random-stragglers:seed=7,ranks=8,prob=0.3,max=3
//
// Iteration windows are inclusive (`iters=2-5` covers 2,3,4,5);
// `iter=N` is shorthand for a single iteration (and the only form the
// fire-once kinds — failure, producer-fail, producer-join, and the
// fleet-scope job-arrive / job-depart / node-fail / node-join /
// priority-arrive / preempt-storm / herd — accept; for fleet kinds `iter` is
// a fleet scheduling round, and producer-fail / producer-join are
// dual-scope: in a fleet scenario they address the fleet-shared
// producer tier and `iter` is likewise a round). Each kind accepts only the keys that
// affect it: `rank`, `stage`, `from` and `until` belong to straggler;
// `factor` to the windowed kinds; `downtime` to failure; `producer`
// to producer-fail / producer-join; `job` to the job arrival and
// departure kinds; `node` to node-fail / node-join; `class` to
// priority-arrive / preempt-storm; `count` to preempt-storm and herd.
// Duplicate keys are rejected. `rank`/`stage` default to -1 (all);
// `factor` defaults to 2; failure `downtime` defaults to 30 simulated
// seconds; `producer`, `job` and `node` default to 0;
// priority-arrive `class` defaults to the job spec's own class while
// preempt-storm defaults to high with `count` 2; herd inherits the
// spec's class and also defaults `count` to 2.
// `random-stragglers` must be the only event in its spec — it is a
// generator, not a timed event.
//
// Every parse error names the offending event: `event %d: %q` with the
// event's zero-based position in the spec and its raw text.
func Parse(spec string) (Scenario, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, fmt.Errorf("scenario: empty spec")
	}
	var parts []string
	for _, part := range strings.Split(spec, ";") {
		if part = strings.TrimSpace(part); part != "" {
			parts = append(parts, part)
		}
	}
	var events []Event
	for i, part := range parts {
		kind, kvs, err := splitEvent(part)
		if err != nil {
			return nil, eventErr(i, part, err)
		}
		if kind == "random-stragglers" {
			if len(parts) > 1 {
				return nil, eventErr(i, part, fmt.Errorf("random-stragglers cannot be combined with other events"))
			}
			g, err := parseRandomStragglers(kvs)
			if err != nil {
				return nil, eventErr(i, part, err)
			}
			return g, nil
		}
		e, err := parseEvent(kind, kvs)
		if err != nil {
			return nil, eventErr(i, part, err)
		}
		events = append(events, e)
	}
	if len(events) == 0 {
		return nil, fmt.Errorf("scenario: no events in %q", spec)
	}
	return newSchedule(spec, events...)
}

// eventErr stamps every parse failure with the offending event's index
// and raw token, so multi-event specs pinpoint which clause broke.
func eventErr(i int, part string, err error) error {
	return fmt.Errorf("scenario: event %d: %q: %w", i, part, err)
}

// kv is one key=value pair of an event, kept in spec order so that a
// spec with several faults always reports the same one: the first.
type kv struct{ k, v string }

func splitEvent(part string) (kind string, kvs []kv, err error) {
	kind, rest, found := strings.Cut(part, ":")
	kind = strings.TrimSpace(kind)
	if !found || strings.TrimSpace(rest) == "" {
		return kind, nil, nil
	}
	for _, pair := range strings.Split(rest, ",") {
		k, v, ok := strings.Cut(pair, "=")
		if !ok {
			return "", nil, fmt.Errorf("malformed key=value %q", pair)
		}
		k = strings.TrimSpace(k)
		for _, seen := range kvs {
			if seen.k == k {
				return "", nil, fmt.Errorf("duplicate key %q", k)
			}
		}
		kvs = append(kvs, kv{k, strings.TrimSpace(v)})
	}
	return kind, kvs, nil
}

func parseEvent(kind string, kvs []kv) (Event, error) {
	id, ok := kindByName(kind)
	if !ok {
		return Event{}, fmt.Errorf("unknown event kind %q", kind)
	}
	info := kinds[id]
	e := info.defaults
	e.Kind, e.Rank, e.Stage, e.Factor = id, -1, -1, 2
	haveIter, haveRange := false, false
	for _, p := range kvs {
		k, v := p.k, p.v
		var err error
		switch k {
		case "iter":
			e.Start, err = strconv.Atoi(v)
			e.End = e.Start + 1
			haveIter = true
		case "iters":
			if info.fireOnce {
				return Event{}, fmt.Errorf("%s fires once: use iter=N, not a window", kind)
			}
			lo, hi, ok := strings.Cut(v, "-")
			if !ok {
				return Event{}, fmt.Errorf("iters wants lo-hi, got %q", v)
			}
			if e.Start, err = strconv.Atoi(lo); err == nil {
				e.End, err = strconv.Atoi(hi)
				e.End++ // inclusive upper bound
			}
			haveRange = true
		case "rank":
			e.Rank, err = strconv.Atoi(v)
		case "stage":
			e.Stage, err = strconv.Atoi(v)
		case "factor":
			e.Factor, err = strconv.ParseFloat(v, 64)
		case "from":
			e.From, err = strconv.ParseFloat(v, 64)
		case "until":
			e.Until, err = strconv.ParseFloat(v, 64)
		case "downtime":
			e.Downtime, err = strconv.ParseFloat(v, 64)
		case "producer":
			e.Producer, err = strconv.Atoi(v)
		case "job":
			e.Job, err = strconv.Atoi(v)
		case "node":
			e.Node, err = strconv.Atoi(v)
		case "class":
			e.Class = v
		case "count":
			e.Count, err = strconv.Atoi(v)
		default:
			return Event{}, fmt.Errorf("unknown key %q for %s", k, kind)
		}
		if err != nil {
			return Event{}, fmt.Errorf("bad %s=%q: %w", k, v, err)
		}
		if k != "iter" && k != "iters" && !slices.Contains(strings.Fields(info.keys), k) {
			return Event{}, fmt.Errorf("key %q does not apply to %s (allowed: iter/iters %s)", k, kind, info.keys)
		}
	}
	// iter and iters are exclusive: one event has one window.
	if haveIter && haveRange {
		return Event{}, fmt.Errorf("%s specifies both iter and iters", kind)
	}
	if !haveIter && !haveRange {
		return Event{}, fmt.Errorf("%s needs iter=N or iters=lo-hi", kind)
	}
	return e, e.Validate()
}

// maxGeneratorRanks bounds random-stragglers fan-out: each covered
// iteration draws per rank, so an absurd rank count turns EventsAt
// into a denial of service. Real DP degrees sit far below this.
const maxGeneratorRanks = 1 << 16

func parseRandomStragglers(kvs []kv) (Scenario, error) {
	g := randomStragglers{Seed: 1, Ranks: 1, Prob: 0.2, Max: 3}
	for _, p := range kvs {
		k, v := p.k, p.v
		var err error
		switch k {
		case "seed":
			g.Seed, err = strconv.ParseInt(v, 10, 64)
		case "ranks":
			g.Ranks, err = strconv.Atoi(v)
		case "prob":
			g.Prob, err = strconv.ParseFloat(v, 64)
		case "max":
			g.Max, err = strconv.ParseFloat(v, 64)
		default:
			return nil, fmt.Errorf("unknown key %q for random-stragglers", k)
		}
		if err != nil {
			return nil, fmt.Errorf("bad %s=%q: %w", k, v, err)
		}
	}
	switch {
	case g.Ranks < 1 || g.Ranks > maxGeneratorRanks:
		return nil, fmt.Errorf("random-stragglers wants ranks in [1, %d], got %d", maxGeneratorRanks, g.Ranks)
	case math.IsNaN(g.Prob) || g.Prob < 0 || g.Prob > 1:
		return nil, fmt.Errorf("random-stragglers wants prob in [0,1], got %g", g.Prob)
	case math.IsNaN(g.Max) || g.Max < 1 || g.Max > maxFactor:
		return nil, fmt.Errorf("random-stragglers wants max in [1, %g], got %g", maxFactor, g.Max)
	}
	return g, nil
}
