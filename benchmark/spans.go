package main

import (
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/fleet"
	"disttrain/internal/orchestrator"
	"disttrain/internal/store"
)

// Tracing lives in the benchmark's own files: spans wrap the calls the
// benchmark makes into a layer and the interface seams the program
// already offers (fleet.Config.OnRound, fleet.Scheduler, store.Store,
// SearchOptions.OnCandidate). Spans inside the program are a later
// change. Spans stay in memory and are written out once, at exit.

// span is one timed interval. Parent is the index of the span that
// caused it (-1 for a root); Op is the op index all spans of one op
// share.
type span struct {
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
}

type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	sched    schedStats
	cand     candStats
	putBytes atomic.Int64 // payload bytes handed to store.Put
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, op int) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Op: op})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration of every closed span with the name,
// in recording order.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children may overlap one
// another (planner goroutines, concurrent fetches); an instant covered
// by two children is subtracted once.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		ks := kids[i]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ks {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// selfByName sums self time per span name, in seconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for i, d := range selfTimes(spans) {
		out[spans[i].Name] += d.Seconds()
	}
	return out
}

// writeSpans writes the spans as JSON to path.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(struct {
		Spans []span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// candStats counts what SearchOptions.OnCandidate reports. The
// observer runs on search worker goroutines.
type candStats struct {
	feasible, infeasible, pruned atomic.Int64
}

func (c *candStats) observe(_ orchestrator.Candidate, plan *orchestrator.Plan, err error) {
	switch {
	case plan != nil:
		c.feasible.Add(1)
	case errors.Is(err, orchestrator.ErrCandidatePruned):
		c.pruned.Add(1)
	default:
		c.infeasible.Add(1)
	}
}

func (c *candStats) total() int64 {
	return c.feasible.Load() + c.infeasible.Load() + c.pruned.Load()
}

// schedStats accumulates scheduler-seam activity across fleet runs.
// The fleet calls its scheduler from the Run goroutine only.
type schedStats struct {
	calls int64
	busy  time.Duration
}

// fleetProbe observes one fleet.Run through the two seams the fleet
// offers: OnRound yields one fleet.round span per round, and the
// Scheduler decorator times every scheduling decision inside it.
// fleet.round r runs from round r's OnRound callback (after admission
// and rebalance) to round r+1's, so it covers round r's stepping and
// completions plus round r+1's landing, events and admission; what
// precedes the first callback is self time of the op.
type fleetProbe struct {
	tr         *tracer
	op, opSpan int
	cur        int // open fleet.round span, -1 before the first round
	inner      fleet.Scheduler
}

func newFleetProbe(tr *tracer, inner fleet.Scheduler, opSpan, op int) *fleetProbe {
	return &fleetProbe{tr: tr, op: op, opSpan: opSpan, cur: -1, inner: inner}
}

func (p *fleetProbe) onRound(fleet.RoundInfo) {
	if p.cur >= 0 {
		p.tr.end(p.cur)
	}
	p.cur = p.tr.begin("fleet.round", p.opSpan, p.op)
}

// finish closes the last round's span once Run has returned.
func (p *fleetProbe) finish() {
	if p.cur >= 0 {
		p.tr.end(p.cur)
		p.cur = -1
	}
}

func (p *fleetProbe) timed(fn func()) {
	parent := p.cur
	if parent < 0 {
		parent = p.opSpan
	}
	id := p.tr.begin("fleet.sched", parent, p.op)
	t0 := time.Now()
	fn()
	p.tr.sched.busy += time.Since(t0)
	p.tr.end(id)
	p.tr.sched.calls++
}

func (p *fleetProbe) Name() string { return p.inner.Name() }

// Order is counted but not timed: a queue sort calls it tens of
// thousands of times per op, and two clock reads per call would cost
// more than the comparison.
func (p *fleetProbe) Order(a, b fleet.JobView) bool {
	p.tr.sched.calls++
	return p.inner.Order(a, b)
}

func (p *fleetProbe) GrantSize(ops fleet.Ops, head fleet.JobView) (n int) {
	p.timed(func() { n = p.inner.GrantSize(ops, head) })
	return n
}

func (p *fleetProbe) MakeRoom(ops fleet.Ops, head fleet.JobView) {
	p.timed(func() { p.inner.MakeRoom(ops, head) })
}

func (p *fleetProbe) PlaceNodes(ops fleet.Ops, head fleet.JobView, grant int) (nodes []int) {
	p.timed(func() { nodes = p.inner.PlaceNodes(ops, head, grant) })
	return nodes
}

func (p *fleetProbe) Rebalance(ops fleet.Ops) {
	p.timed(func() { p.inner.Rebalance(ops) })
}

// ShapedPlacement forwards the wrapped scheduler's answer, so the
// decorator never changes how leases are priced.
func (p *fleetProbe) ShapedPlacement() bool {
	ss, ok := p.inner.(fleet.ShapedScheduler)
	return ok && ss.ShapedPlacement()
}

// timedStore wraps the store.Store handed to NewPersistentPlanCache.
// Searches persist from planner goroutines, so spans hang off the op.
type timedStore struct {
	inner  store.Store
	tr     *tracer
	parent int
	op     int
}

func (s *timedStore) Get(key string) ([]byte, bool, error) {
	id := s.tr.begin("store.get", s.parent, s.op)
	defer s.tr.end(id)
	return s.inner.Get(key)
}

func (s *timedStore) Put(key string, payload []byte) error {
	id := s.tr.begin("store.put", s.parent, s.op)
	defer s.tr.end(id)
	s.tr.putBytes.Add(int64(len(payload)))
	return s.inner.Put(key, payload)
}
