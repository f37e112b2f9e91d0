// Package scenario injects timed perturbation events into the training
// runtime: per-GPU slowdowns (stragglers), preprocessing-node
// degradation, transient link congestion, and node failures that force
// checkpoint-restore recovery — the failure/straggler dynamics that
// motivate disaggregated training in the first place (§2, §6; cf. the
// fault-tolerance emphasis of related MLLM-training systems). Every
// scenario is deterministic: the events affecting iteration i depend
// only on the scenario definition and i, never on call order or wall
// clock, so concurrent runtimes, prefetchers and replays all observe
// the same world.
package scenario

import (
	"fmt"
	"math"
	"sort"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/pipeline"
)

// Kind enumerates the perturbation families.
type Kind int

const (
	// straggler slows pipeline-stage compute: a degraded GPU, thermal
	// throttling, a noisy neighbour. Factor is the slowdown (2 = half
	// speed); Rank/Stage restrict the blast radius; From/Until bound
	// the slowdown within each affected iteration's pipeline phase.
	straggler Kind = iota
	// preprocessDegrade slows the data path: disaggregated
	// preprocessing nodes (or co-located dataloader workers) deliver
	// the batch Factor times slower.
	preprocessDegrade
	// linkCongestion scales inter-stage activation/gradient transfer
	// (P2P) costs by Factor — a congested RDMA fabric.
	linkCongestion
	// nodeFailure kills the training job at iteration Start: the
	// runtime pays Downtime seconds of detection/restart, restores the
	// latest checkpoint, and re-executes the lost iterations.
	nodeFailure
	// ProducerFail kills one disaggregated-preprocessing producer at
	// iteration Start: subsequent fetches assigned to it fail over to
	// the surviving pool members (§5's elasticity under churn). Fires
	// once, like nodeFailure. Dual-scope: in a job's Train.Scenario it
	// acts on the job's private producer pool at iteration Start; in a
	// fleet scenario it acts on the fleet-shared producer tier at
	// round Start, degrading every tenant fairly.
	ProducerFail
	// ProducerJoin restores (or brings up) producer Producer at
	// iteration Start — the elastic scale-up counterpart of
	// ProducerFail. Fires once; dual-scope like ProducerFail.
	ProducerJoin
	// workloadShift changes the sample-cost distribution mid-run: for
	// the covered iterations every sample's image subsequences are
	// scaled by Factor (resolution by sqrt(Factor), tokens following
	// the patch grid), so encoder/generator work per sample grows while
	// sample identity — and therefore the gradient-accumulation
	// semantics — is a pure function of the scenario and the iteration.
	// This is the data-distribution drift of §2.3 made dynamic; the
	// re-planning controller reacts to it. Applied by the corpus batch
	// front-end (live producer pools own their preprocessing and do not
	// observe scenarios).
	workloadShift
	// JobArrive submits one more instance of fleet job spec Job to the
	// multi-tenant fleet runtime's admission queue at round Start — the
	// production stream of training jobs (§7) made explicit. Fleet
	// scope: the trainer ignores it. Fires once.
	JobArrive
	// JobDepart terminates admitted fleet job Job at round Start: its
	// lease is released and its result finalised with the iterations it
	// completed. Fleet scope; fires once.
	JobDepart
	// FleetNodeFail removes node Node from the shared fleet at round
	// Start: every job whose lease places it on that node shrinks — a
	// costed lease reconfiguration — and the node stays out until a
	// matching node-join. Unlike the job-level nodeFailure (which kills
	// one run and restores its checkpoint), this hits every tenant
	// placed on the node. Fleet scope; fires once.
	FleetNodeFail
	// FleetNodeJoin returns failed node Node to the shared fleet at
	// round Start; freed capacity flows to queued and elastic jobs.
	// Fleet scope; fires once.
	FleetNodeJoin
	// PriorityArrive submits one instance of fleet job spec Job at
	// round Start with priority class Class ("" inherits the spec's
	// own class) — a targeted arrival for exercising priority
	// schedulers. Fleet scope; fires once.
	PriorityArrive
	// PreemptStorm submits Count instances of fleet job spec Job at
	// round Start, all at priority class Class (default high): a
	// burst of urgent work that forces a priority scheduler to
	// preempt lower-class tenants. Fleet scope; fires once.
	PreemptStorm
	// Herd submits Count near-identical instances of fleet job spec
	// Job at round Start, each at the spec's own priority class — the
	// thundering-herd admission burst of §7: K tenants whose plan
	// searches share one §4.3 fingerprint, so the plan cache pays
	// exactly one search. Fleet scope; fires once.
	Herd
)

// kindInfo is everything the package knows about a kind beyond its cost
// semantics; kinds holds one row per Kind, so adding a kind is adding a
// row.
type kindInfo struct {
	// name is the kind's name in the -scenario grammar and in traces;
	// alias a second spelling Parse accepts.
	name, alias string
	// keys lists the keys beyond the iteration window that the kind
	// consumes. Parse rejects the rest instead of silently ignoring
	// them: an event that parses must mean what it says.
	keys string
	// fireOnce kinds fire exactly once, at Start, rather than covering
	// an iteration window; fleet kinds address the multi-tenant fleet
	// runtime rather than one training run's cost model.
	fireOnce, fleet bool
	// defaults are the kind's own parse defaults, on top of the ones
	// every kind shares (rank and stage -1, factor 2).
	defaults Event
}

var kinds = [...]kindInfo{
	straggler:         {name: "straggler", keys: "rank stage factor from until"},
	preprocessDegrade: {name: "preprocess", alias: "preproc", keys: "factor"},
	linkCongestion:    {name: "congestion", keys: "factor"},
	nodeFailure:       {name: "failure", keys: "downtime", fireOnce: true, defaults: Event{Downtime: 30}},
	ProducerFail:      {name: "producer-fail", keys: "producer", fireOnce: true},
	ProducerJoin:      {name: "producer-join", keys: "producer", fireOnce: true},
	workloadShift:     {name: "workload-shift", keys: "factor"},
	JobArrive:         {name: "job-arrive", keys: "job", fireOnce: true, fleet: true},
	JobDepart:         {name: "job-depart", keys: "job", fireOnce: true, fleet: true},
	FleetNodeFail:     {name: "node-fail", keys: "node", fireOnce: true, fleet: true},
	FleetNodeJoin:     {name: "node-join", keys: "node", fireOnce: true, fleet: true},
	PriorityArrive:    {name: "priority-arrive", keys: "job class", fireOnce: true, fleet: true},
	PreemptStorm:      {name: "preempt-storm", keys: "job class count", fireOnce: true, fleet: true, defaults: Event{Class: "high", Count: 2}},
	Herd:              {name: "herd", keys: "job count", fireOnce: true, fleet: true, defaults: Event{Count: 2}},
}

// known reports whether k has a row in kinds.
func (k Kind) known() bool { return k >= 0 && int(k) < len(kinds) }

// kindByName resolves a grammar name or alias.
func kindByName(name string) (Kind, bool) {
	for k, info := range kinds {
		if name == info.name || (info.alias != "" && name == info.alias) {
			return Kind(k), true
		}
	}
	return 0, false
}

func (k Kind) String() string {
	if k.known() {
		return kinds[k].name
	}
	return fmt.Sprintf("scenario.Kind(%d)", int(k))
}

// fireOnce reports whether the kind fires exactly once, at Start,
// rather than covering an iteration window.
func (k Kind) fireOnce() bool { return k.known() && kinds[k].fireOnce }

// FleetScope reports whether the kind addresses the multi-tenant fleet
// runtime (job arrivals/departures, fleet node membership) rather than
// one training run's cost model. The trainer ignores fleet-scope
// events; internal/fleet reads them off the Schedule.
func (k Kind) FleetScope() bool { return k.known() && kinds[k].fleet }

// Event is one timed perturbation. Iteration windows are half-open:
// the event affects iterations Start <= i < End (nodeFailure fires
// once, at Start).
type Event struct {
	Kind       Kind
	Start, End int
	// Rank restricts straggler events to one DP rank; -1 = all ranks.
	Rank int
	// Stage restricts straggler events to one pipeline stage; -1 = all
	// stages.
	Stage int
	// Factor is the slowdown / scale multiplier, >= 1.
	Factor float64
	// From and Until bound a straggler within the iteration's
	// pipeline-local time in seconds. Until <= From leaves the window
	// open-ended — it runs from From to the end of the iteration — so
	// the zero value (both zero) covers the whole iteration.
	From, Until float64
	// Downtime is nodeFailure's detection + restart cost in simulated
	// seconds, paid before the checkpoint restore read.
	Downtime float64
	// Producer is the pool-member index a ProducerFail / ProducerJoin
	// event targets.
	Producer int
	// Job is the fleet job index a JobArrive (job-spec index) or
	// JobDepart (admitted-job index) event targets.
	Job int
	// Node is the shared-fleet node index a FleetNodeFail /
	// FleetNodeJoin event targets.
	Node int
	// Class is the priority class a PriorityArrive / PreemptStorm
	// arrival carries: "low", "normal", "high", or "" (PriorityArrive
	// inherits the job spec's class; PreemptStorm's parse default is
	// high). The class names are owned by the fleet scheduler
	// (internal/fleet.ParseClass); validation here pins the same set
	// so a spec that parses cannot fail fleet-side.
	Class string
	// Count is how many instances a PreemptStorm or Herd submits, in
	// [1, maxStormCount].
	Count int
}

// maxFactor bounds every slowdown / scale multiplier. Factors beyond
// it are not physically meaningful and only serve to overflow
// downstream cost arithmetic (products of stacked events reaching
// +Inf), so validation rejects them — a bound the fuzzer leans on.
const maxFactor = 1e9

// maxStormCount bounds PreemptStorm and Herd fan-out: each instance becomes a
// real fleet tenant, so an absurd count turns one event into a denial
// of service. Real bursts sit far below this.
const maxStormCount = 256

// Validate checks one event.
func (e Event) Validate() error {
	if !e.Kind.known() {
		return fmt.Errorf("scenario: unknown kind %d", int(e.Kind))
	}
	if e.Start < 0 {
		return fmt.Errorf("scenario: %s start %d negative", e.Kind, e.Start)
	}
	if !e.Kind.fireOnce() {
		if e.End <= e.Start {
			return fmt.Errorf("scenario: %s window [%d,%d) empty", e.Kind, e.Start, e.End)
		}
		if e.Factor < 1 || e.Factor > maxFactor || math.IsNaN(e.Factor) {
			return fmt.Errorf("scenario: %s factor %g must be in [1, %g]", e.Kind, e.Factor, maxFactor)
		}
		if e.From < 0 || math.IsNaN(e.From) || math.IsInf(e.From, 0) {
			return fmt.Errorf("scenario: %s from %g must be finite and non-negative", e.Kind, e.From)
		}
		if e.Until < 0 || math.IsNaN(e.Until) || math.IsInf(e.Until, 0) {
			return fmt.Errorf("scenario: %s until %g must be finite and non-negative", e.Kind, e.Until)
		}
	}
	if e.Downtime < 0 || math.IsNaN(e.Downtime) || math.IsInf(e.Downtime, 0) {
		return fmt.Errorf("scenario: %s downtime %g must be finite and non-negative", e.Kind, e.Downtime)
	}
	if (e.Kind == ProducerFail || e.Kind == ProducerJoin) && e.Producer < 0 {
		return fmt.Errorf("scenario: %s producer %d negative", e.Kind, e.Producer)
	}
	if (e.Kind == JobArrive || e.Kind == JobDepart || e.Kind == PriorityArrive || e.Kind == PreemptStorm || e.Kind == Herd) && e.Job < 0 {
		return fmt.Errorf("scenario: %s job %d negative", e.Kind, e.Job)
	}
	if e.Kind == PriorityArrive || e.Kind == PreemptStorm {
		switch e.Class {
		case "", "low", "normal", "high":
		default:
			return fmt.Errorf("scenario: %s class %q (want low, normal or high)", e.Kind, e.Class)
		}
	}
	if (e.Kind == PreemptStorm || e.Kind == Herd) && (e.Count < 1 || e.Count > maxStormCount) {
		return fmt.Errorf("scenario: %s count %d must be in [1, %d]", e.Kind, e.Count, maxStormCount)
	}
	if (e.Kind == FleetNodeFail || e.Kind == FleetNodeJoin) && e.Node < 0 {
		return fmt.Errorf("scenario: %s node %d negative", e.Kind, e.Node)
	}
	return nil
}

// covers reports whether the event affects iteration i.
func (e Event) covers(i int) bool {
	if e.Kind.fireOnce() {
		return i == e.Start
	}
	return e.Start <= i && i < e.End
}

// Scenario yields the events affecting each iteration. EventsAt must
// be deterministic — same iteration, same events, in the same order —
// and safe for concurrent use.
type Scenario interface {
	Name() string
	EventsAt(iter int) []Event
}

// Schedule is the fixed-event Scenario: an explicit list of timed
// perturbations.
type Schedule struct {
	name   string
	events []Event
}

// newSchedule builds a fixed-event schedule. Events are validated eagerly.
func newSchedule(name string, events ...Event) (*Schedule, error) {
	for _, e := range events {
		if err := e.Validate(); err != nil {
			return nil, err
		}
	}
	return &Schedule{name: name, events: append([]Event(nil), events...)}, nil
}

// Name implements Scenario.
func (s *Schedule) Name() string { return s.name }

// Events returns a copy of the schedule's full event list, in schedule
// order. The fleet runtime uses it to enumerate fleet-scope events
// eagerly — a fixed schedule, unlike a generator, has a knowable last
// round.
func (s *Schedule) Events() []Event {
	return append([]Event(nil), s.events...)
}

// EventsAt implements Scenario.
func (s *Schedule) EventsAt(iter int) []Event {
	var out []Event
	for _, e := range s.events {
		if e.covers(iter) {
			out = append(out, e)
		}
	}
	return out
}

// randomStragglers is a seeded straggler generator: each iteration,
// each DP rank independently straggles with probability Prob, slowed
// by a factor drawn uniformly from [1, maxFactor]. The draw for
// iteration i uses an RNG keyed on (Seed, i), so the sequence is
// reproducible and independent of evaluation order — prefetchers and
// failure-recovery replays see the same stragglers.
type randomStragglers struct {
	Seed  int64
	Ranks int
	Prob  float64
	Max   float64
}

// Name implements Scenario.
func (g randomStragglers) Name() string {
	return fmt.Sprintf("random-stragglers(seed=%d,p=%g,max=%g)", g.Seed, g.Prob, g.Max)
}

// EventsAt implements Scenario.
func (g randomStragglers) EventsAt(iter int) []Event {
	// splitmix64-style mix of (seed, iter) so adjacent iterations get
	// decorrelated streams.
	z := uint64(g.Seed)*0x9e3779b97f4a7c15 + uint64(iter+1)*0xbf58476d1ce4e5b9
	z ^= z >> 31
	rng := data.NewRand(int64(z))
	var out []Event
	for rank := 0; rank < g.Ranks; rank++ {
		p := rng.Float64()
		f := 1 + rng.Float64()*(g.Max-1)
		if p < g.Prob {
			out = append(out, Event{
				Kind: straggler, Start: iter, End: iter + 1,
				Rank: rank, Stage: -1, Factor: f,
			})
		}
	}
	return out
}

// Perturbation is a scenario resolved against one iteration: the
// multiplicative factors the trainer applies to its cost components.
type Perturbation struct {
	events []Event
}

// At resolves the scenario at iteration iter; a nil scenario yields
// the steady state.
func At(s Scenario, iter int) Perturbation {
	if s == nil {
		return Perturbation{}
	}
	return Perturbation{events: s.EventsAt(iter)}
}

// Steady reports whether the iteration's cost model is unperturbed.
// Pool-membership events (producer-fail / producer-join) do not count:
// they change which producers serve fetches, not what any iteration
// costs — with a healthy pool the run's results are identical, which
// is the elasticity property the trainer's pool test pins. Fleet-scope
// events do not count either: they address the fleet scheduler, never
// one run's cost model.
func (p Perturbation) Steady() bool {
	for _, e := range p.events {
		switch {
		case e.Kind == ProducerFail || e.Kind == ProducerJoin:
		case e.Kind.FleetScope():
		default:
			return false
		}
	}
	return true
}

// PoolEvents returns the iteration's pool-membership events
// (producer-fail / producer-join), in schedule order.
func (p Perturbation) PoolEvents() []Event {
	var out []Event
	for _, e := range p.events {
		if e.Kind == ProducerFail || e.Kind == ProducerJoin {
			out = append(out, e)
		}
	}
	return out
}

// PreprocessFactor returns the combined data-path slowdown (1 = none).
func (p Perturbation) PreprocessFactor() float64 { return p.product(preprocessDegrade) }

// ShiftFactor returns the combined workload-shift scale (1 = none).
func (p Perturbation) ShiftFactor() float64 { return p.product(workloadShift) }

// ShiftBatch applies the iteration's workload shift to a batch,
// returning the input untouched (no allocation) when no shift covers
// the iteration. The transform is per-sample and deterministic, so
// prefetchers and failure-recovery replays observe identical batches.
func (p Perturbation) ShiftBatch(batch []data.Sample) []data.Sample {
	f := p.ShiftFactor()
	if f == 1 {
		return batch
	}
	out := make([]data.Sample, len(batch))
	for i, s := range batch {
		out[i] = shiftSample(s, f)
	}
	return out
}

// shiftSample scales a sample's image subsequences by factor: each
// source resolution grows by sqrt(factor) (snapped to the patch grid,
// so token counts track (res/patch)^2 ≈ tokens*factor), modelling a
// corpus whose images got heavier mid-run. Text subsequences, sample
// identity and generation targets are untouched — the shift changes
// what a sample costs, never which samples an iteration trains on.
func shiftSample(s data.Sample, factor float64) data.Sample {
	if factor == 1 {
		return s
	}
	subs := append([]data.Subsequence(nil), s.Subsequences...)
	edge := math.Sqrt(factor)
	for i, ss := range subs {
		if ss.Modality != data.Image {
			continue
		}
		res := int(math.Round(float64(ss.Resolution) * edge))
		res -= res % model.PatchSize
		if res < model.PatchSize {
			res = model.PatchSize
		}
		subs[i].Resolution = res
		subs[i].Tokens = model.ImageTokens(res)
	}
	s.Subsequences = subs
	return s
}

// P2PFactor returns the combined link-congestion scale (1 = none).
func (p Perturbation) P2PFactor() float64 { return p.product(linkCongestion) }

// product folds the factors of every covering event of one kind.
// Validation bounds each factor by maxFactor, but nothing bounds how
// many events may stack on one iteration, so the combined factor is
// clamped to maxFactor too — the physical bound applies to the total
// slowdown, and the clamp keeps stacked schedules finite.
func (p Perturbation) product(k Kind) float64 {
	f := 1.0
	for _, e := range p.events {
		if e.Kind == k {
			f *= e.Factor
		}
	}
	return math.Min(f, maxFactor)
}

// Failure returns the iteration's nodeFailure event, if any.
func (p Perturbation) Failure() (Event, bool) {
	for _, e := range p.events {
		if e.Kind == nodeFailure {
			return e, true
		}
	}
	return Event{}, false
}

// RateSchedules builds the per-stage pipeline rate profiles for one DP
// rank, combining every straggler that covers it. Returns nil when the
// rank is unperturbed, so the trainer's fast path stays rate-free.
func (p Perturbation) RateSchedules(rank, stages int) []pipeline.RateSchedule {
	var hits []Event
	for _, e := range p.events {
		if e.Kind == straggler && (e.Rank < 0 || e.Rank == rank) {
			hits = append(hits, e)
		}
	}
	if len(hits) == 0 {
		return nil
	}
	out := make([]pipeline.RateSchedule, stages)
	for s := 0; s < stages; s++ {
		out[s] = combineRates(hits, s)
	}
	return out
}

// combineRates folds the stage's stragglers into one piecewise-
// constant schedule. Open-ended stragglers (Until <= From, including
// the all-zero default) slow [From, ∞); windowed ones slow only
// [From, Until) of pipeline-local time.
func combineRates(events []Event, stage int) pipeline.RateSchedule {
	type window struct{ from, until, factor float64 }
	var ws []window
	for _, e := range events {
		if e.Stage >= 0 && e.Stage != stage {
			continue
		}
		from, until := e.From, e.Until
		if until <= from {
			until = math.Inf(1)
		}
		ws = append(ws, window{from, until, e.Factor})
	}
	if len(ws) == 0 {
		return nil
	}
	// Breakpoints partition time into intervals of constant combined
	// rate.
	var cuts []float64
	for _, w := range ws {
		cuts = append(cuts, w.from, w.until)
	}
	cuts = append(cuts, math.Inf(1))
	sort.Float64s(cuts)
	var sched pipeline.RateSchedule
	prev := 0.0
	for _, c := range cuts {
		if c <= prev {
			continue
		}
		mid := prev + (c-prev)/2
		if math.IsInf(c, 1) {
			mid = prev + 1
		}
		rate := 1.0
		for _, w := range ws {
			if w.from <= mid && mid < w.until {
				rate /= w.factor
			}
		}
		// Stacked stragglers clamp like product(): a combined slowdown
		// beyond maxFactor would underflow the rate toward zero and
		// stall the pipeline simulation.
		rate = math.Max(rate, 1/maxFactor)
		// Merge equal-rate neighbours to keep schedules minimal.
		if n := len(sched); n > 0 && sched[n-1].Rate == rate {
			sched[n-1].Until = c
		} else {
			sched = append(sched, pipeline.RateSeg{Until: c, Rate: rate})
		}
		prev = c
	}
	// Trim a trailing nominal-rate tail: beyond the last segment the
	// simulator runs at nominal speed anyway.
	for n := len(sched); n > 0 && sched[n-1].Rate == 1; n = len(sched) {
		sched = sched[:n-1]
	}
	return sched
}
