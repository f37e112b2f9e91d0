// Package controller closes DistTrain's §4.3 adaptive loop at runtime:
// it watches per-iteration training signals — the iteration-time
// spread across DP ranks, producer-pool failover counts, and
// the observed per-sample cost distribution drifting away from the
// profile the current plan was built on — and, when drift exceeds a
// configured threshold, recalibrates the performance profiler from the
// observed samples and re-runs the §4.3 orchestration search at the
// trigger. The search's winner must then prove itself: incumbent and
// candidate are trial-evaluated on the observed window under the full
// runtime cost model, and only a candidate that beats the incumbent
// there is handed to the runtime — at a deterministic iteration
// boundary, where it applies as a costed reconfiguration (checkpoint
// write + restore read, no lost work).
//
// This is the model/data heterogeneity drift the paper argues must be
// handled continuously (cf. Entrain's variable-heterogeneity
// scheduling, PAPERS.md): the repo's orchestrator was adaptive only
// ahead of time — the planner picked a plan once — and the
// runtime then weathered stragglers, producer churn and distribution
// shift with no way to change its mind. The controller gives it one.
//
// Determinism contract: decisions are a pure function of the
// observation sequence. The plan search is the engine's deterministic
// enumeration, run synchronously inside the Observe that triggers it;
// the trigger is computed from deterministic runtime stats, and the
// switch boundary is fixed at trigger + 1 + applyDelay iterations (the
// time a deployment's search would overlap training). Two identical
// runs therefore trigger, search and switch identically — which is
// what lets the golden-trace test pin byte-identical timelines, and
// the no-drift test pin byte-identical Results against a
// controller-free run.
package controller

import (
	"fmt"
	"math"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/trainer"
)

// Defaults for Config's zero values.
const (
	defaultThreshold = 0.25
	defaultWindow    = 3
)

// The controller's calibrated constants.
const (
	// applyDelay is how many iterations train on the incumbent after
	// the trigger's search, standing for the time a deployment's search
	// overlaps training: a trigger while observing iteration i applies
	// before iteration i+1+applyDelay.
	applyDelay = 1
	// maxReplans caps applied plan switches for a run. Triggered
	// searches that decline to switch (no better plan under the
	// recalibrated profile) do not consume the budget — the cooldown of
	// twice the window throttles search frequency.
	maxReplans = 3
	// minGain is the minimum relative improvement of the candidate
	// plan's trial-evaluated mean iteration time over the incumbent's —
	// both scored on the observed window under the full runtime cost
	// model — for a switch to apply.
	minGain float64 = 0.02
)

// Config parameterises a re-planning controller: the run it watches
// and the drift threshold. The window is defaultWindow (3); the package's
// tests set the unexported window field to 2 for the golden trace. The
// switch delay, switch budget and minimum gain are the constants
// applyDelay, maxReplans and minGain.
type Config struct {
	// Train is the run's training configuration, used two ways: its
	// Spec (cluster, model, batch geometry, calibrated profiler — the
	// profiler is only ever queried, recalibration happens on a fresh
	// one with the same options) defines the re-planning problem, and
	// the whole Config is the template for trial evaluations — every
	// candidate plan is scored on the observed window under the full
	// runtime cost model (trainer.TrialMeanIterTime) with the same
	// switches as the live run. Train.Plan is the incumbent;
	// Train's Scenario/Controller/Trace/Source fields are ignored.
	Train trainer.Config

	// Threshold is the drift score that triggers a re-plan; 0 means
	// 0.25. The score is the maximum of the three normalized drift
	// signals (see DriftReport).
	Threshold float64
	// window is how many recent iterations feed drift estimation (and
	// profiler recalibration); 0 means defaultWindow. No decision fires
	// before a full window has been observed, and two triggers are at
	// least two windows apart.
	window int
}

func (c Config) withDefaults() Config {
	if c.Threshold == 0 {
		c.Threshold = defaultThreshold
	}
	if c.window == 0 {
		c.window = defaultWindow
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if err := c.Train.Validate(); err != nil {
		return err
	}
	if c.Threshold < 0 || math.IsNaN(c.Threshold) {
		return fmt.Errorf("controller: threshold %g must be non-negative", c.Threshold)
	}
	if c.window < 0 {
		return fmt.Errorf("controller: window must be non-negative")
	}
	return nil
}

// DriftReport is one drift evaluation over a full observation window.
type DriftReport struct {
	// Iter is the newest iteration in the window.
	Iter int
	// CostDrift is the relative distance between the windowed mean
	// per-sample (encoder+generator) cost and the same cost on the
	// profile the current plan was built on.
	CostDrift float64
	// SpreadDrift is the windowed mean iteration-time spread across DP
	// ranks ((max-min)/max pipeline time).
	SpreadDrift float64
	// PoolDrift is the windowed producer-pool failover count
	// over fetches (0 without a pool).
	PoolDrift float64
	// Score is the trigger metric: max of the three signals.
	Score float64
	// Triggered marks the report that launched a re-planning search.
	Triggered bool
}

// record is one observed iteration folded into the window.
type record struct {
	batch                      []data.Sample // the observed global batch (read-only)
	shapes                     []model.SampleShape
	spread                     float64
	poolFailovers, poolFetches int64 // cumulative counters at observation time
	havePool                   bool
}

// searchOutcome is what a re-planning search delivers at its boundary.
type searchOutcome struct {
	plan *orchestrator.Plan
	// refShape is the recalibrated mean shape the plan was built on —
	// the new drift reference once the switch applies.
	refShape model.SampleShape
	reason   string
}

// pendingSearch is a finished search waiting for its boundary; out is
// nil when the search declined to switch.
type pendingSearch struct {
	applyAt int
	out     *searchOutcome
}

// Controller implements trainer.Controller: deterministic drift
// detection, re-planning at the trigger, boundary-synchronised switches.
type Controller struct {
	cfg Config
	// cooldown is the minimum number of iterations between triggers
	// (twice the window) and maxReplans the switch budget; tests
	// tighten both.
	cooldown, maxReplans int

	mu       sync.Mutex
	lastIter int
	window   []record
	// refCost is the per-sample cost of the profile the current plan
	// was built on, priced by the runtime's profiler so observed and
	// reference costs are commensurable.
	refCost float64
	// current is the incumbent plan (updated when a switch applies).
	current  *orchestrator.Plan
	pending  *pendingSearch
	lastTrig int
	applied  int
	reports  []DriftReport
}

// Assert the seam is satisfied.
var _ trainer.Controller = (*Controller)(nil)

// New validates the config and builds a controller.
func New(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	c := &Controller{
		cfg:        cfg,
		cooldown:   2 * cfg.window,
		maxReplans: maxReplans,
		lastIter:   -1,
		lastTrig:   math.MinInt32,
		current:    cfg.Train.Plan,
	}
	c.refCost = shapeCost(cfg.Train.Spec.Profiler, cfg.Train.Spec.Profiler.MeanShape())
	return c, nil
}

// shapeCost is Profiler.SampleCost of one sample shape — the quantity
// whose distribution the plan was optimised for.
func shapeCost(p *profiler.Profiler, shape model.SampleShape) float64 {
	return p.SampleCost(p.Kernel().Fold(shape))
}

// Observe implements trainer.Controller. It folds the iteration into
// the drift window and, when a full window's drift score exceeds the
// threshold (outside the cooldown, below the re-plan cap, with no
// search waiting for its boundary), runs the §4.3 search against a
// freshly recalibrated profiler and schedules its outcome.
func (c *Controller) Observe(obs trainer.Observation) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if obs.Iter <= c.lastIter {
		return // failure-recovery rewind: already observed
	}
	c.lastIter = obs.Iter

	rec := record{batch: obs.Batch, spread: obs.Stats.StragglerSpread}
	rec.shapes = make([]model.SampleShape, len(obs.Batch))
	for i, s := range obs.Batch {
		rec.shapes[i] = s.Shape()
	}
	if obs.Pool != nil {
		rec.havePool = true
		rec.poolFailovers = obs.Pool.Failovers
		rec.poolFetches = obs.Pool.Fetches
	}
	c.window = append(c.window, rec)
	if len(c.window) > c.cfg.window {
		c.window = c.window[len(c.window)-c.cfg.window:]
	}
	if len(c.window) < c.cfg.window || c.pending != nil {
		return
	}
	if c.applied >= c.maxReplans {
		return
	}
	if obs.Iter-c.lastTrig < c.cooldown {
		return
	}

	rep := c.driftLocked(obs.Iter)
	if rep.Score > c.cfg.Threshold {
		rep.Triggered = true
		c.lastTrig = obs.Iter
		c.searchLocked(obs.Iter, rep)
	}
	if len(c.reports) < 4096 {
		c.reports = append(c.reports, rep)
	}
}

// driftLocked scores the current window.
func (c *Controller) driftLocked(iter int) DriftReport {
	rep := DriftReport{Iter: iter}
	var shapes []model.SampleShape
	var spreadSum float64
	for _, r := range c.window {
		shapes = append(shapes, r.shapes...)
		spreadSum += r.spread
	}
	// profiler.MeanShapeOf is the same fold CalibrateShapes stores, so
	// the observed cost is measured in the coordinates a re-plan would
	// optimise.
	obsCost := shapeCost(c.cfg.Train.Spec.Profiler, profiler.MeanShapeOf(shapes))
	if c.refCost > 0 {
		rep.CostDrift = math.Abs(obsCost-c.refCost) / c.refCost
	}
	rep.SpreadDrift = spreadSum / float64(len(c.window))
	first, last := c.window[0], c.window[len(c.window)-1]
	if first.havePool && last.havePool {
		if df := last.poolFetches - first.poolFetches; df > 0 {
			rep.PoolDrift = float64(last.poolFailovers-first.poolFailovers) / float64(df)
		} else if last.poolFailovers > first.poolFailovers {
			rep.PoolDrift = 1
		}
	}
	rep.Score = math.Max(rep.CostDrift, math.Max(rep.SpreadDrift, rep.PoolDrift))
	return rep
}

// searchLocked runs the re-planning search over the window and
// schedules its outcome for the deterministic apply boundary.
func (c *Controller) searchLocked(iter int, rep DriftReport) {
	var shapes []model.SampleShape
	batches := make([][]data.Sample, 0, len(c.window))
	for _, r := range c.window {
		shapes = append(shapes, r.shapes...)
		batches = append(batches, r.batch)
	}
	c.pending = &pendingSearch{
		applyAt: iter + 1 + applyDelay,
		out:     runSearch(c.cfg, *c.current, shapes, batches, rep),
	}
}

// runSearch recalibrates a fresh profiler from the observed shapes,
// re-runs the §4.3 enumeration on it, and then arbitrates: incumbent
// and candidate are both trial-evaluated on the observed window
// batches under the full runtime cost model (the planner's analytic
// estimate and the runtime regularly disagree on close plans, and
// MeanIterTime is measured by the runtime). It returns nil (no switch)
// when the search fails, the winner equals the incumbent, or the
// winner's trial time does not beat the incumbent's by minGain.
func runSearch(cfg Config, incumbent orchestrator.Plan, shapes []model.SampleShape, batches [][]data.Sample, rep DriftReport) *searchOutcome {
	fresh, err := profiler.New(cfg.Train.Spec.Profiler.Options())
	if err != nil {
		return nil
	}
	if err := fresh.CalibrateShapes(shapes); err != nil {
		return nil
	}
	spec := cfg.Train.Spec
	spec.Profiler = fresh
	plan, err := orchestrator.Search(spec, orchestrator.SearchOptions{})
	if err != nil {
		return nil
	}
	if samePlacement(&incumbent, plan) {
		return nil
	}
	trial := func(p *orchestrator.Plan) (float64, error) {
		tc := cfg.Train
		tc.Plan = p
		return trainer.TrialMeanIterTime(tc, batches)
	}
	curCost, err := trial(&incumbent)
	if err != nil {
		curCost = math.Inf(1) // incumbent no longer executes the observed load
	}
	newCost, err := trial(plan)
	if err != nil || newCost >= curCost*(1-minGain) {
		return nil
	}
	return &searchOutcome{
		plan:     plan,
		refShape: fresh.MeanShape(),
		reason: fmt.Sprintf("drift %.2f (cost %.2f, spread %.2f, pool %.2f): trial iter %.3fs -> %.3fs",
			rep.Score, rep.CostDrift, rep.SpreadDrift, rep.PoolDrift, curCost, newCost),
	}
}

// samePlacement reports whether two plans make identical resource and
// parallelism decisions.
func samePlacement(a, b *orchestrator.Plan) bool {
	for i := range a.Modules {
		if a.Modules[i].Config != b.Modules[i].Config {
			return false
		}
	}
	return true
}

// Pending implements trainer.Controller. At the scheduled boundary it
// hands the runtime the search's switch, if the search produced one.
// The drift reference and window reset on a switch: the new plan
// defines the new normal.
func (c *Controller) Pending(iter int) *trainer.PlanSwitch {
	c.mu.Lock()
	defer c.mu.Unlock()
	p := c.pending
	if p == nil || iter != p.applyAt {
		return nil
	}
	c.pending = nil
	out := p.out
	if out == nil {
		return nil
	}
	c.current = out.plan
	c.refCost = shapeCost(c.cfg.Train.Spec.Profiler, out.refShape)
	c.window = nil
	c.applied++
	return &trainer.PlanSwitch{Plan: out.plan, Reason: out.reason}
}

// Reports returns the drift evaluations in observation order.
func (c *Controller) Reports() []DriftReport {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]DriftReport(nil), c.reports...)
}
