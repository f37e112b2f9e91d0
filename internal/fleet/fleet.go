package fleet

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"

	"disttrain/internal/cluster"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// JobSpec is one submission to the fleet: a training configuration
// template plus its scheduling envelope.
type JobSpec struct {
	// Name labels the job in results and the merged trace; instances
	// get "-<id>" appended so repeated arrivals stay distinguishable.
	Name string
	// Train is the training template. Its Spec.Cluster must be the
	// fleet's shared cluster; the fleet scopes each instance to its
	// lease (Config.Lease), overrides Plan with the shared plan
	// cache's decision for that lease size, and replaces Trace with a
	// private per-job trace (Config.Trace) — a shared one would
	// interleave tenants nondeterministically — and sets Batches to the
	// run's one batch cache, so tenants reading one corpus at one batch
	// geometry prepare each iteration once between them. Scenario and the
	// DistTrain-vs-Megatron switches (Reorder, AsyncP2P,
	// DisaggregatedPreprocess) are the tenant's own business and pass
	// through untouched. Controller must be nil: a tenant's plan follows
	// its lease, which the fleet scheduler resizes, so Run rejects a
	// re-planning controller.
	Train trainer.Config
	// Iters is the run length in training iterations.
	Iters int
	// MinNodes and MaxNodes bound the job's elastic lease. MinNodes
	// must be large enough for the model to plan feasibly (admission
	// fails otherwise); 0 defaults to 1. MaxNodes 0 defaults to the
	// whole fleet.
	MinNodes, MaxNodes int
	// Arrive is the fleet round the job enters the admission queue.
	Arrive int
	// Priority is the job's priority class (low, normal or high; ""
	// means normal, preserving pre-priority behaviour). Validated at
	// Run; only priority-aware schedulers act on it.
	Priority Class
}

// Config drives one fleet run.
type Config struct {
	// Cluster is the shared fleet every lease is carved out of.
	Cluster cluster.Cluster
	// Jobs are the submissions. Scenario job-arrive events may submit
	// additional instances of any entry. Run reads Jobs for the whole run
	// and never writes it: MinNodes/MaxNodes defaults apply to the run
	// alone, so one slice may drive fleets of different sizes.
	Jobs []JobSpec
	// Policy is the Scheduler deciding admission order, lease sizing
	// and placement: one of the built-ins (FIFO, FairShare, Priority),
	// any custom implementation, or nil for FIFO.
	Policy Scheduler
	// Scenario carries fleet-scope events only (job-arrive, job-depart,
	// node-fail, node-join) and must be a fixed schedule — generators
	// have no knowable last round. Per-job perturbations belong in each
	// JobSpec's Train.Scenario.
	Scenario scenario.Scenario
	// Cache, when non-nil, is the shared plan cache to consult (and
	// warm); nil builds a private in-memory one with default search
	// options. Result search/hit counts are deltas over this run either
	// way. Only benchmark/ sets it, to a persistent cache over a
	// store.Disk, until a later benchmark change deletes the store.
	Cache *orchestrator.PlanCache
	// Preprocess, when non-nil, attaches the fleet-shared
	// disaggregated preprocessing tier: one producer fleet plus one
	// multiplexing service every tenant sources its batches from.
	// Scenario producer-fail / producer-join events require it
	// (they act on the shared producer fleet).
	Preprocess *PreprocessConfig
	// Workers is inert (ignored): a round steps its tenants in
	// submission order on Run's goroutine. Kept only for benchmark/ until
	// a later benchmark change deletes it.
	Workers int
	// Planners is inert (ignored), kept only for benchmark/ until a later benchmark change deletes it.
	Planners int
	// Trace enables per-job Chrome-trace timelines and the merged
	// fleet timeline on the Result.
	Trace bool
	// OnRound, when non-nil, observes every round's post-scheduling
	// lease state — the seam the lease-accounting invariant tests
	// watch. It must not mutate anything.
	OnRound func(RoundInfo)
}

// SequentialPlanners is inert, kept only for benchmark/ until a later benchmark change deletes it.
const SequentialPlanners = -1

// RoundInfo is one round's lease-table snapshot. Rounds between two
// lease changes share one: its slices and map are read-only.
type RoundInfo struct {
	Round  int
	Free   []int
	Failed []int
	// Leases maps tenant id -> leased nodes, for every tenant holding
	// any.
	Leases map[int][]int
}

// JobResult is one tenant's outcome.
type JobResult struct {
	// Name is the instance label; Spec the Config.Jobs index it was
	// built from; ID the fleet-wide tenant id (submission order) —
	// what job-depart events address.
	Name string
	Spec int
	ID   int
	// Arrived, Started and Finished are fleet rounds; Started is -1
	// when the job was never placed.
	Arrived, Started, Finished int
	// Departed marks a job-depart termination; Resizes counts applied
	// lease changes.
	Departed bool
	Resizes  int
	// Priority is the instance's priority class; Preemptions counts
	// how many times a scheduler suspended it for a higher-priority
	// tenant (each resume is a checkpoint-restore, visible in
	// Result.Replans).
	Priority    Class
	Preemptions int
	// Lease is the final lease (empty once released).
	Lease cluster.Lease
	// Strategy names the plan the job started on.
	Strategy string
	// Plan is the orchestration plan of the job's final geometry (nil
	// when it never started).
	Plan *orchestrator.Plan
	// Result is the training result (nil when the job never started);
	// Trace its timeline when Config.Trace was set.
	Result *trainer.Result
	Trace  *metrics.Trace
	// Pool is the tenant's preprocessing counters on the shared tier
	// (nil without Config.Preprocess or when the job never started).
	// Fetch and rejection counts are deterministic for a fixed arrival
	// trace; latency and failover counts are wall-clock observables.
	Pool *metrics.PoolSnapshot
	// Err records an admission or runtime failure.
	Err error
}

// Result aggregates a fleet run.
type Result struct {
	// Jobs are the tenants in submission order.
	Jobs []JobResult
	// Rounds is how many scheduling rounds the fleet executed.
	Rounds int
	// PlanSearches and PlanHits are the plan cache's delta over this
	// run: searches actually executed vs calls served from the cache.
	PlanSearches, PlanHits int64
	// PlanWarmSeeds counts the searches warm-started from a
	// neighbouring lease size's plan. A persistent Config.Cache reports
	// its own warm hits, and its OnCandidate observer what the searches
	// pruned.
	PlanWarmSeeds int64
	// PlanCoalesced is inert (always 0), kept only for benchmark/ until a later benchmark change deletes it.
	PlanCoalesced int64
	// Trace is the merged fleet timeline (per-job lanes PID-offset
	// into disjoint blocks, scheduler lane last); nil unless
	// Config.Trace.
	Trace *metrics.Trace
	// Preprocess is the shared preprocessing tier's aggregate counters
	// across every tenant; nil unless Config.Preprocess.
	Preprocess *metrics.PoolSnapshot
}

// tenant states, in lifecycle order.
const (
	stateQueued = iota
	stateRunning
	stateDone
)

var stateNames = [...]string{"queued", "running", "done"}

// legalMoves is the tenant lifecycle, legalMoves[from][to]: the four
// moves the runner makes. A queued tenant is placed (running) or is
// rejected, starved or departs (done); a running tenant is suspended
// (queued) or finishes, fails or departs (done). Done is terminal, and
// no move is a self-move.
var legalMoves = [...][len(stateNames)]bool{
	stateQueued:  {stateRunning: true, stateDone: true},
	stateRunning: {stateQueued: true, stateDone: true},
	stateDone:    {},
}

// tenant is one submission's run state. Its JobResult is the record
// Run returns, kept current as the tenant moves: JobResult.Spec indexes
// Config.Jobs (the tenant's template), and Priority is its class.
type tenant struct {
	JobResult

	iters    int
	min, max int
	waited   int // full rounds queued since last enqueue

	rt      *trainer.Runtime // the armed run, nil until started and after retire
	pool    *preprocess.Tenant
	state   int
	stepErr error
}

// runner is one fleet run's mutable state.
type runner struct {
	cfg        Config
	sched      Scheduler
	shaped     bool         // scheduler placements are priced (ShapedScheduler)
	specs      []specLimits // validated per-JobSpec class and node bounds
	leased     map[leaseKey]*orchestrator.Spec
	table      *leaseTable
	cache      *orchestrator.PlanCache
	events     []scenario.Event
	tenants    []*tenant
	slab       []tenant // tenant i is &slab[i]: one array for every arrival
	queue      []*tenant
	round      int
	admitted   int // tenants admitted this round
	retired    int // tenants retired this round (their nodes freed)
	fleetTrace *metrics.Trace

	// batches is the run's one trainer batch cache, handed to every
	// tenant; it lives and dies with the run, so no op's batches outlive
	// it.
	batches trainer.BatchCache

	// The shared preprocessing tier (nil without Config.Preprocess).
	producers *preprocess.Fleet
	service   *preprocess.Service

	// queueDirty marks that an Order key of some queued tenant may have
	// changed since the last sortQueue: set by arrivals, requeues,
	// preemptions and, unless agingKeepsOrder, round-start aging; cleared
	// by sortQueue. When the flag is clear the queue is already in
	// scheduler order (popping the head preserves it), so admit's
	// per-pass stable re-sort — the identity on a sorted queue — is
	// skipped entirely. agingKeepsOrder marks the built-in schedulers,
	// whose Order reads Waited not at all or as the difference of two
	// waits, so aging every queued tenant by a round keeps the order.
	queueDirty, agingKeepsOrder bool
	// live holds the running tenants in submission order, kept by
	// transition; runBuf is running()'s copy of it.
	live, runBuf []*tenant

	// gen is bumped by transition and resize — the only writers of
	// tenant state and of a running tenant's lease — and by nothing
	// else; runViews is Ops.Running's snapshot, current while
	// runViewsGen == gen (both start at 0: no tenant runs, nil is right),
	// and extended in place by admitRunning.
	gen, runViewsGen uint64
	runViews         []JobView
}

// specLimits is what Run derives from one JobSpec once, with defaults
// applied: tenants copy these, not the spec. modelOK: the template's
// model is its profiler's, as a valid spec's must be.
type specLimits struct {
	class    Class
	min, max int
	modelOK  bool
}

// leaseKey is what a leased spec is a function of, for a template whose
// model is its profiler's on the fleet's cluster (Run holds every
// template to it): profiler, batch geometry, node count and, when
// placements are priced, shape.
type leaseKey struct {
	prof                     *profiler.Profiler
	batch, micro, vpp, nodes int
	shape                    string
}

// Run executes the fleet to completion: every submitted (and
// scenario-arrived) job is admitted, run, resized and finalised under
// the configured policy. Per-tenant failures land in their JobResult;
// only configuration errors fail the run itself.
func Run(cfg Config) (*Result, error) {
	if err := cfg.Cluster.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Jobs) == 0 {
		return nil, errors.New("fleet: no jobs submitted")
	}
	events, err := fleetEvents(cfg.Scenario, cfg.Preprocess != nil)
	if err != nil {
		return nil, err
	}
	sched := cfg.Policy
	if sched == nil {
		sched = fifo
	}
	shaped := false
	if ss, ok := sched.(ShapedScheduler); ok {
		shaped = ss.ShapedPlacement()
	}
	// Defaults land in specs, never in cfg.Jobs: callers may reuse one
	// Jobs slice across fleets (and cluster sizes) without this run's
	// defaults sticking.
	specs := make([]specLimits, len(cfg.Jobs))
	for i := range cfg.Jobs {
		js := &cfg.Jobs[i]
		lo, hi := js.MinNodes, js.MaxNodes
		if lo == 0 {
			lo = 1
		}
		if hi == 0 {
			hi = cfg.Cluster.Nodes
		}
		switch {
		case js.Iters <= 0:
			return nil, fmt.Errorf("fleet: job %d needs at least one iteration", i)
		case js.Arrive < 0:
			return nil, fmt.Errorf("fleet: job %d arrival round %d negative", i, js.Arrive)
		case lo < 1 || lo > hi || hi > cfg.Cluster.Nodes:
			return nil, fmt.Errorf("fleet: job %d wants [%d,%d] nodes on a %d-node fleet",
				i, lo, hi, cfg.Cluster.Nodes)
		case js.Train.Spec.Cluster != cfg.Cluster:
			return nil, fmt.Errorf("fleet: job %d's Train.Spec.Cluster differs from the shared fleet", i)
		case js.Train.Controller != nil:
			return nil, fmt.Errorf("fleet: job %d carries a Train.Controller; fleet tenants run none", i)
		}
		cls, err := ParseClass(string(js.Priority))
		if err != nil {
			return nil, fmt.Errorf("fleet: job %d: %w", i, err)
		}
		s := &js.Train.Spec
		specs[i] = specLimits{class: cls, min: lo, max: hi, modelOK: s.Profiler != nil && s.Model.Equal(s.Profiler.Model())}
	}
	cache := cfg.Cache
	if cache == nil {
		cache = orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	}
	arrivals := len(cfg.Jobs)
	for _, ev := range events {
		if arrivalKind(ev.Kind) && ev.Job >= 0 && ev.Job < len(cfg.Jobs) {
			arrivals += max(ev.Count, 1)
		}
	}
	f := &runner{
		cfg: cfg, sched: sched, shaped: shaped, specs: specs,
		leased: map[leaseKey]*orchestrator.Spec{},
		table:  newLeaseTable(cfg.Cluster.Nodes),
		cache:  cache, events: events,
		tenants: make([]*tenant, 0, arrivals), slab: make([]tenant, arrivals),
	}
	// A running tenant holds a node: no more run than there are nodes.
	run := make([]*tenant, 2*cfg.Cluster.Nodes)
	f.live, f.runBuf = run[:0:cfg.Cluster.Nodes], run[cfg.Cluster.Nodes:cfg.Cluster.Nodes]
	f.agingKeepsOrder = sched == fifo || sched == FairShare || sched == Priority
	if cfg.Trace {
		f.fleetTrace = metrics.NewTrace()
		f.fleetTrace.NameProcess(0, "scheduler")
	}
	if err := f.startPreprocess(); err != nil {
		return nil, err
	}
	defer f.stopPreprocess()
	baseSearches, baseHits := cache.Searches(), cache.Hits()
	baseWarmSeeds := cache.WarmSeeds()

	lastRound := 0
	for i := range cfg.Jobs {
		lastRound = max(lastRound, cfg.Jobs[i].Arrive)
	}
	for _, ev := range events {
		lastRound = max(lastRound, ev.Start)
	}

	for f.round = 0; ; f.round++ {
		f.admitted, f.retired = 0, 0
		// Queue aging: tenants still queued from earlier rounds have
		// waited one more full round (this round's arrivals start at 0).
		// Waited is an Order key (aging promotion), so aging dirties the
		// queue order unless the scheduler's order cannot move with it.
		for _, t := range f.queue {
			t.waited++
			f.queueDirty = f.queueDirty || !f.agingKeepsOrder
		}
		f.enqueueArrivals()
		f.applyEvents()
		f.admit()
		f.sched.Rebalance(schedOps{f})
		if cfg.OnRound != nil {
			cfg.OnRound(f.roundInfo())
		}
		f.stepRunning()
		f.completeFinished()
		if f.round >= lastRound && len(f.live) == 0 {
			if len(f.queue) == 0 {
				break
			}
			// A retirement this round freed nodes the queue has not seen
			// yet — give admission one more pass. Only a round with no
			// admissions and no freed capacity proves the queue is stuck.
			if f.admitted == 0 && f.retired == 0 {
				f.starveQueue()
				break
			}
		}
	}

	res := &Result{
		Rounds:        f.round + 1,
		PlanSearches:  cache.Searches() - baseSearches,
		PlanHits:      cache.Hits() - baseHits,
		PlanWarmSeeds: cache.WarmSeeds() - baseWarmSeeds,
	}
	res.Jobs = make([]JobResult, len(f.tenants))
	for i, t := range f.tenants {
		res.Jobs[i] = t.JobResult
	}
	if f.service != nil {
		snap := f.service.Snapshot()
		res.Preprocess = &snap
	}
	if cfg.Trace {
		merged := metrics.NewTrace()
		base := 0
		for _, t := range f.tenants {
			if t.Trace == nil {
				continue
			}
			merged.AppendOffset(t.Trace, base, t.Name+"/")
			base += t.Trace.MaxPID() + 1
		}
		merged.AppendOffset(f.fleetTrace, base, "fleet/")
		res.Trace = merged
	}
	return res, nil
}

// fleetEvents extracts and validates the fleet-scope event schedule;
// producer events need the shared preprocessing tier.
func fleetEvents(s scenario.Scenario, preprocess bool) ([]scenario.Event, error) {
	if s == nil {
		return nil, nil
	}
	sched, ok := s.(*scenario.Schedule)
	if !ok {
		return nil, fmt.Errorf("fleet: scenario %q must be a fixed schedule", s.Name())
	}
	evs := sched.Events()
	for _, e := range evs {
		// Producer events are dual-scope: addressed to one training run
		// they act on its own producers (Train.Scenario); here they act
		// on the fleet-shared producer tier.
		if e.Kind == scenario.ProducerFail || e.Kind == scenario.ProducerJoin {
			if !preprocess {
				return nil, fmt.Errorf("fleet: %s event needs Config.Preprocess (it acts on the shared producer fleet)", e.Kind)
			}
			continue
		}
		if !e.Kind.FleetScope() {
			return nil, fmt.Errorf("fleet: %s is not a fleet-scope event; put per-job perturbations in the job's Train.Scenario", e.Kind)
		}
	}
	return evs, nil
}

// note emits a scheduler-lane trace instant at the current round.
func (f *runner) note(name string, args ...metrics.Arg) {
	if f.fleetTrace != nil {
		f.fleetTrace.Instant(name, "fleet", float64(f.round), args...)
	}
}

// arrivalKind reports whether a fleet-scope event kind instantiates
// new tenants from a job spec.
func arrivalKind(k scenario.Kind) bool {
	return k == scenario.JobArrive || k == scenario.PriorityArrive || k == scenario.PreemptStorm || k == scenario.Herd
}

// newTenant submits one instance of job spec si to the queue, at the
// given priority class. The tenant is the next slot of the run's slab;
// its name, "<spec name>-<id>", is its one allocation.
func (f *runner) newTenant(si int, class Class) {
	js, lim, id := &f.cfg.Jobs[si], f.specs[si], len(f.tenants)
	name := js.Name
	if name == "" {
		name = "job"
	}
	var buf [48]byte
	t := &f.slab[id]
	*t = tenant{
		JobResult: JobResult{
			Name: string(strconv.AppendInt(append(append(buf[:0], name...), '-'), int64(id), 10)), Spec: si, ID: id,
			Arrived: f.round, Started: -1, Finished: -1,
			Priority: lim.class,
		},
		iters: js.Iters,
		min:   lim.min, max: lim.max,
		state: stateQueued,
	}
	if class != "" {
		t.Priority = class
	}
	f.tenants = append(f.tenants, t)
	f.queue = append(f.queue, t)
	f.queueDirty = true
	f.note("job-arrive", metrics.Int("job", t.ID), metrics.Str("name", t.Name), metrics.Str("class", t.Priority.String()))
}

// enqueueArrivals submits this round's arrivals: Config.Jobs entries
// first (in index order), then scenario arrival events — job-arrive,
// priority-arrive, preempt-storm, herd — in schedule order. The kinds
// differ only in count and class, and the parser's defaults leave a
// job-arrive or priority-arrive with no count (one instance) and a
// job-arrive or herd with no class (the spec's). A herd's K tenants
// share one plan cache key: one search, K-1 cache hits.
func (f *runner) enqueueArrivals() {
	for i := range f.cfg.Jobs {
		if f.cfg.Jobs[i].Arrive == f.round {
			f.newTenant(i, "")
		}
	}
	for _, ev := range f.events {
		if !arrivalKind(ev.Kind) || ev.Start != f.round {
			continue
		}
		if ev.Job < 0 || ev.Job >= len(f.cfg.Jobs) {
			f.note("job-arrive-ignored", metrics.Int("job", ev.Job), metrics.Str("reason", "no such job spec"))
			continue
		}
		for k := 0; k < max(ev.Count, 1); k++ {
			f.newTenant(ev.Job, Class(ev.Class))
		}
	}
}

// applyEvents fires this round's producer, node-join, node-fail and
// job-depart events, in that order (joins first so freed capacity is
// visible to the failure shrink path and admission in the same round).
func (f *runner) applyEvents() {
	for _, ev := range f.events {
		if (ev.Kind == scenario.ProducerFail || ev.Kind == scenario.ProducerJoin) && ev.Start == f.round {
			f.producerEvent(ev)
		}
	}
	for _, ev := range f.events {
		if ev.Kind == scenario.FleetNodeJoin && ev.Start == f.round {
			if err := f.table.Join(ev.Node); err != nil {
				f.note("node-join-ignored", metrics.Int("node", ev.Node), metrics.Str("reason", err.Error()))
				continue
			}
			f.note("node-join", metrics.Int("node", ev.Node))
		}
	}
	for _, ev := range f.events {
		if ev.Kind == scenario.FleetNodeFail && ev.Start == f.round {
			f.failNode(ev.Node)
		}
	}
	for _, ev := range f.events {
		if ev.Kind == scenario.JobDepart && ev.Start == f.round {
			f.departJob(ev.Job)
		}
	}
}

// failNode removes a node from the fleet and shrinks (or suspends) the
// tenant placed on it.
func (f *runner) failNode(node int) {
	owner, err := f.table.Fail(node)
	if err != nil {
		f.note("node-fail-ignored", metrics.Int("node", node), metrics.Str("reason", err.Error()))
		return
	}
	f.note("node-fail", metrics.Int("node", node), metrics.Int("owner", owner))
	if owner < 0 {
		return
	}
	// Only a running tenant holds nodes. It shrinks onto the survivors
	// when they can still run the job.
	t := f.tenants[owner]
	if shrunk := t.Lease.Without(node); shrunk.NodeCount() >= t.min {
		reason := fmt.Sprintf("node %d failed: lease shrinks to %d nodes", node, shrunk.NodeCount())
		if f.resize(t, shrunk, nil, nil, nil, reason) == nil {
			f.note("lease-shrink", metrics.Int("job", t.ID), metrics.Int("nodes", shrunk.NodeCount()))
			return
		}
	}
	// The survivor set cannot run the job: suspend it. Progress (checkpoints,
	// optimizer state) stays with the runtime; the tenant
	// rejoins the queue ahead of never-started jobs and resumes when
	// capacity returns.
	f.transition(t, stateQueued, "node failed")
	f.requeueFront(t)
	f.note("job-suspend", metrics.Int("job", t.ID))
}

// transition is the one writer of tenant state. Every move between
// queued, running and done funnels through it, so the bookkeeping a
// move implies cannot be half-done: a destination that holds no nodes
// (queued, done) gives the lease back and the queue-wait clock
// restarts. Trace notes and queue position stay with the caller. A
// move outside legalMoves is a runner bug, never an input: it panics,
// naming the tenant, the move and why the caller made it.
func (f *runner) transition(t *tenant, to int, reason string) {
	if !legalMoves[t.state][to] {
		panic(fmt.Sprintf("fleet: illegal move %s -> %s of tenant %s at round %d (%s)",
			stateNames[t.state], stateNames[to], t.Name, f.round, reason))
	}
	if to == stateQueued || to == stateDone {
		f.table.Release(t.ID, t.Lease.Nodes)
		t.Lease = cluster.Lease{}
	}
	byID := func(x *tenant, id int) int { return cmp.Compare(x.ID, id) }
	if i, found := slices.BinarySearchFunc(f.live, t.ID, byID); to == stateRunning {
		f.live = slices.Insert(f.live, i, t)
	} else if found {
		f.live = slices.Delete(f.live, i, i+1)
	}
	t.state = to
	t.waited = 0
	f.gen++
}

// resize is the one costed lease change of a tenant that has run, and
// it moves the tenant's lease and the lease table together. It takes
// the nodes in take out of the free pool, plans the new lease through
// the shared cache when the caller holds no plan, runs the trainer's
// checkpoint-reconfigure, then records the tenant's lease, plan and
// resize count and frees the nodes in drop. An error before that gives
// take back and leaves the tenant on its old lease and plan. A drop the
// table refuses means the table and the tenant diverged: the tenant
// fails loudly rather than corrupting accounting.
func (f *runner) resize(t *tenant, lease cluster.Lease, take, drop []int, plan *orchestrator.Plan, reason string) error {
	if err := f.table.Acquire(t.ID, take); err != nil {
		return err
	}
	var err error
	if plan == nil {
		plan, err = f.cache.Plan(context.Background(), *f.leaseSpec(t, lease))
	}
	if err == nil {
		err = t.rt.Resize(lease, plan, reason)
	}
	if err != nil {
		f.table.ReleaseNodes(t.ID, take) // just acquired: cannot fail
		return err
	}
	t.Lease, t.Plan = lease, plan
	t.Resizes++
	f.gen++
	if err := f.table.ReleaseNodes(t.ID, drop); err != nil {
		f.fail(t, "job-failed", err)
		return err
	}
	return nil
}

// requeueFront inserts a suspended tenant before every never-started
// entry, keeping suspended tenants among themselves in id order.
func (f *runner) requeueFront(t *tenant) {
	at := 0
	for at < len(f.queue) && f.queue[at].Started >= 0 && f.queue[at].ID < t.ID {
		at++
	}
	f.queue = append(f.queue, nil)
	copy(f.queue[at+1:], f.queue[at:])
	f.queue[at] = t
	f.queueDirty = true
}

// departJob terminates tenant id at this round.
func (f *runner) departJob(id int) {
	if id < 0 || id >= len(f.tenants) || f.tenants[id].state == stateDone {
		f.note("job-depart-ignored", metrics.Int("job", id))
		return
	}
	t := f.tenants[id]
	if t.state == stateQueued {
		for i, q := range f.queue {
			if q == t {
				f.queue = append(f.queue[:i], f.queue[i+1:]...)
				break
			}
		}
	}
	f.retire(t, true)
	f.note("job-depart", metrics.Int("job", id))
}

// retire finalises a tenant and frees its lease. The result and trace
// are all that outlive it: the runtime is dropped, so a long fleet does
// not keep (and the GC does not re-mark) every runtime it ever ran.
func (f *runner) retire(t *tenant, departed bool) {
	if t.rt != nil {
		t.Result = t.rt.Finish()
		t.rt.Close() // leaves the run's batch cache
		t.rt = nil
	}
	// No fetch is in flight between Steps, so the tenant's pool
	// counters are quiescent — snapshot them now, exactly once.
	f.snapshotPool(t)
	f.transition(t, stateDone, "retire")
	t.Finished = f.round
	t.Departed = departed
	f.retired++
}

// fail retires a tenant on an admission or runtime error, with the
// scheduler-lane note naming what kind of failure it was.
func (f *runner) fail(t *tenant, kind string, err error) {
	t.Err = err
	f.retire(t, false)
	f.note(kind, metrics.Int("job", t.ID), metrics.Str("reason", err.Error()))
}

// leaseSpec scopes the tenant's training spec to a lease — the exact
// spec the plan cache keys on for that lease and, by the same
// Spec.ForLease, the one the tenant's runtime prices. Placement-scoring
// schedulers price the lease's concrete shape: a fragmented lease
// loses rail alignment, and its plan is cached under that shape. The
// spec is interned per leaseKey and never written after; a template
// whose model is not its profiler's gets its own, which Plan rejects.
func (f *runner) leaseSpec(t *tenant, l cluster.Lease) *orchestrator.Spec {
	tmpl := &f.cfg.Jobs[t.Spec].Train.Spec
	k := leaseKey{tmpl.Profiler, tmpl.GlobalBatch, tmpl.Microbatch, tmpl.VPP, l.NodeCount(), ""}
	if f.shaped {
		k.shape = l.Shape()
	}
	s, ok := f.leased[k]
	if !ok || !f.specs[t.Spec].modelOK {
		spec := tmpl.ForLease(f.cfg.Cluster, l, f.shaped)
		if s = &spec; f.specs[t.Spec].modelOK {
			f.leased[k] = s
		}
	}
	return s
}

// sortQueue orders the admission queue by the scheduler's Order
// (stable, so always-false comparators keep strict submission order).
// No-op while queueDirty is clear: removals keep a sorted queue
// sorted, so only key mutations (arrivals, requeues, preemptions,
// aging) force a re-sort. A queue with no adjacent inversion is what
// the stable sort would return, so a pass that finds none skips it;
// under a constant Order (fifo, fair-share) it never finds one. The
// pass builds each tenant's view once; views are built on read and
// alias the lease, so the comparator does not allocate. admit calls it
// on a non-empty queue.
func (f *runner) sortQueue() {
	if !f.queueDirty {
		return
	}
	f.queueDirty = false
	q := f.queue
	prev := f.view(q[0])
	for _, t := range q[1:] {
		v := f.view(t)
		if f.sched.Order(v, prev) {
			sort.SliceStable(q, func(i, j int) bool { return f.sched.Order(f.view(q[i]), f.view(q[j])) })
			return
		}
		prev = v
	}
}

// admit reserves leases for queued tenants in scheduler order until
// the head cannot be placed. The head blocks the queue (no
// backfilling), so admission latency stays predictable: once a job
// reaches the head — by submission order or by aging — the next
// feasible capacity is its.
func (f *runner) admit() {
	for len(f.queue) > 0 {
		f.sortQueue()
		t := f.queue[0]
		ops := schedOps{f}
		// One view serves the whole attempt: MakeRoom mutates other
		// tenants, never the head.
		v := f.view(t)
		grant := f.sched.GrantSize(ops, v)
		if grant < t.min {
			f.sched.MakeRoom(ops, v)
			grant = f.sched.GrantSize(ops, v)
		}
		if grant < t.min {
			return // the head blocks the queue
		}
		lease := cluster.NewLease(f.sched.PlaceNodes(ops, v, grant)...)
		// Two ways the head can never run, one exit. An invalid placement
		// (other than grant nodes, or nodes the table's Acquire refuses) is
		// a bug in the scheduler, not the tenant: failing the tenant loudly
		// beats corrupting the lease table. A lease unplannable at its
		// granted size (model too big for MinNodes, degenerate batch
		// geometry) stays unplannable, and retiring the tenant gives its
		// nodes back. Either way the queue keeps moving.
		var err error
		if lease.NodeCount() != grant {
			err = fmt.Errorf("placed %d nodes, granted %d", lease.NodeCount(), grant)
		} else {
			err = f.table.Acquire(t.ID, lease.Nodes)
		}
		if err != nil {
			err = fmt.Errorf("fleet: scheduler %s: %w", f.sched.Name(), err)
		} else {
			t.Lease = lease // the table's nodes and the tenant's lease move together
			err = f.reserve(t, lease)
		}
		f.queue = f.queue[1:]
		if err != nil {
			f.fail(t, "job-rejected", err)
			continue
		}
		f.admitted++
	}
}

// reserve is the rest of admission, one synchronous step: plan the
// lease admit acquired through the shared cache and start the tenant on
// it — a fresh tenant builds and arms its runtime, a suspended one
// resumes through a costed lease resize. The tenants of a template on
// leases of one shape share one interned leased spec (leaseSpec), so
// K identical tenants make one §4.3 search and K-1 cache hits, one
// Plan call each. Their runtimes share one trainer class (plan, leased
// spec, prices), which trainer.New resolves and validates the config
// of once; a later tenant's runtime points at it. Errors leave
// whatever the tenant holds to the caller's retire path.
func (f *runner) reserve(t *tenant, lease cluster.Lease) error {
	plan, err := f.cache.Plan(context.Background(), *f.leaseSpec(t, lease))
	if err != nil {
		return err
	}
	if t.rt == nil {
		tcfg := f.cfg.Jobs[t.Spec].Train
		tcfg.Lease = &t.Lease // read in New; after, only checked for nil
		tcfg.Plan = plan
		// Shaped schedulers price the run against the lease's concrete
		// placement — the same cluster view leaseSpec planned it on.
		tcfg.PlacementPricing = f.shaped
		tcfg.Batches = &f.batches
		// Tracing is fleet-owned: a template Trace shared by K tenants
		// would interleave their lanes nondeterministically, so it is
		// replaced by a private per-job trace (Config.Trace on) or
		// dropped (off).
		tcfg.Trace = nil
		if f.cfg.Trace {
			t.Trace = metrics.NewTrace()
			tcfg.Trace = t.Trace
		}
		// With a shared preprocessing tier, the tenant registers on the
		// service and sources its batches through its handle.
		if err := f.registerTenant(t, &tcfg); err != nil {
			return err
		}
		rt, err := trainer.New(tcfg)
		if err != nil {
			return err
		}
		if _, err := rt.NewJob(t.iters); err != nil {
			rt.Close() // the tenant never holds it, so retire cannot
			return err
		}
		t.rt = rt
		t.Strategy, t.Plan = plan.Strategy, plan
	} else if err := f.resize(t, lease, nil, nil, plan, fmt.Sprintf("resumed on %d nodes", lease.NodeCount())); err != nil {
		return err
	}
	if t.Started < 0 {
		t.Started = f.round
	}
	f.admitRunning(t)
	f.note("job-start", metrics.Int("job", t.ID), metrics.Int("nodes", lease.NodeCount()), metrics.Str("strategy", plan.Strategy))
	return nil
}

// running returns a copy of live, so the caller may retire tenants as
// it ranges. The copy is runner-owned scratch, valid until the next
// call.
func (f *runner) running() []*tenant {
	f.runBuf = append(f.runBuf[:0], f.live...)
	return f.runBuf
}

// stepRunning advances every running tenant by one training iteration
// (or one recovery rewind) in submission order, then retires the
// tenants whose step failed.
func (f *runner) stepRunning() {
	run := f.running()
	for _, t := range run {
		t.stepErr = t.rt.Step()
	}
	for _, t := range run {
		if t.stepErr != nil {
			f.fail(t, "job-failed", t.stepErr)
		}
	}
}

// completeFinished finalises tenants whose run is done and frees their
// leases for next round's admissions and growth.
func (f *runner) completeFinished() {
	for _, t := range f.running() {
		if t.rt.Done() {
			f.retire(t, false)
			f.note("job-done", metrics.Int("job", t.ID))
		}
	}
}

// starveQueue finalises queued tenants that can never be placed: no
// running tenant will free capacity and no future event can add any.
func (f *runner) starveQueue() {
	for _, t := range f.queue {
		t.Err = fmt.Errorf("fleet: %s starved: %d free of %d nodes, needs %d",
			t.Name, f.table.FreeCount(), len(f.table.owner), t.min)
		f.retire(t, false)
		f.note("job-starved", metrics.Int("job", t.ID))
	}
	f.queue = nil
}

// roundInfo is the lease table's snapshot at this round.
func (f *runner) roundInfo() RoundInfo {
	ri := f.table.snapshot()
	ri.Round = f.round
	return ri
}
