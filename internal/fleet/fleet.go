package fleet

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sort"

	"disttrain/internal/cluster"
	"disttrain/internal/fanout"
	"disttrain/internal/metrics"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
	"disttrain/internal/store"
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
	// interleave tenants nondeterministically. Scenario, Controller
	// and the DistTrain-vs-Megatron switches (Reorder, AsyncP2P,
	// DisaggregatedPreprocess) are the tenant's own business and pass
	// through untouched.
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
	// additional instances of any entry.
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
	// warm); nil builds a private one with default search options (a
	// caller who wants others builds the cache). Result search/hit
	// counts are deltas over this run either way.
	Cache *orchestrator.PlanCache
	// PlanCacheDir, when non-empty, makes the control plane durable:
	// the fleet builds its plan cache over an on-disk store rooted
	// there, so a later run (or process) serves repeated specs with
	// zero cold searches and warm-starts searches at new lease sizes
	// from their neighbours. Mutually exclusive with Cache — a caller
	// supplying its own cache owns its persistence.
	PlanCacheDir string
	// Preprocess, when non-nil, attaches the fleet-shared
	// disaggregated preprocessing tier: one producer fleet plus one
	// multiplexing service every tenant sources its batches from, with
	// priority-weighted fair queueing and lease-scaled admission
	// quotas. Scenario producer-fail / producer-join events require it
	// (they act on the shared producer fleet).
	Preprocess *PreprocessConfig
	// Workers bounds the per-round tenant-step worker pool; values < 1
	// mean GOMAXPROCS. Results and traces are byte-identical at any
	// value.
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

// RoundInfo is one round's lease-table snapshot.
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
	// PlanWarmHits, PlanWarmSeeds and PlanPruned are the warm-start
	// deltas: specs served from the on-disk store with no search (zero
	// unless the cache is persistent: Config.PlanCacheDir or a
	// persistent Config.Cache), searches warm-started from a
	// neighbouring lease size's plan, and candidates the searches'
	// bounds pruned.
	PlanWarmHits, PlanWarmSeeds, PlanPruned int64
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

type tenant struct {
	id, spec int
	name     string
	cfg      trainer.Config // instance copy of the template
	iters    int
	min, max int
	class    Class

	arrived, started, finished int
	departed                   bool
	resizes                    int
	waited                     int // full rounds queued since last enqueue
	preempts                   int

	rt       *trainer.Runtime
	job      *trainer.Job
	lease    cluster.Lease
	plan     *orchestrator.Plan
	trace    *metrics.Trace
	result   *trainer.Result
	pool     *preprocess.Tenant
	poolSnap *metrics.PoolSnapshot
	err      error

	strategy string
	state    int
	stepErr  error
}

// runner is one fleet run's mutable state.
type runner struct {
	cfg        Config
	ctx        context.Context
	sched      Scheduler
	shaped     bool    // scheduler placements are priced (ShapedScheduler)
	classes    []Class // validated per-JobSpec priority classes
	table      *leaseTable
	cache      *orchestrator.PlanCache
	events     []scenario.Event
	tenants    []*tenant
	queue      []*tenant
	round      int
	admitted   int // tenants admitted this round
	retired    int // tenants retired this round (their nodes freed)
	fleetTrace *metrics.Trace

	// The shared preprocessing tier (nil without Config.Preprocess).
	producers *preprocess.Fleet
	service   *preprocess.Service
	poolStats *metrics.PoolStats

	// queueDirty marks that an Order key of some queued tenant may have
	// changed since the last sortQueue: set by arrivals, requeues,
	// preemptions and round-start aging; cleared by sortQueue. When the
	// flag is clear the queue is already in scheduler order (popping the
	// head preserves it), so admit's per-pass stable re-sort — the
	// identity on a sorted queue — is skipped entirely.
	queueDirty bool
	runBuf     []*tenant // running() scratch, reused across rounds

	// gen is bumped by transition and resize — the only writers of
	// tenant state and of a running tenant's lease — and by nothing
	// else; runViews is Ops.Running's snapshot, current while
	// runViewsGen == gen (both start at 0: no tenant runs, nil is right).
	gen, runViewsGen uint64
	runViews         []JobView
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
	events, err := fleetEvents(cfg.Scenario)
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
	for _, ev := range events {
		if ev.Kind == scenario.PreemptStorm || ev.Kind == scenario.PriorityArrive {
			if _, err := ParseClass(ev.Class); err != nil {
				return nil, fmt.Errorf("fleet: %s event: %w", ev.Kind, err)
			}
		}
		if (ev.Kind == scenario.ProducerFail || ev.Kind == scenario.ProducerJoin) && cfg.Preprocess == nil {
			return nil, fmt.Errorf("fleet: %s event needs Config.Preprocess (it acts on the shared producer fleet)", ev.Kind)
		}
	}
	// Defaults land on a private copy: callers may reuse one Jobs
	// slice across fleets (and cluster sizes) without this run's
	// defaults sticking.
	cfg.Jobs = append([]JobSpec(nil), cfg.Jobs...)
	classes := make([]Class, len(cfg.Jobs))
	for i := range cfg.Jobs {
		js := &cfg.Jobs[i]
		if js.MinNodes == 0 {
			js.MinNodes = 1
		}
		if js.MaxNodes == 0 {
			js.MaxNodes = cfg.Cluster.Nodes
		}
		switch {
		case js.Iters <= 0:
			return nil, fmt.Errorf("fleet: job %d needs at least one iteration", i)
		case js.Arrive < 0:
			return nil, fmt.Errorf("fleet: job %d arrival round %d negative", i, js.Arrive)
		case js.MinNodes < 1 || js.MinNodes > js.MaxNodes || js.MaxNodes > cfg.Cluster.Nodes:
			return nil, fmt.Errorf("fleet: job %d wants [%d,%d] nodes on a %d-node fleet",
				i, js.MinNodes, js.MaxNodes, cfg.Cluster.Nodes)
		case js.Train.Spec.Cluster != cfg.Cluster:
			return nil, fmt.Errorf("fleet: job %d's Train.Spec.Cluster differs from the shared fleet", i)
		}
		cls, err := ParseClass(string(js.Priority))
		if err != nil {
			return nil, fmt.Errorf("fleet: job %d: %w", i, err)
		}
		classes[i] = cls
		// A controller is stateful per run: two tenants observing into
		// one would mix their drift windows, and the Observe
		// interleaving would depend on worker scheduling — breaking the
		// determinism contract. Reject sharing across specs and any
		// spec a job-arrive event would instantiate a second time.
		if ctl := js.Train.Controller; ctl != nil {
			if reflect.TypeOf(ctl).Comparable() {
				for j := 0; j < i; j++ {
					if o := cfg.Jobs[j].Train.Controller; o != nil &&
						reflect.TypeOf(o).Comparable() && o == ctl {
						return nil, fmt.Errorf("fleet: jobs %d and %d share one Train.Controller; controllers are per-tenant state", j, i)
					}
				}
			}
			for _, ev := range events {
				if arrivalKind(ev.Kind) && ev.Job == i {
					return nil, fmt.Errorf("fleet: job %d carries a Train.Controller but a %s event re-instantiates it; give each instance its own controller", i, ev.Kind)
				}
			}
		}
	}
	cache := cfg.Cache
	if cfg.PlanCacheDir != "" {
		if cache != nil {
			return nil, errors.New("fleet: Cache and PlanCacheDir are mutually exclusive")
		}
		st, err := store.OpenDisk(cfg.PlanCacheDir)
		if err != nil {
			return nil, fmt.Errorf("fleet: plan cache dir: %w", err)
		}
		cache = orchestrator.NewPersistentPlanCache(orchestrator.SearchOptions{}, st)
	}
	if cache == nil {
		cache = orchestrator.NewPlanCache(orchestrator.SearchOptions{})
	}
	f := &runner{
		cfg: cfg, sched: sched, shaped: shaped, classes: classes,
		ctx:   context.Background(),
		table: newLeaseTable(cfg.Cluster.Nodes),
		cache: cache, events: events,
	}
	if cfg.Trace {
		f.fleetTrace = metrics.NewTrace()
		f.fleetTrace.NameProcess(0, "scheduler")
	}
	if err := f.startPreprocess(); err != nil {
		return nil, err
	}
	defer f.stopPreprocess()
	baseSearches, baseHits := cache.Searches(), cache.Hits()
	baseWarmHits, baseWarmSeeds, basePruned := cache.WarmHits(), cache.WarmSeeds(), cache.Pruned()

	lastRound := 0
	for _, js := range cfg.Jobs {
		if js.Arrive > lastRound {
			lastRound = js.Arrive
		}
	}
	for _, ev := range events {
		if ev.Start > lastRound {
			lastRound = ev.Start
		}
	}

	for f.round = 0; ; f.round++ {
		f.admitted, f.retired = 0, 0
		// Queue aging: tenants still queued from earlier rounds have
		// waited one more full round (this round's arrivals start at 0).
		// Waited is an Order key (aging promotion), so aging dirties the
		// queue order.
		for _, t := range f.queue {
			t.waited++
			f.queueDirty = true
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
		if f.round >= lastRound && f.runningCount() == 0 {
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
		PlanWarmHits:  cache.WarmHits() - baseWarmHits,
		PlanWarmSeeds: cache.WarmSeeds() - baseWarmSeeds,
		PlanPruned:    cache.Pruned() - basePruned,
	}
	for _, t := range f.tenants {
		res.Jobs = append(res.Jobs, JobResult{
			Name: t.name, Spec: t.spec, ID: t.id,
			Arrived: t.arrived, Started: t.started, Finished: t.finished,
			Departed: t.departed, Resizes: t.resizes,
			Priority: t.class, Preemptions: t.preempts,
			Lease: t.lease, Strategy: t.strategy, Plan: t.plan,
			Result: t.result, Trace: t.trace, Pool: t.poolSnap, Err: t.err,
		})
	}
	if f.poolStats != nil {
		snap := f.poolStats.Snapshot()
		res.Preprocess = &snap
	}
	if cfg.Trace {
		merged := metrics.NewTrace()
		base := 0
		for _, t := range f.tenants {
			if t.trace == nil {
				continue
			}
			merged.AppendOffset(t.trace, base, t.name+"/")
			base += t.trace.MaxPID() + 1
		}
		merged.AppendOffset(f.fleetTrace, base, "fleet/")
		res.Trace = merged
	}
	return res, nil
}

// fleetEvents extracts and validates the fleet-scope event schedule.
func fleetEvents(s scenario.Scenario) ([]scenario.Event, error) {
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
			continue
		}
		if !e.Kind.FleetScope() {
			return nil, fmt.Errorf("fleet: %s is not a fleet-scope event; put per-job perturbations in the job's Train.Scenario", e.Kind)
		}
	}
	return evs, nil
}

// noteArg is one key of a note's payload, by value: the Args map the
// trace wants is built only when a trace is attached, so an untraced
// fleet does not pay for the events it drops.
type noteArg struct {
	key   string
	str   string
	num   int
	isStr bool
}

func noteInt(key string, v int) noteArg    { return noteArg{key: key, num: v} }
func noteStr(key string, v string) noteArg { return noteArg{key: key, str: v, isStr: true} }

// note emits a scheduler-lane trace instant at the current round.
func (f *runner) note(name string, args ...noteArg) {
	if f.fleetTrace == nil {
		return
	}
	m := make(map[string]any, len(args))
	for _, a := range args {
		if a.isStr {
			m[a.key] = a.str
		} else {
			m[a.key] = a.num
		}
	}
	f.fleetTrace.Instant(name, "fleet", float64(f.round), m)
}

// arrivalKind reports whether a fleet-scope event kind instantiates
// new tenants from a job spec.
func arrivalKind(k scenario.Kind) bool {
	return k == scenario.JobArrive || k == scenario.PriorityArrive || k == scenario.PreemptStorm || k == scenario.Herd
}

// newTenant submits one instance of job spec si to the queue, at the
// given priority class.
func (f *runner) newTenant(si int, class Class) {
	js := f.cfg.Jobs[si]
	name := js.Name
	if name == "" {
		name = "job"
	}
	t := &tenant{
		id: len(f.tenants), spec: si,
		name:  fmt.Sprintf("%s-%d", name, len(f.tenants)),
		cfg:   js.Train,
		iters: js.Iters,
		min:   js.MinNodes, max: js.MaxNodes,
		class:   f.classes[si],
		arrived: f.round, started: -1, finished: -1,
		state: stateQueued,
	}
	if class != "" {
		t.class = class
	}
	f.tenants = append(f.tenants, t)
	f.queue = append(f.queue, t)
	f.queueDirty = true
	f.note("job-arrive", noteInt("job", t.id), noteStr("name", t.name), noteStr("class", t.class.String()))
}

// enqueueArrivals submits this round's arrivals: Config.Jobs entries
// first (in index order), then scenario arrival events — job-arrive,
// priority-arrive, preempt-storm, herd — in schedule order.
func (f *runner) enqueueArrivals() {
	for i, js := range f.cfg.Jobs {
		if js.Arrive == f.round {
			f.newTenant(i, "")
		}
	}
	for _, ev := range f.events {
		if !arrivalKind(ev.Kind) || ev.Start != f.round {
			continue
		}
		if ev.Job < 0 || ev.Job >= len(f.cfg.Jobs) {
			f.note("job-arrive-ignored", noteInt("job", ev.Job), noteStr("reason", "no such job spec"))
			continue
		}
		switch ev.Kind {
		case scenario.JobArrive:
			f.newTenant(ev.Job, "")
		case scenario.PriorityArrive:
			// Class validated at Run; "" inherits the spec's class.
			f.newTenant(ev.Job, Class(ev.Class))
		case scenario.PreemptStorm:
			for k := 0; k < ev.Count; k++ {
				f.newTenant(ev.Job, Class(ev.Class))
			}
		case scenario.Herd:
			// K near-identical tenants, same round, same plan
			// fingerprint: one search, K-1 cache hits.
			for k := 0; k < ev.Count; k++ {
				f.newTenant(ev.Job, "")
			}
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
				f.note("node-join-ignored", noteInt("node", ev.Node), noteStr("reason", err.Error()))
				continue
			}
			f.note("node-join", noteInt("node", ev.Node))
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
		f.note("node-fail-ignored", noteInt("node", node), noteStr("reason", err.Error()))
		return
	}
	f.note("node-fail", noteInt("node", node), noteInt("owner", owner))
	if owner < 0 {
		return
	}
	// Only a running tenant holds nodes. It shrinks onto the survivors
	// when they can still run the job.
	t := f.tenants[owner]
	if shrunk := t.lease.Without(node); shrunk.NodeCount() >= t.min {
		reason := fmt.Sprintf("node %d failed: lease shrinks to %d nodes", node, shrunk.NodeCount())
		if f.resize(t, shrunk, nil, reason) == nil {
			f.note("lease-shrink", noteInt("job", t.id), noteInt("nodes", shrunk.NodeCount()))
			return
		}
	}
	// The survivor set cannot run the job: suspend it. Progress (DFS
	// checkpoints, optimizer state) stays with the runtime; the tenant
	// rejoins the queue ahead of never-started jobs and resumes when
	// capacity returns.
	f.suspend(t, "node failed")
	f.requeueFront(t)
	f.note("job-suspend", noteInt("job", t.id))
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
			stateNames[t.state], stateNames[to], t.name, f.round, reason))
	}
	if to == stateQueued || to == stateDone {
		f.table.Release(t.id)
		t.lease = cluster.Lease{}
	}
	t.state = to
	t.waited = 0
	f.gen++
}

// suspend takes a running tenant back to queued. A suspended tenant
// holds no nodes, so it earns no admission quota either; resumption
// re-grants it with the new lease.
func (f *runner) suspend(t *tenant, reason string) {
	f.transition(t, stateQueued, reason)
	f.resizeQuota(t, 0)
}

// resize is the one costed lease change of a tenant that has run: the
// plan for the new lease (asked of the shared cache when the caller
// holds none), the trainer's checkpoint-reconfigure, then the tenant's
// lease, plan, resize count and the admission quota the lease size
// earns. An error leaves the tenant on its old lease and plan. Lease
// table accounting stays with the caller.
func (f *runner) resize(t *tenant, lease cluster.Lease, plan *orchestrator.Plan, reason string) error {
	if plan == nil {
		var err error
		if plan, err = f.cache.Plan(f.ctx, f.leaseSpec(t, lease)); err != nil {
			return err
		}
	}
	if err := t.job.Resize(lease, plan, reason); err != nil {
		return err
	}
	t.lease, t.plan = lease, plan
	t.resizes++
	f.gen++
	f.resizeQuota(t, lease.NodeCount())
	return nil
}

// requeueFront inserts a suspended tenant before every never-started
// entry, keeping suspended tenants among themselves in id order.
func (f *runner) requeueFront(t *tenant) {
	at := 0
	for at < len(f.queue) && f.queue[at].started >= 0 && f.queue[at].id < t.id {
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
		f.note("job-depart-ignored", noteInt("job", id))
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
	f.note("job-depart", noteInt("job", id))
}

// retire finalises a tenant and frees its lease. The result and trace
// are all that outlive it: the runtime and Job are dropped, so a long
// fleet does not keep (and the GC does not re-mark) every runtime it
// ever ran.
func (f *runner) retire(t *tenant, departed bool) {
	if t.job != nil && t.result == nil {
		t.result = t.job.Finish()
	}
	if t.rt != nil {
		t.rt.Close() // stops the checkpoint writer trainer.New started
	}
	t.rt, t.job = nil, nil
	// Finish drained the prefetch, so the tenant's pool counters are
	// quiescent — snapshot them now, exactly once.
	f.snapshotPool(t)
	f.transition(t, stateDone, "retire")
	t.finished = f.round
	t.departed = departed
	f.retired++
}

// fail retires a tenant on an admission or runtime error, with the
// scheduler-lane note naming what kind of failure it was.
func (f *runner) fail(t *tenant, kind string, err error) {
	t.err = err
	f.retire(t, false)
	f.note(kind, noteInt("job", t.id), noteStr("reason", err.Error()))
}

// leaseSpec scopes the tenant's training spec to a lease — the exact
// spec the plan cache keys on for that lease and, by the same
// Spec.ForLease, the one the tenant's runtime prices. Placement-scoring
// schedulers price the lease's concrete shape: a fragmented lease
// loses rail alignment, and its plan is cached under that shape.
func (f *runner) leaseSpec(t *tenant, l cluster.Lease) orchestrator.Spec {
	return t.cfg.Spec.ForLease(f.cfg.Cluster, l, f.shaped)
}

// sortQueue orders the admission queue by the scheduler's Order
// (stable, so always-false comparators keep strict submission order).
// No-op while queueDirty is clear: removals keep a sorted queue
// sorted, so only key mutations (arrivals, requeues, preemptions,
// aging) force a re-sort. Views are built on read and alias the lease,
// so the comparator does not allocate.
func (f *runner) sortQueue() {
	if !f.queueDirty {
		return
	}
	f.queueDirty = false
	if len(f.queue) < 2 {
		return
	}
	sort.SliceStable(f.queue, func(i, j int) bool {
		return f.sched.Order(f.view(f.queue[i]), f.view(f.queue[j]))
	})
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
		nodes := f.sched.PlaceNodes(ops, v, grant)
		lease := cluster.NewLease(nodes...)
		// Two ways the head can never run, one exit. An invalid placement
		// is a bug in the scheduler, not the tenant: failing the tenant
		// loudly beats corrupting the lease table. A lease unplannable at
		// its granted size (model too big for MinNodes, degenerate batch
		// geometry) stays unplannable. Either way the queue keeps moving.
		err := f.checkPlacement(lease, grant)
		if err != nil {
			err = fmt.Errorf("fleet: scheduler %s: %w", f.sched.Name(), err)
		} else {
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

// checkPlacement validates a scheduler's PlaceNodes result: exactly
// grant distinct nodes, all currently free.
func (f *runner) checkPlacement(l cluster.Lease, grant int) error {
	if l.NodeCount() != grant {
		return fmt.Errorf("placed %d nodes, granted %d", l.NodeCount(), grant)
	}
	prev := -1
	for _, n := range l.Nodes {
		if n == prev {
			return fmt.Errorf("node %d placed twice", n)
		}
		prev = n
		if f.table.ownerOf(n) != nodeFree {
			return fmt.Errorf("placed node %d is not free", n)
		}
	}
	return nil
}

// reserve is admission, one synchronous step: plan the granted lease
// through the shared cache, take the lease out of the free pool, and
// start the tenant on it — a fresh tenant builds its runtime and Job, a
// suspended one resumes through a costed lease resize. All instances of
// a template share the template's spec (same profiler pointer, same
// model and batch geometry), so equal lease sizes fingerprint
// identically: K identical tenants pay for one §4.3 search and K-1
// hits. Errors leave whatever the tenant holds to the caller's retire
// path.
func (f *runner) reserve(t *tenant, lease cluster.Lease) error {
	plan, err := f.cache.Plan(f.ctx, f.leaseSpec(t, lease))
	if err != nil {
		return err
	}
	if err := f.table.Acquire(t.id, lease.Nodes); err != nil {
		return err
	}
	if t.rt == nil {
		tcfg := t.cfg
		l := lease
		tcfg.Lease = &l
		tcfg.Plan = plan
		// Shaped schedulers price the run against the lease's concrete
		// placement — the same cluster view leaseSpec planned it on.
		tcfg.PlacementPricing = f.shaped
		// Tracing is fleet-owned: a template Trace shared by K tenants
		// would interleave their lanes nondeterministically, so it is
		// replaced by a private per-job trace (Config.Trace on) or
		// dropped (off).
		tcfg.Trace = nil
		if f.cfg.Trace {
			t.trace = metrics.NewTrace()
			tcfg.Trace = t.trace
		}
		// With a shared preprocessing tier, the tenant registers on the
		// service and sources its batches through its handle.
		if err := f.registerTenant(t, &tcfg, lease.NodeCount()); err != nil {
			return err
		}
		rt, err := trainer.New(tcfg)
		if err != nil {
			return err
		}
		job, err := rt.NewJob(t.iters)
		if err != nil {
			return err
		}
		t.rt, t.job = rt, job
		t.strategy = plan.Strategy
		t.lease, t.plan = lease, plan
	} else if err := f.resize(t, lease, plan, fmt.Sprintf("resumed on %d nodes", lease.NodeCount())); err != nil {
		return err
	}
	if t.started < 0 {
		t.started = f.round
	}
	f.transition(t, stateRunning, "placed")
	f.note("job-start", noteInt("job", t.id), noteInt("nodes", lease.NodeCount()), noteStr("strategy", plan.Strategy))
	return nil
}

// running returns the running tenants in submission order. The
// returned slice aliases a runner-owned scratch buffer valid until the
// next call — callers never hold it across another running() call.
func (f *runner) running() []*tenant {
	out := f.runBuf[:0]
	for _, t := range f.tenants {
		if t.state == stateRunning {
			out = append(out, t)
		}
	}
	f.runBuf = out
	return out
}

func (f *runner) runningCount() int { return len(f.running()) }

// stepRunning advances every running tenant by one training iteration
// (or one recovery rewind), fanned out over the bounded worker pool.
// Each tenant's Step touches only its own state, and outcomes land in
// per-tenant slots, so the fan-out is deterministic at any pool size.
func (f *runner) stepRunning() {
	run := f.running()
	if len(run) == 0 {
		return
	}
	workers := f.cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	fanout.Run(f.ctx, workers, len(run), func(i int) {
		run[i].stepErr = run[i].job.Step()
	})
	for _, t := range run {
		if t.stepErr != nil {
			f.fail(t, "job-failed", t.stepErr)
		}
	}
}

// completeFinished finalises tenants whose run is done and frees their
// leases for next round's admissions and growth.
func (f *runner) completeFinished() {
	for _, t := range f.tenants {
		if t.state == stateRunning && t.job.Done() {
			f.retire(t, false)
			f.note("job-done", noteInt("job", t.id))
		}
	}
}

// starveQueue finalises queued tenants that can never be placed: no
// running tenant will free capacity and no future event can add any.
func (f *runner) starveQueue() {
	for _, t := range f.queue {
		t.err = fmt.Errorf("fleet: %s starved: %d free of %d nodes, needs %d",
			t.name, f.table.FreeCount(), f.table.Nodes(), t.min)
		f.retire(t, false)
		f.note("job-starved", noteInt("job", t.id))
	}
	f.queue = nil
}

// roundInfo snapshots the lease table for observers.
func (f *runner) roundInfo() RoundInfo {
	info := RoundInfo{
		Round:  f.round,
		Free:   f.table.Free(),
		Failed: f.table.Failed(),
		Leases: map[int][]int{},
	}
	for _, t := range f.tenants {
		if nodes := f.table.LeasedBy(t.id); len(nodes) > 0 {
			info.Leases[t.id] = nodes
		}
	}
	return info
}
