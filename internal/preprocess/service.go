package preprocess

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"disttrain/internal/metrics"
	"disttrain/internal/window"
)

// Service is the consumer side of disaggregated preprocessing (§5): one
// elastic producer fleet serving every tenant's (tenant, iteration,
// rank) fetches. A single trainer is a service with one tenant; a fleet
// registers one tenant per job, and the service makes the sharing safe
// and fair:
//
//   - Per-tenant admission quotas: each tenant holds at most its quota
//     of in-flight fetches; a tenant saturating its quota is rejected
//     with errPoolSaturated after admitTimeout while every other tenant
//     keeps fetching — one tenant cannot starve the tier, and callers
//     see backpressure instead of an unbounded readahead fan-out.
//   - Deterministic weighted fair queueing over the shared capacity:
//     when more fetches want producers than Capacity allows, grants go
//     to the eligible tenant with the smallest virtual finish tag
//     (cumulative grants / weight, ties by registration order), so a
//     weight-2 tenant gets twice the grant rate of a weight-1 tenant —
//     weights come from fleet priority classes.
//   - Partitioned caches: every tenant owns a private window of its
//     recent rank batches, bounded by generations of its own fetches,
//     so one tenant's churn can never evict another tenant's batches.
//
// Every fetch has a deterministic primary member — a pure function of
// (iteration, DP width) — so the fleet builds each iteration once and
// two services over the same fleet make identical choices. When a
// producer dies the fetch fails over to the next healthy member, the
// dead member sits out a cooldown, and batch contents never change
// across members: producers are deterministic functions of the
// request, which is exactly what makes preprocessing elastically
// scalable.
type Service struct {
	cfg     ServiceConfig
	members []*poolMember
	stats   *metrics.PoolStats // aggregate; tenants record into labeled children
	// admitTimeout and cooldown start at the constants of the same
	// names; tests shorten them.
	admitTimeout, cooldown time.Duration

	mu      sync.Mutex
	tenants []*Tenant
	shared  int // in-flight fetches across all tenants
	waiters []*svcWaiter
	closed  bool
}

// ServiceConfig parameterises a shared preprocessing service: its
// producers, slot budget and counters. Its timeouts and per-tenant
// cache bound are the constants admitTimeout, cooldown, dialTimeout,
// fetchTimeout and tenantGeneration.
type ServiceConfig struct {
	// Addrs lists the producer servers. Assignment and failover order
	// are deterministic in this order.
	Addrs []string
	// Capacity bounds in-flight fetches across all tenants — the
	// producer-side concurrency the weighted fair queue arbitrates
	// (default 2*len(Addrs)).
	Capacity int
	// Stats, when non-nil, receives the aggregate counters; per-tenant
	// counters land in labeled children (metrics.PoolStats.Labeled).
	// Nil builds a private aggregate, still readable via Snapshot.
	Stats *metrics.PoolStats
}

// TenantConfig registers one tenant with the service.
type TenantConfig struct {
	// Name labels the tenant in metrics; must be unique and non-empty.
	Name string
	// Weight is the tenant's fair-queueing weight (default 1). The
	// fleet derives it from the job's priority class.
	Weight int
	// MaxInflight is the tenant's admission quota (default the
	// service Capacity — an uncontended tenant may use the whole tier).
	MaxInflight int
	// DP is the tenant's initial data-parallel width; the front-end
	// may change it later via SetDP (elastic resize).
	DP int
}

// svcWaiter is one fetch waiting for admission.
type svcWaiter struct {
	t       *Tenant
	ch      chan struct{}
	granted bool
}

// The service's calibrated bounds.
const (
	// admitTimeout is how long a fetch waits for admission (quota and
	// shared capacity) before being rejected with errPoolSaturated.
	admitTimeout = 5 * time.Second
	// cooldown is how long a failed producer sits out before it is
	// retried.
	cooldown = 2 * time.Second
	// dialTimeout bounds one connection attempt, so a dead producer
	// fails over in milliseconds instead of hanging a fetch;
	// fetchTimeout bounds one request round trip.
	dialTimeout  = 2 * time.Second
	fetchTimeout = 60 * time.Second
	// tenantGeneration bounds one generation of a tenant's cached rank
	// batches, each weighing 1, so a tenant holds between 16 and 32. The
	// re-reads it serves are a failure rewind's re-fetch of the
	// iterations since the last checkpoint, every rank of each: 16 rank
	// batches are the last 8 iterations of a DP-2 tenant and the last 2
	// of a DP-8 one.
	tenantGeneration = 16
)

// errPoolSaturated reports a fetch rejected by bounded admission.
var errPoolSaturated = errors.New("preprocess: pool saturated, fetch rejected")

var (
	errServiceClosed = errors.New("preprocess: service closed")
	errTenantClosed  = errors.New("preprocess: tenant closed")
)

// NewService builds a shared service over the given producer
// addresses. Connections are dialed lazily on first use.
func NewService(cfg ServiceConfig) (*Service, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("preprocess: service needs at least one producer address")
	}
	if cfg.Capacity <= 0 {
		cfg.Capacity = 2 * len(cfg.Addrs)
	}
	stats := cfg.Stats
	if stats == nil {
		stats = &metrics.PoolStats{}
	}
	s := &Service{cfg: cfg, stats: stats, admitTimeout: admitTimeout, cooldown: cooldown}
	for _, addr := range cfg.Addrs {
		s.members = append(s.members, &poolMember{addr: addr})
	}
	return s, nil
}

// Snapshot returns the aggregate counters across all tenants.
func (s *Service) Snapshot() metrics.PoolSnapshot { return s.stats.Snapshot() }

// Register adds a tenant and returns its fetch handle. Tenant ids are
// assigned in registration order; a producer keys its readahead routes
// by the id, and WFQ breaks grant ties by it.
func (s *Service) Register(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, errors.New("preprocess: tenant needs a name")
	}
	if cfg.Weight <= 0 {
		cfg.Weight = 1
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = s.cfg.Capacity
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errServiceClosed
	}
	for _, t := range s.tenants {
		if t.name == cfg.Name {
			return nil, fmt.Errorf("preprocess: tenant %q already registered", cfg.Name)
		}
	}
	cache := window.New[tenantKey, *RankBatch](tenantGeneration)
	t := &Tenant{
		svc: s, id: len(s.tenants), name: cfg.Name,
		weight: cfg.Weight, quota: cfg.MaxInflight,
		cache: &cache,
		stats: s.stats.Labeled(cfg.Name),
	}
	t.dp.Store(int64(cfg.DP))
	s.tenants = append(s.tenants, t)
	return t, nil
}

// Close tears down every member connection and fails all waiting
// admissions. In-flight fetches may finish with errors.
func (s *Service) Close() {
	s.mu.Lock()
	s.closed = true
	waiters := s.waiters
	s.waiters = nil
	s.mu.Unlock()
	for _, w := range waiters {
		close(w.ch) // granted stays false: acquire reports the close
	}
	for _, m := range s.members {
		m.close()
	}
}

// acquire admits one fetch for tenant t: the tenant must be under its
// quota and the tier under its shared capacity. Contended admissions
// queue and are granted in weighted-fair order; after admitTimeout the
// fetch is rejected with errPoolSaturated.
func (s *Service) acquire(ctx context.Context, t *Tenant) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return errServiceClosed
	}
	if t.closed {
		s.mu.Unlock()
		return errTenantClosed
	}
	// Uncontended fast path — only when nobody is queued, so a waiter
	// can never be overtaken by a later arrival.
	if len(s.waiters) == 0 && t.inflight < t.quota && s.shared < s.cfg.Capacity {
		t.inflight++
		t.granted++
		s.shared++
		s.mu.Unlock()
		return nil
	}
	w := &svcWaiter{t: t, ch: make(chan struct{})}
	s.waiters = append(s.waiters, w)
	s.grantLocked()
	s.mu.Unlock()

	timer := time.NewTimer(s.admitTimeout)
	defer timer.Stop()
	select {
	case <-w.ch:
		if !w.granted {
			return errServiceClosed
		}
		return nil
	case <-ctx.Done():
		if s.abandon(w) {
			return ctx.Err()
		}
		// Lost the race: the grant landed first, so the slot is ours.
		return nil
	case <-timer.C:
		if s.abandon(w) {
			t.stats.RecordRejection()
			return errPoolSaturated
		}
		return nil
	}
}

// abandon removes a timed-out or cancelled waiter. It reports false
// when the waiter was already granted (or the service closed) — the
// caller owns the outcome it was handed instead.
func (s *Service) abandon(w *svcWaiter) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.waiters {
		if q == w {
			s.waiters = append(s.waiters[:i], s.waiters[i+1:]...)
			return true
		}
	}
	return !w.granted
}

// release returns one admission slot and hands it to the next waiter
// in weighted-fair order.
func (s *Service) release(t *Tenant) {
	s.mu.Lock()
	t.inflight--
	s.shared--
	s.grantLocked()
	s.mu.Unlock()
}

// grantLocked hands free capacity to waiters: among tenants with an
// eligible waiter (under quota, FIFO within each tenant), the one with
// the smallest virtual finish tag — (grants+1)/weight, ties broken by
// tenant id — goes first. This is deterministic start-time fair
// queueing: for a fixed arrival order the grant order is a pure
// function of weights, so a weight-2 tenant drains twice as fast as a
// weight-1 tenant under contention. Callers hold s.mu.
func (s *Service) grantLocked() {
	for s.shared < s.cfg.Capacity && len(s.waiters) > 0 {
		best := -1
		var bestTag float64
		seen := make(map[*Tenant]bool, len(s.waiters))
		for i, w := range s.waiters {
			t := w.t
			if seen[t] {
				continue // FIFO within a tenant: only its first waiter competes
			}
			seen[t] = true
			if t.inflight >= t.quota {
				continue
			}
			tag := float64(t.granted+1) / float64(t.weight)
			if best < 0 || tag < bestTag || (tag == bestTag && t.id < s.waiters[best].t.id) {
				best, bestTag = i, tag
			}
		}
		if best < 0 {
			return // capacity free but every waiting tenant is at quota
		}
		w := s.waiters[best]
		s.waiters = append(s.waiters[:best], s.waiters[best+1:]...)
		w.t.inflight++
		w.t.granted++
		s.shared++
		w.granted = true
		close(w.ch)
	}
}

// fetchWithFailover walks the failover ring starting at the fetch's
// deterministic primary. Every rank and tenant at one (iteration, DP
// width) shares one build, so they all ask one member, whose readahead
// follows the iterations it is asked for; consecutive iterations rotate
// over the members, each width offset by 7919. Members inside their
// failure cooldown are skipped (each skip is a failover) unless every
// member is down, in which case all are retried — the path through
// which a recovered fleet comes back without external coordination.
func (s *Service) fetchWithFailover(ctx context.Context, t *Tenant, dp int, iter int64, rank int) (*RankBatch, error) {
	n := len(s.members)
	prim := int((uint64(iter) + uint64(dp)*7919) % uint64(n))
	now := time.Now()
	allDown := true
	for _, m := range s.members {
		if m.available(now) {
			allDown = false
			break
		}
	}
	var lastErr error
	for k := 0; k < n; k++ {
		m := s.members[(prim+k)%n]
		if !allDown && !m.available(now) {
			t.stats.RecordFailover()
			continue
		}
		rb, err := m.fetchTenant(ctx, uint32(t.id), dp, iter, rank)
		if err == nil {
			return rb, nil
		}
		var se *serverError
		if errors.As(err, &se) {
			// A protocol-level rejection is deterministic: every
			// producer would answer the same, so failing over only
			// multiplies the error.
			return nil, err
		}
		lastErr = err
		m.markDown(now.Add(s.cooldown))
		t.stats.RecordFailover()
	}
	return nil, fmt.Errorf("preprocess: all %d producers failed for tenant %s iter %d rank %d: %w",
		n, t.name, iter, rank, lastErr)
}

// tenantKey identifies one cached batch: tenants at different DP
// widths receive different splits of the same iteration, so the width
// is part of the key (a resize must never serve a stale-geometry
// batch).
type tenantKey struct {
	iter int64
	rank int
	dp   int
}

// Tenant is one tenant's fetch handle on a Service — what the trainer's
// PoolSource fetches through.
type Tenant struct {
	svc    *Service
	id     int
	name   string
	weight int
	dp     atomic.Int64

	// quota, inflight, granted and closed are guarded by svc.mu (they
	// are the fair queue's state).
	quota    int
	inflight int
	granted  int64
	closed   bool

	// The tenant-private cache partition, guarded by the tenant's own
	// lock and nil once closed: only the tenant's own fetches rotate it,
	// so another tenant's churn never evicts its batches.
	cmu   sync.Mutex
	cache *window.Window[tenantKey, *RankBatch]
	stats *metrics.PoolStats
}

// MaxInflight returns the tenant's admission quota; callers fanning
// out concurrent fetches should not exceed it or they will see
// errPoolSaturated under load.
func (t *Tenant) MaxInflight() int {
	t.svc.mu.Lock()
	defer t.svc.mu.Unlock()
	return t.quota
}

// SetQuota resizes the tenant's admission quota (floor 0 = fully
// blocked) and re-runs the grant loop — the fleet resizes quotas
// alongside lease resizes.
func (t *Tenant) SetQuota(n int) {
	if n < 0 {
		n = 0
	}
	t.svc.mu.Lock()
	t.quota = n
	t.svc.grantLocked()
	t.svc.mu.Unlock()
}

// SetDP announces the tenant's current data-parallel width: the
// front-end calls it before fanning out, so elastic lease resizes
// reshape the producer-side split without re-registering. Batches of
// the old width stay cached until they rotate out.
func (t *Tenant) SetDP(dp int) {
	if dp >= 1 {
		t.dp.Store(int64(dp))
	}
}

// Snapshot returns the tenant's counters.
func (t *Tenant) Snapshot() metrics.PoolSnapshot { return t.stats.Snapshot() }

// Close retires the tenant: its cache partition is freed and later
// fetches fail fast (one already admitted finishes, uncached). The id
// slot stays taken, so the other tenants' ids — the producers' route
// keys and the WFQ tie order — are unchanged.
func (t *Tenant) Close() {
	t.svc.mu.Lock()
	t.closed = true
	t.svc.mu.Unlock()
	t.cmu.Lock()
	t.cache = nil
	t.cmu.Unlock()
}

// Fetch returns one (iteration, rank) batch for this tenant at its
// announced DP width, serving from the tenant's cache partition when
// possible and failing over across the shared producers otherwise.
func (t *Tenant) Fetch(ctx context.Context, iter int64, rank int) (*RankBatch, error) {
	dp := int(t.dp.Load())
	if dp < 1 {
		dp = 1
	}
	if err := t.svc.acquire(ctx, t); err != nil {
		return nil, err
	}
	defer t.svc.release(t)

	key := tenantKey{iter, rank, dp}
	var rb *RankBatch
	t.cmu.Lock()
	if t.cache != nil { // nil once closed
		rb, _ = t.cache.Get(key)
	}
	t.cmu.Unlock()
	if rb != nil {
		t.stats.RecordCacheHit()
		t.stats.RecordFetch(0)
		return rb, nil
	}
	t.stats.RecordCacheMiss()

	start := time.Now()
	rb, err := t.svc.fetchWithFailover(ctx, t, dp, iter, rank)
	if err != nil {
		return nil, err
	}
	t.stats.RecordFetch(time.Since(start).Seconds())

	t.cmu.Lock()
	if t.cache != nil { // nil once closed
		t.cache.Put(key, rb, 1)
	}
	t.cmu.Unlock()
	return rb, nil
}
