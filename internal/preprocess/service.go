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
// registers one tenant per job. Every tenant owns a private cache
// partition, a window of its recent rank batches bounded by generations
// of its own fetches, so one tenant's churn can never evict another
// tenant's batches.
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
	members []*poolMember
	stats   *metrics.PoolStats // aggregate; tenants record into labeled children
	// cooldown starts at the constant of the same name; tests shorten
	// it.
	cooldown time.Duration

	closed atomic.Bool // set by Close: later fetches fail fast

	mu      sync.Mutex
	tenants []*Tenant
}

// ServiceConfig parameterises a shared preprocessing service: its
// producers. Its timeouts and per-tenant cache bound are the constants
// cooldown, dialTimeout, fetchTimeout and tenantGeneration.
type ServiceConfig struct {
	// Addrs lists the producer servers. Assignment and failover order
	// are deterministic in this order.
	Addrs []string
	// Capacity is inert (ignored), kept only for benchmark/ until a
	// later benchmark change deletes it.
	Capacity int
}

// TenantConfig registers one tenant with the service.
type TenantConfig struct {
	// Name labels the tenant in metrics; must be unique and non-empty.
	Name string
	// MaxInflight is inert (ignored), kept only for benchmark/ until a
	// later benchmark change deletes it.
	MaxInflight int
	// DP is the tenant's initial data-parallel width; the front-end
	// may change it later via SetDP (elastic resize).
	DP int
}

// The service's calibrated bounds.
const (
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
	s := &Service{stats: &metrics.PoolStats{}, cooldown: cooldown}
	for _, addr := range cfg.Addrs {
		s.members = append(s.members, &poolMember{addr: addr})
	}
	return s, nil
}

// Snapshot returns the aggregate counters across all tenants.
func (s *Service) Snapshot() metrics.PoolSnapshot { return s.stats.Snapshot() }

// Register adds a tenant and returns its fetch handle. Tenant ids are
// assigned in registration order; a producer keys its readahead routes
// by the id.
func (s *Service) Register(cfg TenantConfig) (*Tenant, error) {
	if cfg.Name == "" {
		return nil, errors.New("preprocess: tenant needs a name")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
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
		cache: &cache,
		stats: s.stats.Labeled(cfg.Name),
	}
	t.dp.Store(int64(cfg.DP))
	s.tenants = append(s.tenants, t)
	return t, nil
}

// Close tears down every member connection; later fetches fail fast.
// In-flight fetches may finish with errors.
func (s *Service) Close() {
	s.closed.Store(true)
	for _, m := range s.members {
		m.close()
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
	svc  *Service
	id   int
	name string
	dp   atomic.Int64

	// The tenant-private cache partition, guarded by the tenant's own
	// lock and nil once closed: only the tenant's own fetches rotate it,
	// so another tenant's churn never evicts its batches.
	cmu   sync.Mutex
	cache *window.Window[tenantKey, *RankBatch]
	stats *metrics.PoolStats
}

// SetDP announces the tenant's current data-parallel width: the
// front-end calls it before its rank fetches, so elastic lease resizes
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
// fetches fail fast (one already in flight finishes, uncached). The id
// slot stays taken, so the other tenants' ids — the producers' route
// keys — are unchanged.
func (t *Tenant) Close() {
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
	if t.svc.closed.Load() {
		return nil, errServiceClosed
	}

	key := tenantKey{iter, rank, dp}
	t.cmu.Lock()
	if t.cache == nil { // nil once closed
		t.cmu.Unlock()
		return nil, errTenantClosed
	}
	rb, _ := t.cache.Get(key)
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
