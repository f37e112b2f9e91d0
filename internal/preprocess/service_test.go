package preprocess

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"disttrain/internal/data"
)

// testService builds a service over the fleet whose failed producers
// sit out 50ms instead of the production cooldown.
func testService(t *testing.T, fleet *Fleet, cfg ServiceConfig) *Service {
	t.Helper()
	cfg.Addrs = fleet.Addrs()
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	svc.cooldown = 50 * time.Millisecond
	t.Cleanup(svc.Close)
	return svc
}

func fleetConfig() Config {
	return Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 8, DPSize: 2, Microbatch: 1, Workers: 4,
	}
}

// slowSource delays every sample, making builds take visible time.
type slowSource struct {
	inner fixedSource
	delay time.Duration
}

func (s slowSource) Sample(index int64) data.Sample {
	time.Sleep(s.delay)
	return s.inner.Sample(index)
}

// oneTenant registers the single tenant of a one-trainer service at the
// fleetConfig DP width.
func oneTenant(t *testing.T, svc *Service) *Tenant {
	t.Helper()
	tn, err := svc.Register(TenantConfig{Name: "only", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	return tn
}

// A service fetch must return exactly what the in-process producer
// computes for the same request: producers are stateless deterministic
// functions of (iteration, dp, rank), so neither the route (which of
// the three members, over TCP) nor the tenant id (which keys the
// producers' readahead routes) can change the data.
func TestServiceMatchesInProcessServer(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	zero := oneTenant(t, svc)
	one, err := svc.Register(TenantConfig{Name: "second", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := NewServer(fleetConfig())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ref.Close)

	ctx := context.Background()
	for iter := int64(0); iter < 4; iter++ {
		for rank := 0; rank < 2; rank++ {
			want, err := ref.FetchTenant(0, 2, iter, rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, tn := range []*Tenant{zero, one} {
				got, err := tn.Fetch(ctx, iter, rank)
				if err != nil {
					t.Fatal(err)
				}
				if len(got.Microbatches) != len(want.Microbatches) {
					t.Fatalf("tenant %s iter %d rank %d: %d microbatches, want %d",
						tn.name, iter, rank, len(got.Microbatches), len(want.Microbatches))
				}
				for j := range got.Microbatches {
					for k := range got.Microbatches[j] {
						g, w := got.Microbatches[j][k], want.Microbatches[j][k]
						if g.SampleIndex != w.SampleIndex || !bytes.Equal(g.TokenPayload, w.TokenPayload) {
							t.Fatalf("tenant %s iter %d rank %d mb %d sample %d differs from the in-process server",
								tn.name, iter, rank, j, k)
						}
					}
				}
			}
		}
	}
}

// Killing a producer mid-stream must not fail a single fetch: the
// service fails over to survivors, records the failovers, and picks the
// dead member back up after it rejoins and its cooldown expires.
func TestServiceFailoverAndRecovery(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	tn := oneTenant(t, svc)

	ctx := context.Background()
	fetchAll := func(lo, hi int64) {
		t.Helper()
		for iter := lo; iter < hi; iter++ {
			for rank := 0; rank < 2; rank++ {
				if _, err := tn.Fetch(ctx, iter, rank); err != nil {
					t.Fatalf("iter %d rank %d: %v", iter, rank, err)
				}
			}
		}
	}
	fetchAll(0, 2)
	if got := svc.Snapshot().Failovers; got != 0 {
		t.Fatalf("healthy fleet recorded %d failovers", got)
	}

	if err := fleet.FailProducer(1); err != nil {
		t.Fatal(err)
	}
	fetchAll(2, 6) // primaries rotate over all members, so some land on 1
	snap := svc.Snapshot()
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded with a dead producer")
	}

	if err := fleet.JoinProducer(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // past the failure cooldown
	fetchAll(6, 10)
	after := svc.Snapshot()
	if after.Fetches != 20 {
		t.Fatalf("fetches = %d, want 20", after.Fetches)
	}
	// The rejoined member serves again: over iters 6..9 x 2 ranks, at
	// least one primary lands on member 1, and those fetches must not
	// add failovers once it is back.
	if after.Failovers != snap.Failovers {
		t.Errorf("failovers kept climbing after rejoin: %d -> %d", snap.Failovers, after.Failovers)
	}
}

// Every fetch of one (iteration, DP width) goes to one producer, whose
// readahead prebuilds the iterations its route brings next, so the fleet
// builds each iteration once. Over 40 iterations of the fan-in shape (4
// tenants x DP 2) the fleet may add, per producer, one readahead off the
// route before its gaps are known and one past the last iteration. With
// producer 1 killed halfway the survivors absorb its iterations and
// their readahead follows the failed-over route, within the same bound:
// every member's builds count, the dead one's included.
func TestFleetBuildsEachIterationOnce(t *testing.T) {
	const tenants, dp, iters = 4, 2, 40
	for _, producers := range []int{2, 3} {
		for _, kill := range []bool{false, true} {
			t.Run(fmt.Sprintf("producers=%d/kill=%v", producers, kill), func(t *testing.T) {
				cfg := fleetConfig()
				cfg.Readahead = 1
				fleet, err := StartFleet(cfg, producers)
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(fleet.Close)
				servers := make([]*Server, producers)
				for i, p := range fleet.producers {
					servers[i] = p.srv
				}
				svc := testService(t, fleet, ServiceConfig{})
				var handles []*Tenant
				for i := 0; i < tenants; i++ {
					tn, err := svc.Register(TenantConfig{Name: fmt.Sprintf("t%d", i), DP: dp})
					if err != nil {
						t.Fatal(err)
					}
					handles = append(handles, tn)
				}
				ctx := context.Background()
				for iter := int64(0); iter < iters; iter++ {
					if kill && iter == iters/2 {
						if err := fleet.FailProducer(1); err != nil {
							t.Fatal(err)
						}
					}
					for _, tn := range handles {
						for rank := 0; rank < dp; rank++ {
							if _, err := tn.Fetch(ctx, iter, rank); err != nil {
								t.Fatalf("iter %d rank %d: %v", iter, rank, err)
							}
						}
					}
				}
				fleet.Close() // waits for every readahead build
				var builds int64
				for _, srv := range servers {
					builds += srv.builds.Load()
				}
				if limit := int64(iters + 2*producers); builds > limit {
					t.Errorf("%d producers built %d iterations for %d, want at most %d", producers, builds, iters, limit)
				}
			})
		}
	}
}

// Tenants at one DP width count iterations independently (every job
// starts at 0), so readahead follows each tenant's own route: a tenant
// far behind another, and one registered at iteration 0 halfway through
// on the long-lived fleet, each find their next iteration prebuilt on
// the member that serves it once their route there is known (two
// fetches per member). Each tenant's iterations are still built once,
// plus, per tenant and member, one readahead off the route and one past
// its end.
func TestReadaheadFollowsEachTenant(t *testing.T) {
	const dp, steps = 2, 24
	for _, producers := range []int{1, 2} {
		t.Run(fmt.Sprintf("producers=%d", producers), func(t *testing.T) {
			cfg := fleetConfig()
			cfg.Readahead = 1
			fleet := &Fleet{}
			t.Cleanup(fleet.Close)
			servers := make([]*Server, producers)
			sources := make([]*startedSource, producers)
			for i := range servers {
				sources[i] = &startedSource{Source: cfg.Source, batch: int64(cfg.GlobalBatch), started: map[int64]bool{}}
				p := &producer{cfg: cfg, addr: "127.0.0.1:0"}
				p.cfg.Source = sources[i]
				if err := p.start(); err != nil {
					t.Fatal(err)
				}
				fleet.producers = append(fleet.producers, p)
				servers[i] = p.srv
			}
			svc := testService(t, fleet, ServiceConfig{})
			type job struct {
				tn            *Tenant
				next, fetches int64
			}
			start := func(name string, at int64) *job {
				tn, err := svc.Register(TenantConfig{Name: name, DP: dp})
				if err != nil {
					t.Fatal(err)
				}
				return &job{tn: tn, next: at}
			}
			// prebuilt waits for the readahead that should build iter on the
			// member fetchWithFailover asks first.
			prebuilt := func(iter int64) bool {
				src := sources[(iter+dp*7919)%int64(producers)]
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					if src.built(iter) {
						return true
					}
				}
				return false
			}
			jobs := []*job{start("ahead", 100), start("behind", 0)}
			ctx := context.Background()
			for step := 0; step < steps; step++ {
				if step == steps/2 {
					jobs = append(jobs, start("late", 0))
				}
				for _, j := range jobs {
					for rank := 0; rank < dp; rank++ {
						if _, err := j.tn.Fetch(ctx, j.next, rank); err != nil {
							t.Fatalf("%s iter %d rank %d: %v", j.tn.name, j.next, rank, err)
						}
					}
					j.next++
					j.fetches++
					if j.fetches >= int64(2*producers) && !prebuilt(j.next) {
						t.Fatalf("%s: iteration %d not prebuilt after %d fetches", j.tn.name, j.next, j.fetches)
					}
				}
			}
			fleet.Close() // waits for every readahead build
			var builds, fetched int64
			for _, srv := range servers {
				builds += srv.builds.Load()
			}
			for _, j := range jobs {
				fetched += j.fetches
			}
			if limit := fetched + int64(2*len(jobs)*producers); builds > limit {
				t.Errorf("%d producers built %d iterations for %d fetched, want at most %d", producers, builds, fetched, limit)
			}
		})
	}
}

// startedSource records the iterations a producer started building: a
// build reads its batch's samples first to last, so the first sample of
// a batch marks its iteration. Tenants here share one DP width.
type startedSource struct {
	Source
	batch   int64
	mu      sync.Mutex
	started map[int64]bool
}

func (s *startedSource) Sample(index int64) data.Sample {
	if index%s.batch == 0 {
		s.mu.Lock()
		s.started[index/s.batch] = true
		s.mu.Unlock()
	}
	return s.Source.Sample(index)
}

func (s *startedSource) built(iter int64) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.started[iter]
}

// The tenant cache serves repeated fetches (failure-recovery rewinds)
// from its window: a rank's earlier iteration is still a hit after the
// rank moved on, and only two generations of newer fetches age it out.
func TestServiceCacheHitAndWatermarkEviction(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	tn := oneTenant(t, svc)

	ctx := context.Background()
	fetch := func(iter int64) {
		t.Helper()
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	fetch(0)
	fetch(0)
	snap := svc.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", snap.CacheHitRate)
	}
	// A rewind over the rank's last iterations is all hits.
	for iter := int64(1); iter < 4; iter++ {
		fetch(iter)
	}
	for iter := int64(0); iter < 4; iter++ {
		fetch(iter)
	}
	if got := svc.Snapshot().CacheMisses; got != snap.CacheMisses+3 {
		t.Errorf("a 4-iteration rewind missed: misses = %d, want %d", got, snap.CacheMisses+3)
	}
	// Two generations of newer fetches age iteration 0 out.
	for iter := int64(4); iter < 4+2*tenantGeneration; iter++ {
		fetch(iter)
	}
	before := svc.Snapshot().CacheMisses
	fetch(0)
	if got := svc.Snapshot().CacheMisses; got != before+1 {
		t.Errorf("iteration 0 survived two generations of newer fetches: misses = %d, want %d", got, before+1)
	}
}

// The tenant cache is bounded by generations alone: a rank that stops
// fetching pins nothing. Its batch ages out with its rank-mate's
// fetches, while the newest ones stay.
func TestServiceCacheCapBoundsStalledRank(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	tn := oneTenant(t, svc)

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 1); err != nil { // rank 1 stalls at 0
		t.Fatal(err)
	}
	const n = 2 * tenantGeneration
	for iter := int64(0); iter < n; iter++ {
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		iter  int64
		rank  int
		label string
		miss  int64
	}{{n - 1, 0, "the newest batch", 0}, {0, 1, "the stalled rank's batch", 1}} {
		before := svc.Snapshot().CacheMisses
		if _, err := tn.Fetch(ctx, c.iter, c.rank); err != nil {
			t.Fatal(err)
		}
		if got := svc.Snapshot().CacheMisses - before; got != c.miss {
			t.Errorf("%s after %d newer fetches: %d misses, want %d", c.label, n, got, c.miss)
		}
	}
}

// A protocol-level server rejection is deterministic, so the service
// must not fail over on it — every producer would answer the same.
func TestServiceServerErrorDoesNotFailOver(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	tn := oneTenant(t, svc)

	_, err = tn.Fetch(context.Background(), 0, 99)
	var se *serverError
	if !errors.As(err, &se) {
		t.Fatalf("bad rank returned %v, want serverError", err)
	}
	if got := svc.Snapshot().Failovers; got != 0 {
		t.Errorf("server error triggered %d failovers", got)
	}
}

// Closing a tenant frees its cache partition: a churny fleet that
// registers, fetches and retires tenants leaves no batches cached in
// the service. A closed handle fails fast, and its id slot stays taken
// so later tenants' ids (and primaries) do not shift.
func TestTenantCloseFreesCachePartition(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})

	ctx := context.Background()
	const cycles = 5
	for i := 0; i < cycles; i++ {
		tn, err := svc.Register(TenantConfig{Name: fmt.Sprintf("job%d", i), DP: 2})
		if err != nil {
			t.Fatal(err)
		}
		if tn.id != i {
			t.Fatalf("tenant %d got id %d: closed tenants must keep their slot", i, tn.id)
		}
		for rank := 0; rank < 2; rank++ {
			if _, err := tn.Fetch(ctx, 0, rank); err != nil {
				t.Fatal(err)
			}
		}
		tn.Close()
		if _, err := tn.Fetch(ctx, 1, 0); !errors.Is(err, errTenantClosed) {
			t.Fatalf("closed tenant fetched with %v, want errTenantClosed", err)
		}
	}
	svc.mu.Lock()
	tenants := append([]*Tenant(nil), svc.tenants...)
	svc.mu.Unlock()
	for _, tn := range tenants {
		tn.cmu.Lock()
		freed := tn.cache == nil
		tn.cmu.Unlock()
		if !freed {
			t.Errorf("closed tenant %s still holds its cache partition", tn.name)
		}
	}
	if got := svc.Snapshot().Fetches; got != 2*cycles {
		t.Errorf("fetches = %d, want %d (a closed tenant's fetch must not count)", got, 2*cycles)
	}
}

// Tenants fetch at their own DP widths over one shared fleet: the
// concatenation of every rank's samples must cover the same global
// batch whatever the width, and the same (tenant, iter) at two widths
// must not collide in any cache.
func TestServiceTenantsAtDifferentDPWidths(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})

	ctx := context.Background()
	collect := func(tn *Tenant, dp int) map[int64]int {
		t.Helper()
		samples := map[int64]int{}
		for rank := 0; rank < dp; rank++ {
			rb, err := tn.Fetch(ctx, 0, rank)
			if err != nil {
				t.Fatal(err)
			}
			for _, mb := range rb.Microbatches {
				for _, p := range mb {
					samples[p.SampleIndex]++
				}
			}
		}
		return samples
	}
	wide, err := svc.Register(TenantConfig{Name: "wide", DP: 4})
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := svc.Register(TenantConfig{Name: "narrow", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	w := collect(wide, 4)
	n := collect(narrow, 2)
	if len(w) != 8 || len(n) != 8 {
		t.Fatalf("global batch coverage: wide %d, narrow %d samples, want 8 each", len(w), len(n))
	}
	for idx, c := range w {
		if n[idx] != c {
			t.Fatalf("sample %d: wide count %d, narrow count %d — widths changed the batch", idx, c, n[idx])
		}
	}
}

// Cache partitions are per-tenant: one tenant racing far ahead ages out
// its own batches, never a lagging tenant's — the laggard's re-fetch is
// a cache hit, not a rebuild.
func TestServiceCachePartitioning(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	lag, err := svc.Register(TenantConfig{Name: "laggard", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	fast, err := svc.Register(TenantConfig{Name: "fast", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if _, err := lag.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	// The fast tenant churns two generations past its own iteration 0.
	for iter := int64(0); iter <= 2*tenantGeneration; iter++ {
		if _, err := fast.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := fast.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := fast.Snapshot().CacheHits; got != 0 {
		t.Fatalf("fast tenant's iteration 0 survived its own churn (%d hits)", got)
	}
	// The laggard's batch survived the other tenant's churn.
	if _, err := lag.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := lag.Snapshot().CacheHits; got != 1 {
		t.Errorf("laggard cache hits = %d, want 1 (its partition was evicted by another tenant)", got)
	}
}

// Service.Close fails every later fetch fast, before the tenant's cache
// or any producer is consulted: a cached key is refused like any other,
// and no failover is counted against the closed members.
func TestServiceCloseFailsFetchFast(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	tn := oneTenant(t, svc)

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	svc.Close()
	for _, rank := range []int{0, 1} { // 0 is cached, 1 never fetched
		if _, err := tn.Fetch(ctx, 0, rank); !errors.Is(err, errServiceClosed) {
			t.Errorf("rank %d after Service.Close: %v, want errServiceClosed", rank, err)
		}
	}
	if got := svc.Snapshot(); got.Failovers != 0 || got.Fetches != 1 {
		t.Errorf("closed service recorded %d fetches and %d failovers, want 1 and 0", got.Fetches, got.Failovers)
	}
}

// A dead producer degrades every tenant fairly: both tenants keep
// fetching through failover, both record failovers, and the rejoined
// member serves again after its cooldown.
func TestServiceFailoverAcrossTenants(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	a, err := svc.Register(TenantConfig{Name: "a", DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	if err := fleet.FailProducer(0); err != nil {
		t.Fatal(err)
	}
	// The primary is (iter + dp·7919) mod 2, the same for both tenants:
	// two consecutive iterations cover both members, so every tenant
	// lands on the dead one at least once.
	for iter := int64(0); iter < 2; iter++ {
		for rank := 0; rank < 2; rank++ {
			if _, err := a.Fetch(ctx, iter, rank); err != nil {
				t.Fatalf("tenant a iter %d rank %d: %v", iter, rank, err)
			}
			if _, err := b.Fetch(ctx, iter, rank); err != nil {
				t.Fatalf("tenant b iter %d rank %d: %v", iter, rank, err)
			}
		}
	}
	if fa, fb := a.Snapshot().Failovers, b.Snapshot().Failovers; fa == 0 || fb == 0 {
		t.Fatalf("failovers a=%d b=%d, want both > 0 (fair degradation)", fa, fb)
	}

	if err := fleet.JoinProducer(0); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // past the failure cooldown
	before := svc.Snapshot().Failovers
	for iter := int64(2); iter < 4; iter++ {
		for rank := 0; rank < 2; rank++ {
			if _, err := a.Fetch(ctx, iter, rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	if after := svc.Snapshot().Failovers; after != before {
		t.Errorf("failovers kept climbing after rejoin: %d -> %d", before, after)
	}
}

// A Dial'd client survives its producer's restart: the request that
// finds the old connection dead fails with a transport error and drops
// it, and the next one re-dials the producer on its old address.
func TestClientRedialsRestartedProducer(t *testing.T) {
	cfg := fleetConfig()
	fleet, err := StartFleet(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	client, err := Dial(fleet.Addrs()[0])
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	ctx := context.Background()
	if _, err := client.FetchTenant(ctx, 0, 2, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := fleet.FailProducer(0); err != nil {
		t.Fatal(err)
	}
	if err := fleet.JoinProducer(0); err != nil {
		t.Fatal(err)
	}
	var se *serverError
	if _, err := client.FetchTenant(ctx, 0, 2, 1, 0); err == nil || errors.As(err, &se) {
		t.Fatalf("fetch over the stale connection: %v, want a transport error", err)
	}
	got, err := client.FetchTenant(ctx, 0, 2, 1, 0)
	if err != nil {
		t.Fatalf("fetch after the producer restarted: %v", err)
	}
	ref, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	want, err := ref.FetchTenant(0, 2, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encodeBatch(t, got), encodeBatch(t, want)) {
		t.Fatal("re-dialed fetch differs from the in-process producer's batch")
	}
}

// A request racing Client.Close either sees the client closed and never
// dials, or dials first and has its fresh connection closed by Close:
// no connection outlives Close, so the producer's handlers all end.
func TestClientCloseRacesLazyDial(t *testing.T) {
	srv, addr := startServer(t, fleetConfig())
	ctx := context.Background()
	for round := 0; round < 20; round++ {
		c := &Client{addr: addr, connect: dialTimeout, roundTrip: fetchTimeout}
		var wg sync.WaitGroup
		for rank := 0; rank < 4; rank++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.FetchTenant(ctx, 0, 2, int64(round), rank%2) //nolint:errcheck // racing Close
			}()
		}
		c.Close()
		wg.Wait()
		c.mu.Lock()
		open := c.conn != nil
		c.mu.Unlock()
		if open {
			t.Fatalf("round %d: a connection outlived Close", round)
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		srv.mu.Lock()
		n := len(srv.conns)
		srv.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("producer still serves %d connections of closed clients", n)
		}
	}
}

// Duplicate tenant names and registration after Close are rejected.
func TestServiceRegisterValidation(t *testing.T) {
	svc, err := NewService(ServiceConfig{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(TenantConfig{Name: "a"}); err == nil {
		t.Fatal("duplicate tenant name accepted")
	}
	if _, err := svc.Register(TenantConfig{}); err == nil {
		t.Fatal("empty tenant name accepted")
	}
	svc.Close()
	if _, err := svc.Register(TenantConfig{Name: "b"}); err == nil {
		t.Fatal("closed service accepted a tenant")
	}
}

// TestServiceFetchAllocBudget pins the shared fetch path at the
// geometry BenchmarkServiceThroughput times: K tenants × DP 2 over TCP
// from 2 producers, one iteration delivered to every rank per run —
// admission, the failover ring, the cache partition, the wire round
// trip and the producers' share of building it. The counts were the
// same in every recorded run, but readahead and the rank goroutines
// race the wire, so each budget is the recorded count plus 10%. Under
// the race detector sync.Pool drops entries at random, so there is
// nothing to pin.
func TestServiceFetchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	const dp = 2
	for _, tc := range []struct {
		tenants  int
		recorded float64
	}{{1, 86}, {4, 224}} {
		fleet, err := StartFleet(Config{
			Source: faninShapeCorpus(t, data.LAION400M().Seed), GlobalBatch: 8,
			DPSize: 1, Microbatch: 1, Workers: 4, Readahead: 1,
		}, 2)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fleet.Close)
		svc := testService(t, fleet, ServiceConfig{})
		handles := make([]*Tenant, tc.tenants)
		for i := range handles {
			if handles[i], err = svc.Register(TenantConfig{Name: fmt.Sprintf("t%d", i), DP: dp}); err != nil {
				t.Fatal(err)
			}
		}
		ctx := context.Background()
		iter := int64(0)
		got := testing.AllocsPerRun(100, func() {
			var wg sync.WaitGroup
			errs := make([]error, tc.tenants*dp)
			for ti, h := range handles {
				for r := 0; r < dp; r++ {
					wg.Add(1)
					go func(slot int, h *Tenant, rank int) {
						defer wg.Done()
						_, errs[slot] = h.Fetch(ctx, iter, rank)
					}(ti*dp+r, h, r)
				}
			}
			wg.Wait()
			if err := errors.Join(errs...); err != nil {
				t.Fatal(err)
			}
			iter++
		})
		if budget := tc.recorded * 1.1; got > budget {
			t.Errorf("%d tenants × DP %d: %v allocs per iteration, recorded %v, budget %.0f", tc.tenants, dp, got, tc.recorded, budget)
		}
	}
}
