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
	"disttrain/internal/metrics"
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
// the three members, over TCP) nor the tenant id (which partitions the
// producers' watermarks) can change the data.
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
	stats := &metrics.PoolStats{}
	tn := oneTenant(t, testService(t, fleet, ServiceConfig{Stats: stats}))

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
	if got := stats.Snapshot().Failovers; got != 0 {
		t.Fatalf("healthy fleet recorded %d failovers", got)
	}

	if err := fleet.FailProducer(1); err != nil {
		t.Fatal(err)
	}
	fetchAll(2, 6) // primaries rotate over all members, so some land on 1
	snap := stats.Snapshot()
	if snap.Failovers == 0 {
		t.Fatal("no failovers recorded with a dead producer")
	}

	if err := fleet.JoinProducer(1); err != nil {
		t.Fatal(err)
	}
	time.Sleep(80 * time.Millisecond) // past the failure cooldown
	fetchAll(6, 10)
	after := stats.Snapshot()
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
					tn, err := svc.Register(TenantConfig{Name: fmt.Sprintf("t%d", i), MaxInflight: dp, DP: dp})
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
			type job struct {
				tn            *Tenant
				next, fetches int64
			}
			start := func(name string, at int64) *job {
				tn, err := svc.Register(TenantConfig{Name: name, MaxInflight: dp, DP: dp})
				if err != nil {
					t.Fatal(err)
				}
				return &job{tn: tn, next: at}
			}
			// prebuilt waits for the readahead that should hold iter on the
			// member fetchWithFailover asks first.
			prebuilt := func(iter int64) bool {
				srv := servers[(iter+dp*7919)%int64(producers)]
				for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
					srv.mu.Lock()
					_, ok := srv.cache[buildKey{iter, dp}]
					srv.mu.Unlock()
					if ok {
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

// Bounded admission on the shared capacity: with every slot taken by a
// fetch in flight, the next one is rejected with errPoolSaturated
// instead of queueing unboundedly.
func TestServiceBoundedAdmission(t *testing.T) {
	cfg := fleetConfig()
	cfg.Source = slowSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, 300 * time.Millisecond}
	fleet, err := StartFleet(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	svc := testService(t, fleet, ServiceConfig{Capacity: 1, Stats: stats})
	svc.admitTimeout = 30 * time.Millisecond
	tn := oneTenant(t, svc)

	ctx := context.Background()
	started := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		close(started)
		_, err := tn.Fetch(ctx, 0, 0) // slow build holds the only slot
		done <- err
	}()
	<-started
	time.Sleep(20 * time.Millisecond)
	if _, err := tn.Fetch(ctx, 0, 1); !errors.Is(err, errPoolSaturated) {
		t.Fatalf("saturated service returned %v, want errPoolSaturated", err)
	}
	if got := stats.Snapshot().Rejections; got != 1 {
		t.Errorf("rejections = %d, want 1", got)
	}
	if err := <-done; err != nil {
		t.Fatalf("admitted fetch failed: %v", err)
	}
}

// The tenant cache serves repeated fetches (failure-recovery rewinds)
// and evicts against the minimum per-rank watermark.
func TestServiceCacheHitAndWatermarkEviction(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	tn := oneTenant(t, testService(t, fleet, ServiceConfig{Stats: stats}))

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	snap := stats.Snapshot()
	if snap.CacheHits != 1 || snap.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", snap.CacheHits, snap.CacheMisses)
	}
	if snap.CacheHitRate != 0.5 {
		t.Errorf("hit rate = %g, want 0.5", snap.CacheHitRate)
	}
	// Advance rank 0's watermark: iterations below it leave the cache.
	for iter := int64(1); iter < 4; iter++ {
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := stats.Snapshot().CacheMisses; got != snap.CacheMisses+4 {
		t.Errorf("evicted iteration 0 should re-fetch as a miss: misses = %d, want %d",
			got, snap.CacheMisses+4)
	}
}

// cacheCap backstops the tenant cache: a rank that stops fetching
// freezes the watermark floor, but the cache still stays bounded.
func TestServiceCacheCapBoundsStalledRank(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	svc.cacheCap = 4
	tn := oneTenant(t, svc)

	ctx := context.Background()
	if _, err := tn.Fetch(ctx, 0, 1); err != nil { // rank 1 stalls at 0
		t.Fatal(err)
	}
	for iter := int64(0); iter < 10; iter++ {
		if _, err := tn.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	tn.cmu.Lock()
	n := len(tn.cache)
	tn.cmu.Unlock()
	if n > 4 {
		t.Fatalf("tenant cache grew to %d entries with cacheCap 4", n)
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
	stats := &metrics.PoolStats{}
	tn := oneTenant(t, testService(t, fleet, ServiceConfig{Stats: stats}))

	_, err = tn.Fetch(context.Background(), 0, 99)
	var se *serverError
	if !errors.As(err, &se) {
		t.Fatalf("bad rank returned %v, want serverError", err)
	}
	if got := stats.Snapshot().Failovers; got != 0 {
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
	cached := 0
	for _, tn := range tenants {
		tn.cmu.Lock()
		cached += len(tn.cache) + len(tn.watermark)
		tn.cmu.Unlock()
	}
	if cached != 0 {
		t.Errorf("%d cache/watermark entries survive %d register-fetch-close cycles", cached, cycles)
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

// The weighted fair queue drains contended admissions deterministically:
// smallest virtual finish tag (grants/weight) first, ties to the lower
// tenant id, FIFO within a tenant. With weights 2:1 and arrival order
// A,A,A,A,B,B,B,B on one slot, the grant order is A A B A A B B B.
func TestServiceWFQGrantOrder(t *testing.T) {
	svc, err := NewService(ServiceConfig{Addrs: []string{"127.0.0.1:1"}, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	a, err := svc.Register(TenantConfig{Name: "a", Weight: 2, MaxInflight: 100})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", Weight: 1, MaxInflight: 100})
	if err != nil {
		t.Fatal(err)
	}

	svc.mu.Lock()
	svc.shared = svc.cfg.Capacity // saturate the tier
	var all []*svcWaiter
	for _, tn := range []*Tenant{a, a, a, a, b, b, b, b} {
		w := &svcWaiter{t: tn, ch: make(chan struct{})}
		svc.waiters = append(svc.waiters, w)
		all = append(all, w)
	}
	svc.mu.Unlock()

	granted := map[*svcWaiter]bool{}
	var order []string
	for i := 0; i < len(all); i++ {
		svc.mu.Lock()
		svc.shared-- // one fetch finished, its slot frees
		svc.grantLocked()
		for _, w := range all {
			if w.granted && !granted[w] {
				granted[w] = true
				order = append(order, w.t.name)
			}
		}
		svc.mu.Unlock()
	}
	want := []string{"a", "a", "b", "a", "a", "b", "b", "b"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("grant order %v, want %v", order, want)
		}
	}
}

// admissionHarness is a service with one shared slot, held by tenant a,
// and no producers behind it: acquire/release only.
func admissionHarness(t *testing.T) (svc *Service, a, b *Tenant) {
	t.Helper()
	svc, err := NewService(ServiceConfig{Addrs: []string{"127.0.0.1:1"}, Capacity: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	if a, err = svc.Register(TenantConfig{Name: "a"}); err != nil {
		t.Fatal(err)
	}
	if b, err = svc.Register(TenantConfig{Name: "b"}); err != nil {
		t.Fatal(err)
	}
	if err := svc.acquire(context.Background(), a); err != nil {
		t.Fatal(err)
	}
	return svc, a, b
}

// queue starts one acquire for tn and returns once it is waiting.
func queue(t *testing.T, svc *Service, ctx context.Context, tn *Tenant) <-chan error {
	t.Helper()
	svc.mu.Lock()
	want := len(svc.waiters) + 1
	svc.mu.Unlock()
	errc := make(chan error, 1)
	go func() { errc <- svc.acquire(ctx, tn) }()
	for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
		svc.mu.Lock()
		n := len(svc.waiters)
		svc.mu.Unlock()
		if n == want {
			return errc
		}
		if time.Now().After(deadline) {
			t.Fatalf("acquire never queued (%d waiters, want %d)", n, want)
		}
	}
}

// granted waits for a queued acquire to be admitted.
func granted(t *testing.T, errc <-chan error) {
	t.Helper()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("queued fetch admitted with %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("waiter stalled behind a cancelled fetch")
	}
}

// assertIdle checks slot conservation once nothing is in flight.
func assertIdle(t *testing.T, svc *Service) {
	t.Helper()
	svc.mu.Lock()
	defer svc.mu.Unlock()
	sum := 0
	for _, tn := range svc.tenants {
		sum += tn.inflight
	}
	if svc.shared != 0 || sum != 0 || len(svc.waiters) != 0 {
		t.Fatalf("idle service holds shared=%d, sum(inflight)=%d, waiters=%d; want all 0",
			svc.shared, sum, len(svc.waiters))
	}
}

// A fetch cancelled while it waits for admission gives nothing back
// (it held nothing) and must not stall the waiter behind it.
func TestServiceCancelWhileQueuedConservesSlots(t *testing.T) {
	svc, a, b := admissionHarness(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := queue(t, svc, ctx, b)
	behind := queue(t, svc, context.Background(), b)

	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter returned %v, want context.Canceled", err)
	}
	svc.release(a)
	granted(t, behind)
	svc.release(b)
	assertIdle(t, svc)
}

// A grant that races its fetch's cancellation: the slot was handed
// over before the waiter could withdraw, so the fetch owns it (acquire
// reports success whichever select arm wins), its release hands the
// slot on, and nothing leaks.
func TestServiceGrantRacingCancelConservesSlots(t *testing.T) {
	svc, a, b := admissionHarness(t)
	for i := 0; i < 100; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		raced := queue(t, svc, ctx, b)
		behind := queue(t, svc, context.Background(), b)

		// release(a) with the cancel inside the critical section: the
		// waiter wakes to a closed grant channel and a done context.
		svc.mu.Lock()
		a.inflight--
		svc.shared--
		svc.grantLocked()
		cancel()
		svc.mu.Unlock()

		if err := <-raced; err != nil {
			t.Fatalf("round %d: granted-then-cancelled fetch returned %v, want the slot", i, err)
		}
		svc.release(b)
		granted(t, behind)
		svc.release(b)
		assertIdle(t, svc)
		if err := svc.acquire(context.Background(), a); err != nil { // re-arm
			t.Fatal(err)
		}
	}
}

// Per-tenant quotas isolate tenants: a tenant saturating its own quota
// is rejected with errPoolSaturated (and only its rejection counter
// moves) while another tenant keeps fetching through the same shared
// tier.
func TestServiceQuotaSaturationIsolatesTenants(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	stats := &metrics.PoolStats{}
	svc := testService(t, fleet, ServiceConfig{Stats: stats})
	svc.admitTimeout = 30 * time.Millisecond
	a, err := svc.Register(TenantConfig{Name: "a", MaxInflight: 1, DP: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := svc.Register(TenantConfig{Name: "b", MaxInflight: 2, DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	// Pin tenant A's only admission slot, as an in-flight fetch would.
	if err := svc.acquire(ctx, a); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Fetch(ctx, 0, 0); !errors.Is(err, errPoolSaturated) {
		t.Fatalf("saturated tenant fetched with %v, want errPoolSaturated", err)
	}
	if _, err := b.Fetch(ctx, 0, 0); err != nil {
		t.Fatalf("tenant b starved by tenant a's saturation: %v", err)
	}
	svc.release(a)

	if got := a.Snapshot().Rejections; got != 1 {
		t.Errorf("tenant a rejections = %d, want 1", got)
	}
	if got := b.Snapshot().Rejections; got != 0 {
		t.Errorf("tenant b rejections = %d, want 0", got)
	}
	if got := svc.Snapshot().Rejections; got != 1 {
		t.Errorf("aggregate rejections = %d, want 1", got)
	}
	// The freed quota admits tenant A again.
	if _, err := a.Fetch(ctx, 0, 1); err != nil {
		t.Fatalf("tenant a still rejected after its slot freed: %v", err)
	}
}

// Cache partitions are per-tenant: one tenant racing far ahead must
// never evict a lagging tenant's batches — the laggard's re-fetch is a
// cache hit, not a rebuild.
func TestServiceCachePartitioning(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	svc.cacheCap = 4
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
	// The fast tenant churns far past its own cacheCap.
	for iter := int64(0); iter < 12; iter++ {
		if _, err := fast.Fetch(ctx, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	fast.cmu.Lock()
	fastN := len(fast.cache)
	fast.cmu.Unlock()
	if fastN > 4 {
		t.Fatalf("fast tenant's partition grew to %d entries with cacheCap 4", fastN)
	}
	// The laggard's batch survived the other tenant's churn.
	if _, err := lag.Fetch(ctx, 0, 0); err != nil {
		t.Fatal(err)
	}
	if got := lag.Snapshot().CacheHits; got != 1 {
		t.Errorf("laggard cache hits = %d, want 1 (its partition was evicted by another tenant)", got)
	}
}

// Quota resizes act immediately: shrinking to zero blocks the tenant
// (rejection after admitTimeout), growing re-grants queued waiters.
func TestServiceSetQuota(t *testing.T) {
	fleet, err := StartFleet(fleetConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(fleet.Close)
	svc := testService(t, fleet, ServiceConfig{})
	svc.admitTimeout = 30 * time.Millisecond
	tn, err := svc.Register(TenantConfig{Name: "t", DP: 2})
	if err != nil {
		t.Fatal(err)
	}

	ctx := context.Background()
	tn.SetQuota(0)
	if _, err := tn.Fetch(ctx, 0, 0); !errors.Is(err, errPoolSaturated) {
		t.Fatalf("zero-quota tenant fetched with %v, want errPoolSaturated", err)
	}
	tn.SetQuota(2)
	if got := tn.MaxInflight(); got != 2 {
		t.Fatalf("MaxInflight = %d after SetQuota(2)", got)
	}
	if _, err := tn.Fetch(ctx, 0, 0); err != nil {
		t.Fatalf("re-grown tenant still rejected: %v", err)
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
		svc := testService(t, fleet, ServiceConfig{Capacity: 2 * tc.tenants * dp})
		handles := make([]*Tenant, tc.tenants)
		for i := range handles {
			if handles[i], err = svc.Register(TenantConfig{Name: fmt.Sprintf("t%d", i), MaxInflight: dp, DP: dp}); err != nil {
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
