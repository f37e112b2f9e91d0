package preprocess

import (
	"context"
	"errors"
	"sort"
	"testing"
	"time"

	"disttrain/internal/data"
)

// Close must wait for readahead builds: the readahead goroutines are
// registered with the server WaitGroup and re-check closed before
// building, so no build touches the Source after Close returns.
func TestCloseWaitsForReadahead(t *testing.T) {
	cfg := Config{
		Source:      slowSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, 2 * time.Millisecond},
		GlobalBatch: 4, DPSize: 1, Microbatch: 1, Workers: 2, Readahead: 3,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.FetchTenant(0, 1, 0, 0); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	after := srv.builds.Load()
	time.Sleep(50 * time.Millisecond)
	if got := srv.builds.Load(); got != after {
		t.Fatalf("builds kept running after Close: %d -> %d", after, got)
	}
	// A closed server refuses new work with the shutdown sentinel — a
	// transport-level condition the handler must never answer as an
	// opError frame (the pool would refuse to fail over on it).
	if _, err := srv.FetchTenant(0, 1, 1, 0); !errors.Is(err, errServerClosed) {
		t.Errorf("closed server returned %v, want errServerClosed", err)
	}
	if srv.begin() {
		t.Error("closed server admitted background work")
	}
}

// The cache evicts against the minimum per-rank fetch watermark: a
// rank lagging far behind the newest build keeps its batch cached
// instead of having it evicted and rebuilt on every fetch.
func TestEvictionHonoursLaggingRank(t *testing.T) {
	cfg := Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Both ranks fetch iteration 0, then rank 0 races far ahead of the
	// old Readahead+2 eviction horizon.
	for rank := 0; rank < 2; rank++ {
		if _, err := srv.FetchTenant(0, 2, 0, rank); err != nil {
			t.Fatal(err)
		}
	}
	for iter := int64(1); iter <= 10; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	builds := srv.builds.Load()
	// Rank 1 is 10 iterations behind: its next batches must all be
	// cache hits, not rebuilds.
	for iter := int64(1); iter <= 10; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.builds.Load(); got != builds {
		t.Fatalf("lagging rank forced %d rebuilds", got-builds)
	}
	// Once every rank passed an iteration, it leaves the cache.
	srv.mu.Lock()
	var cached []int64
	for k := range srv.cache {
		cached = append(cached, k.iter)
	}
	srv.mu.Unlock()
	sort.Slice(cached, func(a, b int) bool { return cached[a] < cached[b] })
	if len(cached) == 0 || cached[0] < 10 {
		t.Errorf("cache retains iterations below the min watermark: %v", cached)
	}
}

// cacheCap backstops the watermark eviction: a rank that never fetches
// (a dead consumer) freezes the watermark floor, but the cache still
// stays bounded — the oldest iterations drop first.
func TestCacheCapBoundsDeadRank(t *testing.T) {
	cfg := Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	}
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.cacheCap = 4
	for iter := int64(0); iter < 20; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	srv.mu.Lock()
	n := len(srv.cache)
	_, newestCached := srv.cache[buildKey{19, 2}]
	srv.mu.Unlock()
	if n > 4 {
		t.Fatalf("cache grew to %d iterations with cacheCap 4", n)
	}
	if !newestCached {
		t.Error("cap evicted the newest iteration instead of the oldest")
	}
}

// A producer outlives its consumers: tenants that fetch once and retire
// must neither grow the watermark maps by one entry per tenant id nor
// pin the eviction floor with a frozen watermark. A rank more than
// cacheCap iterations behind the newest fetch is forgotten, so once the
// last retired tenant falls that far behind, the cache evicts below the
// live tenant's floor again.
func TestServerForgetsRetiredTenants(t *testing.T) {
	srv, err := NewServer(Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.cacheCap = 4
	fetch := func(tenant uint32, iter int64) {
		t.Helper()
		for rank := 0; rank < 2; rank++ {
			if _, err := srv.FetchTenant(tenant, 2, iter, rank); err != nil {
				t.Fatal(err)
			}
		}
	}
	sizes := func() (watermarks, tenants int) {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return len(srv.watermark), len(srv.tenantDP)
	}
	const retired = 500
	for i := int64(0); i < retired; i++ {
		fetch(0, i)           // the live tenant
		fetch(uint32(1+i), i) // fetches once and leaves
	}
	// Left: the live tenant and the retired tenants of the last
	// cacheCap+1 iterations, two ranks each.
	if w, tn := sizes(); w > 2*(srv.cacheCap+2) || tn > srv.cacheCap+2 {
		t.Fatalf("after %d retired tenants: %d watermarks, %d tenant widths", retired, w, tn)
	}
	last := int64(retired + srv.cacheCap)
	for iter := int64(retired); iter <= last; iter++ {
		fetch(0, iter)
	}
	if w, tn := sizes(); w != 2 || tn != 1 {
		t.Fatalf("live tenant alone: %d watermarks, %d tenant widths, want 2 and 1", w, tn)
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	for k := range srv.cache {
		if k.iter < last {
			t.Errorf("iteration %d cached below the live tenant's floor %d", k.iter, last)
		}
	}
}

// Once the prefetch loop dies, Next must re-deliver the terminal error
// on every call instead of blocking on a channel nothing feeds.
func TestPrefetcherRedeliversTerminalError(t *testing.T) {
	cfg := Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	}
	_, addr := startServer(t, cfg)
	client, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()

	// A 3-wide split does not divide the 4-sample batch: the first
	// fetch fails terminally.
	pf := NewPrefetcher(client, 3, 2)
	defer pf.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	first := func() error { _, err := pf.Next(ctx); return err }
	if err := first(); err == nil {
		t.Fatal("bad split prefetch succeeded")
	}
	// The queue is drained now; every further Next must return the same
	// terminal error immediately, not block until the context dies.
	start := time.Now()
	for i := 0; i < 3; i++ {
		if _, err := pf.Next(ctx); err == nil || errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d: got %v, want re-delivered terminal error", i, err)
		}
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("drained prefetcher blocked for %v", d)
	}
}

// gatedSource holds iteration 0's samples back until the gate opens.
type gatedSource struct {
	fixedSource
	gate chan struct{}
}

func (g gatedSource) Sample(index int64) data.Sample {
	if index < 4 {
		<-g.gate
	}
	return g.fixedSource.Sample(index)
}

// A consumer restarted against a long-lived producer re-fetches
// iterations below the watermark floor its previous run left behind:
// the build is evicted the moment it is cached. Ranks waiting on that
// build must still get it — they read the in-flight record, not the
// cache.
func TestRefetchBelowWatermarkServesWaiters(t *testing.T) {
	src := gatedSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, make(chan struct{})}
	srv, err := NewServer(Config{Source: src, GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for rank := 0; rank < 2; rank++ {
		if _, err := srv.FetchTenant(0, 2, 5, rank); err != nil {
			t.Fatal(err)
		}
	}
	errs := make(chan error, 2)
	for rank := 0; rank < 2; rank++ {
		go func(rank int) {
			_, err := srv.FetchTenant(0, 2, 0, rank)
			errs <- err
		}(rank)
	}
	time.Sleep(20 * time.Millisecond) // both ranks in: one building, one waiting on it
	close(src.gate)
	for rank := 0; rank < 2; rank++ {
		if err := <-errs; err != nil {
			t.Errorf("re-fetch below the watermark floor: %v", err)
		}
	}
}
