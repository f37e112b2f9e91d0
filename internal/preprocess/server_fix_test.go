package preprocess

import (
	"context"
	"errors"
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

// fetchRanks fetches iteration iter for every rank of a DP-dp tenant.
func fetchRanks(t *testing.T, srv *Server, tenant uint32, dp int, iter int64) {
	t.Helper()
	for rank := 0; rank < dp; rank++ {
		if _, err := srv.FetchTenant(tenant, dp, iter, rank); err != nil {
			t.Fatal(err)
		}
	}
}

// windowServer is one producer of 4-sample batches, no readahead.
func windowServer(t *testing.T) *Server {
	t.Helper()
	srv, err := NewServer(Config{
		Source:      fixedSource{images: 1, resolution: 32, seqLen: 128},
		GlobalBatch: 4, DPSize: 2, Microbatch: 1, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// A rank lagging a generation behind its tenant's other rank finds
// every batch it asks for built: it reads the window, not a rebuild.
func TestEvictionHonoursLaggingRank(t *testing.T) {
	srv := windowServer(t)
	for iter := int64(0); iter <= producerGeneration; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	builds := srv.builds.Load()
	for iter := int64(0); iter <= producerGeneration; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 1); err != nil {
			t.Fatal(err)
		}
	}
	if got := srv.builds.Load(); got != builds {
		t.Fatalf("a rank %d iterations behind forced %d rebuilds", producerGeneration, got-builds)
	}
}

// The window is bounded by generations alone: a rank that never fetches
// (a dead consumer) pins nothing, and after a stream of three
// generations the producer holds exactly the last two.
func TestCacheCapBoundsDeadRank(t *testing.T) {
	srv := windowServer(t)
	const n = 3 * producerGeneration
	for iter := int64(0); iter < n; iter++ {
		if _, err := srv.FetchTenant(0, 2, iter, 0); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		iter   int64
		builds int64
	}{{n - 1, 0}, {n - 2*producerGeneration, 0}, {n - 2*producerGeneration - 1, 1}} {
		before := srv.builds.Load()
		if _, err := srv.FetchTenant(0, 2, c.iter, 0); err != nil {
			t.Fatal(err)
		}
		if got := srv.builds.Load() - before; got != c.builds {
			t.Errorf("iteration %d after a stream to %d: %d builds, want %d", c.iter, n-1, got, c.builds)
		}
	}
}

// A producer outlives its consumers: 500 tenants that fetch once and
// retire leave at most two generations of routes behind, the oldest
// gone, while the live tenant fetching beside them keeps its own.
func TestServerForgetsRetiredTenants(t *testing.T) {
	srv := windowServer(t)
	const retired = 500
	for i := int64(0); i < retired; i++ {
		fetchRanks(t, srv, 0, 2, i)           // the live tenant
		fetchRanks(t, srv, uint32(1+i), 2, i) // fetches once and leaves
	}
	srv.mu.Lock()
	defer srv.mu.Unlock()
	kept := 0
	for tn := uint32(1); tn <= retired; tn++ {
		for rank := 0; rank < 2; rank++ {
			if _, ok := srv.routes.Get(wmKey{tn, rank}); ok {
				kept++
			}
		}
	}
	if kept < routeGeneration || kept > 2*routeGeneration {
		t.Errorf("%d retired ranks' routes kept, want one to two generations (%d to %d)", kept, routeGeneration, 2*routeGeneration)
	}
	if _, ok := srv.routes.Get(wmKey{1, 0}); ok {
		t.Error("the first retired tenant's route survived 999 newer ranks")
	}
	for rank := 0; rank < 2; rank++ {
		if w, ok := srv.routes.Get(wmKey{0, rank}); !ok || w.iter != retired-1 || w.gap != 1 {
			t.Errorf("live rank %d: route %+v (kept %v), want iteration %d by gaps of 1", rank, w, ok, retired-1)
		}
	}
}

// TestProducerServesRewindsAndStaggers counts one producer's builds at
// DP 2 with 4-sample batches on three re-read shapes:
//   - A consumer rewinding over its last 4 iterations rebuilds none.
//   - A tenant 10 iterations behind its peer costs no extra build.
//   - A laggard 70 behind, past the window, costs one build per
//     iteration it fetches: both its ranks read that one build.
func TestProducerServesRewindsAndStaggers(t *testing.T) {
	srv := windowServer(t)
	for _, iter := range []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 6, 7, 8, 9} {
		fetchRanks(t, srv, 0, 2, iter)
	}
	if got := srv.builds.Load(); got != 10 {
		t.Errorf("10 iterations and a 4-iteration rewind: %d builds, want 10", got)
	}
	const n = 400
	for _, c := range []struct{ lag, builds int64 }{{10, n}, {70, n + n - 70}} {
		srv := windowServer(t)
		for s := int64(0); s < n; s++ {
			fetchRanks(t, srv, 0, 2, s)
			if s >= c.lag {
				fetchRanks(t, srv, 1, 2, s-c.lag)
			}
		}
		if got := srv.builds.Load(); got != c.builds {
			t.Errorf("a tenant %d behind over %d iterations: %d builds, want %d", c.lag, n, got, c.builds)
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

// gatedSource holds the samples in [from, to) back until the gate
// opens.
type gatedSource struct {
	fixedSource
	from, to int64
	gate     chan struct{}
}

func (g gatedSource) Sample(index int64) data.Sample {
	if g.from <= index && index < g.to {
		<-g.gate
	}
	return g.fixedSource.Sample(index)
}

// A consumer restarted against a long-lived producer re-fetches
// iterations below the ones its previous run reached. Both ranks of the
// re-fetch share its one build: the one that arrives second waits for
// the first's.
func TestRefetchBelowWatermarkServesWaiters(t *testing.T) {
	src := gatedSource{fixedSource{images: 1, resolution: 32, seqLen: 128}, 0, 4, make(chan struct{})}
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
			t.Errorf("re-fetch below the previous run: %v", err)
		}
	}
	if got := srv.builds.Load(); got != 2 {
		t.Errorf("two iterations fetched by both ranks: %d builds, want 2", got)
	}
}
