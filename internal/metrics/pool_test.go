package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestPoolStatsSnapshot(t *testing.T) {
	var s PoolStats
	s.RecordFetch(0.010)
	s.RecordFetch(0.030)
	s.RecordFailover()
	s.RecordRejection()
	s.RecordCacheHit()
	s.RecordCacheMiss()
	s.RecordCacheMiss()
	s.RecordCacheMiss()

	snap := s.Snapshot()
	if snap.Fetches != 2 || snap.Failovers != 1 || snap.Rejections != 1 {
		t.Errorf("counters = %+v", snap)
	}
	if snap.CacheHits != 1 || snap.CacheMisses != 3 {
		t.Errorf("cache counters = %+v", snap)
	}
	if snap.CacheHitRate != 0.25 {
		t.Errorf("hit rate = %g, want 0.25", snap.CacheHitRate)
	}
	if snap.MeanFetchSeconds != 0.020 {
		t.Errorf("mean latency = %g, want 0.020", snap.MeanFetchSeconds)
	}
	if snap.MaxFetchSeconds != 0.030 {
		t.Errorf("max latency = %g, want 0.030", snap.MaxFetchSeconds)
	}
	if !strings.Contains(snap.String(), "failovers 1") {
		t.Errorf("summary %q missing failovers", snap.String())
	}
}

func TestPoolStatsZero(t *testing.T) {
	var s PoolStats
	snap := s.Snapshot()
	if snap.CacheHitRate != 0 || snap.Fetches != 0 || snap.MeanFetchSeconds != 0 {
		t.Errorf("zero stats = %+v", snap)
	}
}

// The collector is recorded into from every in-flight fetch; the race
// gate pins concurrent safety.
func TestPoolStatsConcurrent(t *testing.T) {
	var s PoolStats
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.RecordFetch(0.001)
				s.RecordFailover()
				s.RecordCacheMiss()
				_ = s.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := s.Snapshot().Fetches; got != 400 {
		t.Errorf("fetches = %d, want 400", got)
	}
}

// A collector lives as long as training does: 100k fetches keep the
// latency state at its fixed ring (it was 8 bytes per fetch, forever),
// mean and max stay exact over all of them, and the p99 follows the
// most recent window.
func TestPoolStatsLatencyBounded(t *testing.T) {
	var s PoolStats
	child := s.Labeled("t0")
	const n = 100_000
	for i := 0; i < n; i++ {
		child.RecordFetch(0.001) // 1 ms, except one early 1 s outlier
		if i == 10 {
			child.RecordFetch(1)
		}
	}
	for _, p := range []*PoolStats{&s, child} {
		if ring := p.recent.values; len(ring) != latencyWindow || cap(ring) >= 2*latencyWindow {
			t.Errorf("latency ring is %d long (cap %d) after %d fetches, want %d", len(ring), cap(ring), n, latencyWindow)
		}
		snap := p.Snapshot()
		if snap.Fetches != n+1 || snap.MaxFetchSeconds != 1 {
			t.Errorf("fetches %d max %g, want %d and the 1 s outlier", snap.Fetches, snap.MaxFetchSeconds, n+1)
		}
		if want := (n*0.001 + 1) / (n + 1); math.Abs(snap.MeanFetchSeconds-want) > 1e-9 {
			t.Errorf("mean = %g, want %g over every fetch", snap.MeanFetchSeconds, want)
		}
		if snap.P99FetchSeconds != 0.001 {
			t.Errorf("p99 = %g, want 0.001: the outlier left the recent window long ago", snap.P99FetchSeconds)
		}
	}
}
