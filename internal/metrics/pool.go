package metrics

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
)

// latencyWindow is how many of the most recent fetch latencies a
// PoolStats keeps for its p99: a collector lives as long as training
// does and records every fetch, so it holds a fixed ring (8 KB), not
// the run's history. 1,024 leaves ten samples beyond the percentile.
const latencyWindow = 1024

// PoolStats collects the consumer-side observables of an elastic
// preprocessing producer pool: fetch latency, failovers away from the
// deterministic primary, and the pool cache's hit rate. All methods are
// safe for concurrent use; the pool records from every in-flight fetch.
type PoolStats struct {
	fetches   atomic.Int64
	failovers atomic.Int64
	cacheHits atomic.Int64
	cacheMiss atomic.Int64

	// Mean and max are exact over every fetch (a running sum and max);
	// recent is the ring the p99 is taken over, written at latN modulo
	// latencyWindow once full.
	mu             sync.Mutex
	latN           int
	latSum, latMax float64
	recent         series

	// parent, when non-nil, receives a copy of every record — labeled
	// children roll up into the aggregate they were created from.
	parent *PoolStats

	lmu     sync.Mutex
	labeled map[string]*PoolStats
}

// Labeled returns (creating on first use) the named child collector.
// Records into a child also land in this aggregate, so a shared
// preprocessing service keeps one aggregate plus per-tenant breakdowns
// from one collector tree.
func (p *PoolStats) Labeled(name string) *PoolStats {
	p.lmu.Lock()
	defer p.lmu.Unlock()
	if p.labeled == nil {
		p.labeled = map[string]*PoolStats{}
	}
	c, ok := p.labeled[name]
	if !ok {
		c = &PoolStats{parent: p}
		p.labeled[name] = c
	}
	return c
}

// RecordFetch records one successful fetch and its latency in seconds.
func (p *PoolStats) RecordFetch(seconds float64) {
	p.fetches.Add(1)
	p.mu.Lock()
	if p.recent.N() < latencyWindow {
		p.recent.Add(seconds)
	} else {
		p.recent.values[p.latN%latencyWindow] = seconds
	}
	p.latN++
	p.latSum += seconds
	p.latMax = math.Max(p.latMax, seconds)
	p.mu.Unlock()
	if p.parent != nil {
		p.parent.RecordFetch(seconds)
	}
}

// RecordFailover records one fetch served by (or moved toward) a
// producer other than its deterministic primary.
func (p *PoolStats) RecordFailover() {
	p.failovers.Add(1)
	if p.parent != nil {
		p.parent.RecordFailover()
	}
}

// RecordCacheHit and RecordCacheMiss track the pool-side batch cache.
func (p *PoolStats) RecordCacheHit() {
	p.cacheHits.Add(1)
	if p.parent != nil {
		p.parent.RecordCacheHit()
	}
}

func (p *PoolStats) RecordCacheMiss() {
	p.cacheMiss.Add(1)
	if p.parent != nil {
		p.parent.RecordCacheMiss()
	}
}

// PoolSnapshot is a point-in-time copy of the pool counters.
type PoolSnapshot struct {
	// Fetches counts successful fetches (cache hits included).
	Fetches int64
	// Failovers counts fetches that left their primary producer —
	// because it was marked down or because an attempt on it failed.
	Failovers int64
	// Rejections is inert (always 0), kept only for benchmark/ until a
	// later benchmark change deletes it.
	Rejections int64
	// CacheHits / CacheMisses describe the pool-side batch cache;
	// CacheHitRate is hits over lookups (0 when no lookups happened).
	CacheHits    int64
	CacheMisses  int64
	CacheHitRate float64
	// MeanFetchSeconds / MaxFetchSeconds summarise every successful
	// fetch's latency; P99FetchSeconds the most recent 1,024.
	MeanFetchSeconds float64
	MaxFetchSeconds  float64
	P99FetchSeconds  float64
}

// Snapshot returns the current counters.
func (p *PoolStats) Snapshot() PoolSnapshot {
	s := PoolSnapshot{
		Fetches:     p.fetches.Load(),
		Failovers:   p.failovers.Load(),
		CacheHits:   p.cacheHits.Load(),
		CacheMisses: p.cacheMiss.Load(),
	}
	if lookups := s.CacheHits + s.CacheMisses; lookups > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(lookups)
	}
	p.mu.Lock()
	if p.latN > 0 {
		s.MeanFetchSeconds = p.latSum / float64(p.latN)
	}
	s.MaxFetchSeconds = p.latMax
	s.P99FetchSeconds = p.recent.P99()
	p.mu.Unlock()
	return s
}

func (s PoolSnapshot) String() string {
	return fmt.Sprintf("fetches %d (mean %.1fms, p99 %.1fms) | failovers %d | cache %.0f%% hit",
		s.Fetches, s.MeanFetchSeconds*1e3, s.P99FetchSeconds*1e3,
		s.Failovers, 100*s.CacheHitRate)
}
