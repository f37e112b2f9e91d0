package orchestrator

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/profiler"
	"disttrain/internal/store"
)

func cacheSpec(t *testing.T, nodes, bs int) Spec {
	t.Helper()
	cl := cluster.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, model.MLLM9B()))
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 120); err != nil {
		t.Fatal(err)
	}
	return Spec{Cluster: cl, Model: model.MLLM9B(), GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}
}

// TestPlanCacheSingleflight pins the cache contract: K concurrent
// callers with one fingerprint run exactly one search, every caller
// gets the same (correct) plan, and each caller owns a private copy.
func TestPlanCacheSingleflight(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	want, err := PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(SearchOptions{})
	const k = 8
	plans := make([]*Plan, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = c.Plan(context.Background(), spec)
		}(i)
	}
	wg.Wait()
	for i := 0; i < k; i++ {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !reflect.DeepEqual(plans[i], want) {
			t.Fatalf("caller %d got a different plan than the direct search", i)
		}
	}
	if got := c.Searches(); got != 1 {
		t.Errorf("%d concurrent callers ran %d searches, want 1", k, got)
	}
	if c.Searches()+c.Hits() != k {
		t.Errorf("searches %d + hits %d != %d calls", c.Searches(), c.Hits(), k)
	}
	if c.Len() != 1 {
		t.Errorf("cache holds %d fingerprints, want 1", c.Len())
	}
	// Copies are private: mutating one caller's plan must not leak.
	plans[0].Strategy = "mutated"
	again, err := c.Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.Strategy == "mutated" {
		t.Error("cache handed out a shared plan pointer")
	}
}

// TestPlanCacheFingerprintDiscriminates: different cluster sizes or
// batch geometry must miss each other, while a fresh profiler with an
// identical calibration shares — the fingerprint is content-addressed,
// not pointer-addressed.
func TestPlanCacheFingerprintDiscriminates(t *testing.T) {
	base := cacheSpec(t, 4, 32)
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, base); err != nil {
		t.Fatal(err)
	}

	smaller := base
	smaller.Cluster.Nodes = 2
	if _, err := c.Plan(ctx, smaller); err != nil {
		t.Fatal(err)
	}
	bigger := base
	bigger.GlobalBatch = 64
	if _, err := c.Plan(ctx, bigger); err != nil {
		t.Fatal(err)
	}
	if got := c.Searches(); got != 3 {
		t.Errorf("3 distinct fingerprints ran %d searches", got)
	}
	// A fresh profiler pointer with byte-identical calibration is the
	// same content: it must hit, not re-search.
	other := cacheSpec(t, 4, 32)
	hits := c.Hits()
	if _, err := c.Plan(ctx, other); err != nil {
		t.Fatal(err)
	}
	if c.Searches() != 3 || c.Hits() != hits+1 {
		t.Errorf("identically calibrated profiler: searches %d hits %d, want shared entry", c.Searches(), c.Hits())
	}
	// And the same spec again is a pure hit.
	hits = c.Hits()
	if _, err := c.Plan(ctx, base); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != hits+1 || c.Searches() != 3 {
		t.Errorf("repeat call: searches %d hits %d", c.Searches(), c.Hits())
	}
}

// TestPlanCacheKeyedOnPlacement: two specs identical except for the
// lease placement shape miss each other — a "4" lease and a "2+2"
// lease of the same size price different fabrics, so they must not
// share a plan entry.
func TestPlanCacheKeyedOnPlacement(t *testing.T) {
	base := cacheSpec(t, 4, 32)
	base.Placement = "4"
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, base); err != nil {
		t.Fatal(err)
	}
	frag := base
	frag.Placement = "2+2"
	if _, err := c.Plan(ctx, frag); err != nil {
		t.Fatal(err)
	}
	if got := c.Searches(); got != 2 {
		t.Errorf("distinct placement shapes ran %d searches, want 2", got)
	}
	hits := c.Hits()
	if _, err := c.Plan(ctx, frag); err != nil {
		t.Fatal(err)
	}
	if c.Hits() != hits+1 {
		t.Error("repeated placement shape missed the cache")
	}
}

// TestPlanCacheHitsCountedOncePerCall pins the fix for the hit
// double-count: a call that joins several searches cut short by their
// leaders' contexts before leading its own must record at most one
// hit — the old per-iteration counting inflated Hits past the call
// count.
func TestPlanCacheHitsCountedOncePerCall(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	c := NewPlanCache(SearchOptions{})
	key := fingerprintSpec(spec)
	// lead claims the fingerprint the way a concurrent caller would.
	lead := func() planReq {
		e, claimed := c.claim(key, spec, false)
		if !claimed {
			t.Fatal("fingerprint already claimed")
		}
		return planReq{e: e, key: key, spec: spec}
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	leader := lead()
	joins := 0
	c.joinHook = func() {
		// The call under test has joined leader; its search now dies with
		// its context. The first time, another doomed leader takes the
		// slot before the call retries; the second time the slot stays
		// empty and the call leads the real search.
		joins++
		c.executeWave(cancelled, []planReq{leader}, 1)
		if joins < 2 {
			leader = lead()
		}
	}
	plan, err := c.Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if plan == nil {
		t.Fatal("no plan after retries")
	}
	if joins != 2 {
		t.Fatalf("call joined %d cancelled searches, want 2", joins)
	}
	if c.Hits() != 1 {
		t.Errorf("one call through %d cancelled searches counted %d hits, want 1", joins, c.Hits())
	}
	if c.Searches() != 3 {
		t.Errorf("Searches() = %d, want 3 (two cancelled, one real)", c.Searches())
	}
}

// TestPersistentPlanCacheCrossInstance: a second cache instance over
// the same store serves the spec with zero searches and an identical
// plan — the durable control plane surviving a restart.
func TestPersistentPlanCacheCrossInstance(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	ctx := context.Background()
	for _, backend := range []struct {
		name string
		st   func(t *testing.T) store.Store
	}{
		{"mem", func(t *testing.T) store.Store { return store.NewMem() }},
		{"disk", func(t *testing.T) store.Store {
			d, err := store.OpenDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(backend.name, func(t *testing.T) {
			st := backend.st(t)
			c1 := NewPersistentPlanCache(SearchOptions{}, st)
			want, err := c1.Plan(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if c1.Searches() != 1 || c1.WarmHits() != 0 {
				t.Fatalf("cold cache: searches %d warm hits %d", c1.Searches(), c1.WarmHits())
			}

			c2 := NewPersistentPlanCache(SearchOptions{}, st)
			got, err := c2.Plan(ctx, spec)
			if err != nil {
				t.Fatal(err)
			}
			if c2.Searches() != 0 {
				t.Errorf("warm cache ran %d searches, want 0", c2.Searches())
			}
			if c2.WarmHits() != 1 {
				t.Errorf("warm cache recorded %d warm hits, want 1", c2.WarmHits())
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("stored plan round trip diverged:\ngot  %+v\nwant %+v", got, want)
			}
			// And the warm entry is now in memory: a repeat is a plain hit.
			if _, err := c2.Plan(ctx, spec); err != nil {
				t.Fatal(err)
			}
			if c2.Hits() != 1 || c2.Searches() != 0 {
				t.Errorf("repeat on warm cache: searches %d hits %d", c2.Searches(), c2.Hits())
			}
		})
	}
}

// TestPersistentPlanCacheWarmSeed: a miss at size N finds the
// incumbent at N−1 from the same spec family, seeds the search with
// its strategy, and still returns the reference plan.
func TestPersistentPlanCacheWarmSeed(t *testing.T) {
	spec4 := cacheSpec(t, 4, 32)
	spec5 := spec4
	spec5.Cluster.Nodes = 5
	ctx := context.Background()

	c := NewPersistentPlanCache(SearchOptions{}, store.NewMem())
	if _, err := c.Plan(ctx, spec4); err != nil {
		t.Fatal(err)
	}
	if c.WarmSeeds() != 0 {
		t.Fatalf("first plan had nothing to seed from, recorded %d warm seeds", c.WarmSeeds())
	}
	got, err := c.Plan(ctx, spec5)
	if err != nil {
		t.Fatal(err)
	}
	if c.WarmSeeds() != 1 {
		t.Errorf("neighbouring size recorded %d warm seeds, want 1", c.WarmSeeds())
	}
	if c.Pruned() == 0 {
		t.Error("warm-seeded search pruned no candidates")
	}
	want, err := planDistTrainSequential(spec5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("warm-seeded plan diverged from sequential reference:\ngot  %+v\nwant %+v", got, want)
	}
}

// TestPersistentPlanCacheCorruptEntry: a corrupted store entry is a
// counted miss — the cache re-searches, returns a correct plan, and
// heals the entry for the next instance.
func TestPersistentPlanCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec(t, 4, 32)
	ctx := context.Background()
	key := fingerprintSpec(spec)

	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewPersistentPlanCache(SearchOptions{}, st)
	want, err := c1.Plan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, key+".entry")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	st2, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewPersistentPlanCache(SearchOptions{}, st2)
	got, err := c2.Plan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if c2.Searches() != 1 || c2.WarmHits() != 0 {
		t.Errorf("corrupt entry: searches %d warm hits %d, want a re-search", c2.Searches(), c2.WarmHits())
	}
	if st2.CorruptSkips() != 1 {
		t.Errorf("corrupt entry counted %d skips, want 1", st2.CorruptSkips())
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("re-searched plan diverged")
	}

	// The re-search healed the entry: a third instance warm-hits.
	st3, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c3 := NewPersistentPlanCache(SearchOptions{}, st3)
	if _, err := c3.Plan(ctx, spec); err != nil {
		t.Fatal(err)
	}
	if c3.WarmHits() != 1 || c3.Searches() != 0 {
		t.Errorf("healed entry: searches %d warm hits %d", c3.Searches(), c3.WarmHits())
	}
}

// TestSpecFieldSetPinned guards the fingerprint's completeness: a new
// Spec field must be added to fingerprintSpec before this list.
func TestSpecFieldSetPinned(t *testing.T) {
	want := []string{"Cluster", "Model", "GlobalBatch", "Microbatch",
		"Profiler", "MaxGPUs", "VPP", "Placement"}
	rt := reflect.TypeOf(Spec{})
	var got []string
	for i := 0; i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("orchestrator.Spec fields changed:\ngot  %v\nwant %v\nhash the new field in fingerprintSpec first", got, want)
	}
}

// TestPlanCacheCachesErrors: an unplannable spec fails once and the
// failure is reused — retrying cannot make a cluster bigger.
func TestPlanCacheCachesErrors(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	spec.Model = model.MLLM72B() // 72B on 4 nodes: no feasible plan
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, spec); err == nil {
		t.Fatal("72B planned on 4 nodes")
	}
	if _, err := c.Plan(ctx, spec); err == nil {
		t.Fatal("cached failure lost")
	}
	if c.Searches() != 1 {
		t.Errorf("failed search ran %d times", c.Searches())
	}
}
