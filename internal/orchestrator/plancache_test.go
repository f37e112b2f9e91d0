package orchestrator

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"

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

// TestPlanCacheConcurrentCallersShareOnePlan pins the cache contract: K concurrent
// callers with one fingerprint run exactly one search and every caller
// gets the cache's one (correct) plan pointer, which runtimes key their
// resolved classes on. That the shared plan is never written is held
// by TestFleetResolvesEachClassOnce, which compares every plan cached
// over a fleet run with resizes to a fresh search.
func TestPlanCacheConcurrentCallersShareOnePlan(t *testing.T) {
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
		if plans[i] != plans[0] {
			t.Fatalf("callers 0 and %d got two plan pointers for one spec", i)
		}
	}
	if got := c.Searches(); got != 1 {
		t.Errorf("%d concurrent callers ran %d searches, want 1", k, got)
	}
	if c.Searches()+c.Hits() != k {
		t.Errorf("searches %d + hits %d != %d calls", c.Searches(), c.Hits(), k)
	}
	if len(c.entries) != 1 {
		t.Errorf("cache holds %d fingerprints, want 1", len(c.entries))
	}
	// A later hit returns the same pointer too.
	again, err := c.Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if again != plans[0] {
		t.Error("a later hit returned another plan pointer")
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

// TestPlanCacheLockContract pins what makes the cache safe without a
// singleflight: a Plan call holds the cache's lock from lookup to
// outcome. The search runs under it, and a caller of the same
// fingerprint that arrives mid-search waits on it instead of starting
// a search of its own, then hits.
func TestPlanCacheLockContract(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	var c *PlanCache
	var once sync.Once
	var second *Plan
	joined := make(chan struct{})
	c = NewPlanCache(SearchOptions{OnCandidate: func(Candidate, *Plan, error) {
		if c.mu.TryLock() {
			c.mu.Unlock()
			t.Error("search ran without the cache's lock")
		}
		once.Do(func() {
			go func() {
				defer close(joined)
				var err error
				if second, err = c.Plan(context.Background(), spec); err != nil {
					t.Error(err)
				}
			}()
		})
		select {
		case <-joined:
			t.Error("a caller of the fingerprint returned mid-search")
		default:
		}
	}})
	got, err := c.Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	<-joined
	if !reflect.DeepEqual(second, got) {
		t.Errorf("the waiting caller got a different plan:\ngot  %+v\nwant %+v", second, got)
	}
	if c.Searches() != 1 || c.Hits() != 1 {
		t.Errorf("%d searches, %d hits; want 1 and 1", c.Searches(), c.Hits())
	}
}

// TestPlanCacheConcurrentFingerprints: K callers for each of three
// fingerprints, all at once, run one search per fingerprint, and every
// caller gets the sequential reference plan. It does not skip under
// -short, so the race gate runs it.
func TestPlanCacheConcurrentFingerprints(t *testing.T) {
	base := cacheSpec(t, 4, 32)
	const k = 4
	var specs []Spec
	var want []*Plan
	for _, batch := range []int{32, 64, 96} {
		s := base
		s.GlobalBatch = batch
		p, err := planDistTrainSequential(s)
		if err != nil {
			t.Fatal(err)
		}
		specs, want = append(specs, s), append(want, p)
	}
	c := NewPlanCache(SearchOptions{})
	plans := make([]*Plan, len(specs)*k)
	errs := make([]error, len(plans))
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = c.Plan(context.Background(), specs[i%len(specs)])
		}(i)
	}
	wg.Wait()
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(plans[i], want[i%len(specs)]) {
			t.Errorf("caller %d: plan diverged from the sequential reference", i)
		}
	}
	if c.Searches() != 3 || c.Hits() != 3*k-3 || len(c.entries) != 3 {
		t.Errorf("%d searches, %d hits, %d entries; want 3, %d and 3", c.Searches(), c.Hits(), len(c.entries), 3*k-3)
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

// TestWarmPlanHitAllocBudget pins the restart path
// BenchmarkWarmPlanSearch/warm times: a fresh persistent cache over a
// populated store.Disk serves the spec with no search — a stat of the
// log, a copy out of its index and the decode. 52 were recorded while a
// hit also fingerprinted its ±1 neighbours for a seed it never used, 32
// while each entry was a file read and checked per hit, and 24 since
// the store indexes one log, in every one of 3×200 runs; the budget is
// 24: a warm hit falling back to a cold search costs hundreds more, and
// one allocation more per hit fails.
func TestWarmPlanHitAllocBudget(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	st, err := store.OpenDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	opts := SearchOptions{}
	if _, err := NewPersistentPlanCache(opts, st).Plan(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		c := NewPersistentPlanCache(opts, st)
		if _, err := c.Plan(ctx, s); err != nil {
			t.Fatal(err)
		}
		if c.Searches() != 0 || c.WarmHits() != 1 {
			t.Fatalf("warm hit ran %d searches, %d warm hits; want 0 and 1", c.Searches(), c.WarmHits())
		}
	}); got > 24 {
		t.Errorf("warm durable hit: %v allocs, recorded 24, budget 24", got)
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

	pruned := 0
	c := NewPersistentPlanCache(SearchOptions{OnCandidate: countPruned(&pruned)}, store.NewMem())
	if _, err := c.Plan(ctx, spec4); err != nil {
		t.Fatal(err)
	}
	pruned = 0
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
	if pruned == 0 {
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

// TestPersistentPlanCacheCorruptEntry: a torn store record is a
// counted miss — the cache re-searches, returns a correct plan, counts
// the torn record once its re-put follows it, and heals the entry for
// the next instance.
func TestPersistentPlanCacheCorruptEntry(t *testing.T) {
	dir := t.TempDir()
	spec := cacheSpec(t, 4, 32)
	ctx := context.Background()

	st, err := store.OpenDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	c1 := NewPersistentPlanCache(SearchOptions{}, st)
	want, err := c1.Plan(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "entries.log") // its one record tears in half
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

// TestSpecFieldSetPinned guards both cache keys' completeness: a new
// Spec field must be hashed by fingerprintSpec and keyed by planKey
// (with a row in TestPlanKeyMatchesFingerprint) before this list.
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
		t.Errorf("orchestrator.Spec fields changed:\ngot  %v\nwant %v\nhash the new field in fingerprintSpec and key it in planKey first", got, want)
	}
}

// TestPlanKeyMatchesFingerprint varies each Spec field in turn: two
// valid specs share an in-memory entry exactly when fingerprintSpec
// gives them the same durable key. A model is varied with its own
// profiler, since Plan rejects any other. The key stays at 128 bytes,
// the largest a map stores inline.
func TestPlanKeyMatchesFingerprint(t *testing.T) {
	if size := unsafe.Sizeof(planKey{}); size > 128 {
		t.Errorf("planKey is %d bytes: a map stores it out of line, one allocation per insert", size)
	}
	base := cacheSpec(t, 4, 32)
	with := func(f func(*Spec)) Spec {
		s := base
		f(&s)
		return s
	}
	m15 := newSpec(t, model.MLLM15B(), 4, 32, model.FullTraining)
	rows := []struct {
		field string
		spec  Spec
		same  bool
	}{
		{"none", base, true},
		{"Cluster.Nodes", with(func(s *Spec) { s.Cluster.Nodes = 5 }), false},
		{"Cluster.GPUsPerNode", with(func(s *Spec) { s.Cluster.GPUsPerNode = 4 }), false},
		{"Cluster.GPU.Name", with(func(s *Spec) { s.Cluster.GPU.Name += "'" }), false},
		{"Cluster.GPU.PeakFLOPS", with(func(s *Spec) { s.Cluster.GPU.PeakFLOPS *= 2 }), false},
		{"Cluster.GPU.MemoryBytes", with(func(s *Spec) { s.Cluster.GPU.MemoryBytes *= 2 }), false},
		{"Cluster.GPU.MemoryBWBytes", with(func(s *Spec) { s.Cluster.GPU.MemoryBWBytes *= 2 }), false},
		{"Cluster.NVLinkBps", with(func(s *Spec) { s.Cluster.NVLinkBps *= 2 }), false},
		{"Cluster.InterNodeBps", with(func(s *Spec) { s.Cluster.InterNodeBps *= 2 }), false},
		{"Cluster.RailOptimized", with(func(s *Spec) { s.Cluster.RailOptimized = !s.Cluster.RailOptimized }), false},
		{"Cluster.LinkLatency", with(func(s *Spec) { s.Cluster.LinkLatency *= 2 }), false},
		{"Model", with(func(s *Spec) { s.Model, s.Profiler = m15.Model, m15.Profiler }), false},
		{"GlobalBatch", with(func(s *Spec) { s.GlobalBatch = 64 }), false},
		{"Microbatch", with(func(s *Spec) { s.Microbatch = 2 }), false},
		{"Profiler", with(func(s *Spec) { s.Profiler = cacheSpec(t, 4, 32).Profiler }), true},
		{"Profiler.calibration", with(func(s *Spec) {
			s.Profiler = newSpec(t, model.MLLM9B(), 4, 32, model.FullTraining).Profiler // 300 samples, not 120
		}), false},
		{"Profiler.freeze", with(func(s *Spec) { s.Profiler = newSpec(t, model.MLLM9B(), 4, 32, freezeSetting("llm-only")).Profiler }), false},
		{"MaxGPUs", with(func(s *Spec) { s.MaxGPUs = 24 }), false},
		{"VPP", with(func(s *Spec) { s.VPP = 2 }), false},
		{"VPP.zero", with(func(s *Spec) { s.VPP = 0 }), false},
		{"Placement", with(func(s *Spec) { s.Placement = "3+1" }), false},
	}
	varied := make(map[string]bool)
	for _, tc := range rows {
		name, _, _ := strings.Cut(tc.field, ".")
		varied[name] = true
	}
	for i, rt := 0, reflect.TypeOf(Spec{}); i < rt.NumField(); i++ {
		if !varied[rt.Field(i).Name] {
			t.Errorf("no row varies Spec.%s", rt.Field(i).Name)
		}
	}
	for _, tc := range rows {
		if err := tc.spec.Validate(); err != nil {
			t.Fatalf("%s: %v", tc.field, err)
		}
		c := NewPlanCache(SearchOptions{})
		sameKey := c.key(&base) == c.key(&tc.spec)
		sameName := fingerprintSpec(base) == fingerprintSpec(tc.spec)
		if sameKey != sameName || sameKey != tc.same {
			t.Errorf("%s: same in-memory key %v, same fingerprint %v, want both %v", tc.field, sameKey, sameName, tc.same)
		}
	}
}

// TestPlanFingerprintGolden pins the durable key bytes of one
// calibrated spec, recorded before the in-memory table stopped using
// them: a moved fingerprint orphans every existing -plan-cache-dir.
func TestPlanFingerprintGolden(t *testing.T) {
	s := cacheSpec(t, 4, 32)
	if got, want := fingerprintSpec(s), "2d4759d4ff7310c52630469851f8af3f8398944485214f975b31f8827da38297"; got != want {
		t.Errorf("fingerprintSpec moved:\ngot  %s\nwant %s", got, want)
	}
	s.Placement, s.VPP, s.MaxGPUs = "3+1", 2, 24
	if got, want := fingerprintSpec(s), "d0d4759afd198d6f25a6e41368b6ba24dfa17247d2ee9fd91afeba85181e18d2"; got != want {
		t.Errorf("placed fingerprintSpec moved:\ngot  %s\nwant %s", got, want)
	}
}

// TestPlanRejectsForeignModel: a spec whose Model is not its
// profiler's never reaches the table — on a cold cache, and on one
// already holding the matched spec's plan for the same lease, which its
// key would otherwise hit. Neither counts a search or a hit.
func TestPlanRejectsForeignModel(t *testing.T) {
	matched := cacheSpec(t, 4, 32)
	foreign := matched
	foreign.Model = model.MLLM72B()
	const want = "is not the model the profiler times"
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, foreign); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("cold cache: got %v, want the model mismatch", err)
	}
	if c.Searches() != 0 || c.Hits() != 0 || len(c.entries) != 0 {
		t.Errorf("cold rejection: %d searches, %d hits, %d entries; want none", c.Searches(), c.Hits(), len(c.entries))
	}
	if _, err := c.Plan(ctx, matched); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Plan(ctx, foreign); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("warm cache: got %v, want the model mismatch", err)
	}
	if c.Searches() != 1 || c.Hits() != 0 || len(c.entries) != 1 {
		t.Errorf("warm rejection: %d searches, %d hits, %d entries; want 1, 0, 1", c.Searches(), c.Hits(), len(c.entries))
	}
}

// TestMemPlanHitAllocBudget pins BenchmarkWarmPlanSearch/hit, the
// admission path of every tenant after a template's first: an in-memory
// hit validates the spec, looks up its content key and returns the
// cached plan, allocating nothing (1, the returned plan copy, before
// hits handed out the cache's one pointer).
func TestMemPlanHitAllocBudget(t *testing.T) {
	s := newSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, s); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if _, err := c.Plan(ctx, s); err != nil {
			t.Fatal(err)
		}
	}); got > 0 {
		t.Errorf("in-memory hit: %v allocs, recorded 0, budget 0", got)
	}
	if c.Searches() != 1 {
		t.Errorf("hits ran %d searches, want the first call's 1", c.Searches())
	}
}

// TestPlanCacheCachesErrors: an unplannable spec fails once and the
// failure is reused — retrying cannot make a cluster bigger.
func TestPlanCacheCachesErrors(t *testing.T) {
	spec := newSpec(t, model.MLLM72B(), 4, 32, model.FullTraining) // 72B on 4 nodes: no feasible plan
	c := NewPlanCache(SearchOptions{})
	ctx := context.Background()
	if _, err := c.Plan(ctx, spec); !errors.Is(err, errNoFeasiblePlan) {
		t.Fatalf("72B on 4 nodes: got %v, want %v", err, errNoFeasiblePlan)
	}
	if _, err := c.Plan(ctx, spec); !errors.Is(err, errNoFeasiblePlan) {
		t.Fatalf("cached failure lost: %v", err)
	}
	if c.Searches() != 1 || c.Hits() != 1 {
		t.Errorf("failed spec: %d searches, %d hits; want 1 and 1", c.Searches(), c.Hits())
	}
}

// planAll calls c.Plan for s from k goroutines at once and returns
// every caller's plan and error.
func planAll(c *PlanCache, s Spec, k int) ([]*Plan, []error) {
	plans := make([]*Plan, k)
	errs := make([]error, k)
	var wg sync.WaitGroup
	for i := range plans {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			plans[i], errs[i] = c.Plan(context.Background(), s)
		}(i)
	}
	wg.Wait()
	return plans, errs
}

// TestPlanCacheConcurrentCallersCountHits: K requests for one
// fingerprint, each from its own goroutine, run exactly one search —
// the first takes the entry, the other K-1 count as hits — and every
// caller gets the plan a serial search finds. Once settled, a further
// request is one plain hit.
func TestPlanCacheConcurrentCallersCountHits(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	want, err := NewPlanCache(SearchOptions{}).Plan(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	c := NewPlanCache(SearchOptions{})
	const k = 4
	plans, errs := planAll(c, spec, k)
	for i := range plans {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(plans[i], want) {
			t.Errorf("caller %d: plan diverged from the serial reference", i)
		}
	}
	if c.Searches() != 1 || c.Hits() != k-1 {
		t.Errorf("%d searches, %d hits; want 1 and %d", c.Searches(), c.Hits(), k-1)
	}
	if _, err := c.Plan(context.Background(), spec); err != nil || c.Hits() != k {
		t.Errorf("request after settling: err %v, %d hits; want one more hit (%d)", err, c.Hits(), k)
	}
}

// TestPlanCacheSharesCachedFailure: when the one search of a
// fingerprint fails, every concurrent caller sees its one cached
// error, a later caller reuses it, and the failure poisons no other
// fingerprint.
func TestPlanCacheSharesCachedFailure(t *testing.T) {
	good := cacheSpec(t, 4, 32)
	bad := newSpec(t, model.MLLM72B(), 4, 32, model.FullTraining) // cannot fit a 4-node lease
	c := NewPlanCache(SearchOptions{})
	const k = 3
	_, errs := planAll(c, bad, k)
	for i, err := range errs {
		if !errors.Is(err, errNoFeasiblePlan) {
			t.Fatalf("caller %d: got %v, want %v", i, err, errNoFeasiblePlan)
		}
		if err != errs[0] {
			t.Errorf("caller %d saw a different error: %v vs %v", i, err, errs[0])
		}
	}
	if _, err := c.Plan(context.Background(), bad); err != errs[0] {
		t.Fatalf("cached failure lost: %v", err)
	}
	if c.Searches() != 1 || c.Hits() != k {
		t.Errorf("failed spec: %d searches, %d hits; want 1 and %d", c.Searches(), c.Hits(), k)
	}
	if _, err := c.Plan(context.Background(), good); err != nil {
		t.Errorf("feasible spec after a failed herd: %v", err)
	}
}

// TestPlanCacheCancelledNotCached: a Plan under a cancelled context
// returns the cancellation, but the outcome must not stay in the cache
// — a later caller with a healthy context claims a fresh entry and
// plans instead of inheriting the poisoned one.
func TestPlanCacheCancelledNotCached(t *testing.T) {
	spec := cacheSpec(t, 4, 32)
	c := NewPlanCache(SearchOptions{})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Plan(cancelled, spec); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Plan: got %v, want context.Canceled", err)
	}
	if len(c.entries) != 0 {
		t.Errorf("cancelled search left %d cache entries", len(c.entries))
	}
	plan, err := c.Plan(context.Background(), spec)
	if err != nil || plan == nil {
		t.Fatalf("Plan after a cancelled one: plan %v, err %v", plan, err)
	}
	if c.Searches() != 2 || c.Hits() != 0 {
		t.Errorf("%d searches, %d hits; want 2 (one cancelled, one real) and 0", c.Searches(), c.Hits())
	}
}

// TestPlanCacheDoorsCountAlike: a request sequence — cold sizes,
// warm-seeded neighbours, a repeat — then a restart over the same
// store leaves exact search, warm-seed, warm-hit and prune counts (the
// last as the cache's observer counts them), and
// the restart serves the same plans. The counts and plans are the same
// whether each request comes from one caller or from a herd of
// concurrent callers: only the hit count depends on how many ask. A
// durable hit starts no search and therefore counts no warm seed, even
// though its neighbours are right there in the store.
func TestPlanCacheDoorsCountAlike(t *testing.T) {
	base := cacheSpec(t, 4, 32)
	var seq []Spec
	for _, nodes := range []int{4, 5, 3, 5, 8} {
		s := base
		s.Cluster.Nodes = nodes
		seq = append(seq, s)
	}
	type counts struct{ searches, warmSeeds, pruned, warmHits int64 }
	var want [2]counts
	var wantPlans []*Plan
	for _, door := range []struct {
		name    string
		callers int
	}{{"sync", 1}, {"herd", 3}} {
		t.Run(door.name, func(t *testing.T) {
			st := store.NewMem()
			for phase := range want { // cold store, then a restart over it
				pruned := 0
				c := NewPersistentPlanCache(SearchOptions{OnCandidate: countPruned(&pruned)}, st)
				var plans []*Plan
				for _, s := range seq {
					got, errs := planAll(c, s, door.callers)
					for i := range got {
						if errs[i] != nil {
							t.Fatal(errs[i])
						}
						if !reflect.DeepEqual(got[i], got[0]) {
							t.Fatalf("phase %d: callers of one spec got different plans", phase)
						}
					}
					plans = append(plans, got[0])
				}
				if wantPlans == nil {
					wantPlans = plans
				} else if !reflect.DeepEqual(plans, wantPlans) {
					t.Errorf("phase %d: plans diverged from the first phase's", phase)
				}
				got := counts{c.Searches(), c.WarmSeeds(), int64(pruned), c.WarmHits()}
				if want[phase] == (counts{}) {
					want[phase] = got
				} else if got != want[phase] {
					t.Errorf("phase %d: counts %+v, sync door had %+v", phase, got, want[phase])
				}
			}
		})
	}
	if want[0].searches != 4 || want[0].warmSeeds != 2 || want[0].pruned == 0 || want[0].warmHits != 0 {
		t.Errorf("cold phase counts %+v, want 4 searches, 2 warm seeds, pruning, no warm hits", want[0])
	}
	if want[1] != (counts{warmHits: 4}) {
		t.Errorf("restart phase counts %+v, want 4 warm hits and nothing else", want[1])
	}
}
