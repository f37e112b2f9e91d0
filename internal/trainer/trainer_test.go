package trainer

import (
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
)

// buildSpec wires a calibrated orchestration spec for tests at the
// §7.2 ablation scale (96 GPUs).
func buildSpec(t testing.TB, m model.MLLM, nodes, bs int, freeze model.FreezeSpec) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.Freeze = freeze
	p, err := profiler.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, 200); err != nil {
		t.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, corpus
}

func runStrategy(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus,
	plan *orchestrator.Plan, mk func(orchestrator.Spec, *orchestrator.Plan, *data.Corpus) Config, iters int) *Result {
	t.Helper()
	rt, err := New(mk(spec, plan, corpus))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	res, err := rt.Run(iters)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestConfigValidate(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 2, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	good := DistTrainConfig(spec, plan, corpus)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := good
	bad.Plan = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil plan accepted")
	}
	bad = good
	bad.Corpus = nil
	if err := bad.Validate(); err == nil {
		t.Error("nil corpus accepted")
	}
	bad = good
	bad.GradientDim = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative gradient dimension accepted")
	}
	if _, err := New(bad); err == nil {
		t.Error("New accepted invalid config")
	}
	bad = good
	bad.Spec.Model = model.MLLM72B() // not the model the spec's profiler times
	if _, err := New(bad); err == nil {
		t.Error("New accepted a spec whose model differs from its profiler's")
	}
}

func TestRunProducesPlausibleStats(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	res := runStrategy(t, spec, corpus, plan, DistTrainConfig, 3)
	if len(res.Iterations) != 3 {
		t.Fatalf("iterations = %d", len(res.Iterations))
	}
	if res.MFU <= 0.2 || res.MFU >= 0.75 {
		t.Errorf("MFU = %.1f%%, implausible", 100*res.MFU)
	}
	if res.MeanIterTime <= 0 {
		t.Error("non-positive iteration time")
	}
	if res.TokensPerSec <= 0 {
		t.Error("non-positive throughput")
	}
	for _, it := range res.Iterations {
		if it.Breakdown.Pipeline <= 0 {
			t.Error("pipeline time missing")
		}
		if it.Breakdown.Pipeline < it.Breakdown.GradSync {
			t.Error("gradient sync should not dominate the pipeline")
		}
		if it.StragglerSpread < 0 || it.StragglerSpread > 1 {
			t.Errorf("straggler spread %g outside [0,1]", it.StragglerSpread)
		}
	}
}

// The end-to-end Figure 13/14 mechanism at ablation scale: DistTrain
// beats the Megatron-LM baseline on both MFU and throughput.
func TestDistTrainBeatsMegatronEndToEnd(t *testing.T) {
	for _, m := range []model.MLLM{model.MLLM9B(), model.MLLM15B()} {
		spec, corpus := buildSpec(t, m, 12, 64, model.FullTraining)
		dtPlan, err := orchestrator.PlanDistTrain(spec)
		if err != nil {
			t.Fatal(err)
		}
		mgPlan, err := orchestrator.PlanMegatron(spec)
		if err != nil {
			t.Fatal(err)
		}
		dt := runStrategy(t, spec, corpus, dtPlan, DistTrainConfig, 2)
		mg := runStrategy(t, spec, corpus, mgPlan, MegatronConfig, 2)
		if dt.MFU <= mg.MFU {
			t.Errorf("%s: DistTrain MFU %.1f%% <= Megatron %.1f%%", m.Name, 100*dt.MFU, 100*mg.MFU)
		}
		if dt.TokensPerSec <= mg.TokensPerSec {
			t.Errorf("%s: DistTrain throughput %.0f <= Megatron %.0f", m.Name, dt.TokensPerSec, mg.TokensPerSec)
		}
	}
}

// Figure 16's mechanism: with identical plans, reordering alone
// improves (or at worst matches) iteration time.
func TestReorderingAblation(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	with := DistTrainConfig(spec, plan, corpus)
	without := with
	without.Reorder = false
	a := runStrategy(t, spec, corpus, plan, func(s orchestrator.Spec, p *orchestrator.Plan, c *data.Corpus) Config { return with }, 4)
	b := runStrategy(t, spec, corpus, plan, func(s orchestrator.Spec, p *orchestrator.Plan, c *data.Corpus) Config { return without }, 4)
	if a.MeanIterTime > b.MeanIterTime*1.01 {
		t.Errorf("reordering regressed iteration time: %.4fs vs %.4fs", a.MeanIterTime, b.MeanIterTime)
	}
	// Reordering must reduce the intra-microbatch straggler spread.
	spreadWith, spreadWithout := 0.0, 0.0
	for i := range a.Iterations {
		spreadWith += a.Iterations[i].StragglerSpread
		spreadWithout += b.Iterations[i].StragglerSpread
	}
	if spreadWith >= spreadWithout {
		t.Errorf("reordering did not shrink straggler spread: %.4f vs %.4f", spreadWith, spreadWithout)
	}
}

// Figure 17's mechanism: disaggregated preprocessing turns seconds of
// stall into milliseconds.
func TestPreprocessingDisaggregation(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 12, 96, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	disagg := DistTrainConfig(spec, plan, corpus)
	coloc := disagg
	coloc.DisaggregatedPreprocess = false
	a := runStrategy(t, spec, corpus, plan, func(orchestrator.Spec, *orchestrator.Plan, *data.Corpus) Config { return disagg }, 2)
	b := runStrategy(t, spec, corpus, plan, func(orchestrator.Spec, *orchestrator.Plan, *data.Corpus) Config { return coloc }, 2)
	stallA := a.Iterations[0].Breakdown.PreprocessStall
	stallB := b.Iterations[0].Breakdown.PreprocessStall
	if stallA >= 0.1 {
		t.Errorf("disaggregated stall %.3fs should be milliseconds", stallA)
	}
	if stallB <= 10*stallA {
		t.Errorf("co-located stall %.3fs should dwarf disaggregated %.3fs", stallB, stallA)
	}
}

func TestFrozenTrainingReducesTimeAndFLOPs(t *testing.T) {
	m := model.MLLM9B()
	fullSpec, corpus := buildSpec(t, m, 12, 64, model.FullTraining)
	frozenSpec, _ := buildSpec(t, m, 12, 64, model.AllFrozen)

	fullPlan, err := orchestrator.PlanDistTrain(fullSpec)
	if err != nil {
		t.Fatal(err)
	}
	frozenPlan, err := orchestrator.PlanDistTrain(frozenSpec)
	if err != nil {
		t.Fatal(err)
	}
	full := runStrategy(t, fullSpec, corpus, fullPlan, DistTrainConfig, 2)
	frozen := runStrategy(t, frozenSpec, corpus, frozenPlan, DistTrainConfig, 2)
	if frozen.MeanIterTime >= full.MeanIterTime {
		t.Errorf("all-frozen iteration %.3fs should beat full training %.3fs",
			frozen.MeanIterTime, full.MeanIterTime)
	}
	if frozen.Iterations[0].FLOPs >= full.Iterations[0].FLOPs {
		t.Error("freezing must reduce executed FLOPs")
	}
	// Frozen modules neither sync gradients nor step the optimizer.
	if frozen.Iterations[0].Breakdown.GradSync > full.Iterations[0].Breakdown.GradSync {
		t.Error("frozen run should not sync more gradients")
	}
}

func TestCheckpointingSavesAsynchronously(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	cfg.CheckpointEvery = 2
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run(5)
	rt.Close()
	if err != nil {
		t.Fatal(err)
	}
	if res.CheckpointsSaved == 0 {
		t.Error("no checkpoints saved")
	}
	// Recovery: the latest checkpoint must be loadable.
	mgr := rt.ckpt
	if mgr == nil {
		t.Fatal("no checkpoint manager")
	}
	ck, _, err := mgr.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if ck.Step != 4 {
		t.Errorf("latest checkpoint step = %d, want 4", ck.Step)
	}
}

// Convergence semantics (§5): reordering permutes gradient
// accumulation only — the accumulated gradient must match bit-for-bit.
func TestReorderingPreservesGradients(t *testing.T) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	batch := corpus.GlobalBatch(0, 64)
	acc := gradientAccumulator{Dim: 16}

	base := acc.AccumulateInt(batch)

	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 20; trial++ {
		perm := append([]data.Sample(nil), batch...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })

		if !slices.Equal(acc.AccumulateInt(perm), base) {
			t.Fatal("integer gradient accumulation is order-dependent")
		}
	}
}

// iterationFLOPs prices a batch the way an iteration does — fold every
// sample once, sum in batch order — so the unmodified pricing oracle
// (TestRuntimePricingMatchesReference) exercises the production path.
func (r *Runtime) iterationFLOPs(batch []data.Sample) float64 {
	return r.batchFLOPs(fold(nil, batch, r.cfg.Spec.Profiler.Kernel()))
}

// TestMicrobatchWorkloadAddMatchesFold pins what lets runRank add M
// per-sample workloads instead of re-walking the samples: on real
// batches the sum equals folding the microbatch image by image, bit for
// bit (DeepEqual compares the unexported float exactly).
func TestMicrobatchWorkloadAddMatchesFold(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 2, 48, model.FullTraining)
	k := spec.Profiler.Kernel()
	for iter := int64(0); iter < 8; iter++ {
		batch := corpus.GlobalBatch(iter, 48)
		work := fold(nil, batch, k)
		for _, m := range []int{2, 3, 8} {
			for j := 0; j+m <= len(batch); j += m {
				var want model.Workload
				for _, s := range batch[j : j+m] {
					s.AddTo(&want, k)
				}
				got := work[j]
				for _, o := range work[j+1 : j+m] {
					got.Add(o)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("iter %d M=%d microbatch at %d: added %+v, folded %+v", iter, m, j, got, want)
				}
			}
		}
	}
}

// rebalance moves surplus samples (smallest first, so balance damage is
// minimal) from overfull groups to underfull ones. The multiset of
// samples is preserved: only ownership moves. This sort-based form is
// the pinned reference, kept with the tests that pin it; the hot path
// runs the sort-free reorder.(*Partitioner).Rebalance, which the
// reorder tests hold byte-identical to the same rule.
func rebalance(groups [][]data.Sample, perRank int, size func(data.Sample) float64) [][]data.Sample {
	var surplus []data.Sample
	for d := range groups {
		if len(groups[d]) > perRank {
			surplus = append(surplus, groups[d][perRank:]...)
			groups[d] = groups[d][:perRank]
		}
	}
	// Smallest first; stable so ties keep the deterministic group
	// emission order.
	sort.SliceStable(surplus, func(a, b int) bool {
		return size(surplus[a]) < size(surplus[b])
	})
	for d := range groups {
		for len(groups[d]) < perRank && len(surplus) > 0 {
			groups[d] = append(groups[d], surplus[0])
			surplus = surplus[1:]
		}
	}
	return groups
}

func TestRebalanceKeepsCounts(t *testing.T) {
	corpus, _ := data.NewCorpus(data.LAION400M())
	batch := corpus.GlobalBatch(0, 12)
	groups := [][]data.Sample{
		append([]data.Sample(nil), batch[:6]...),
		append([]data.Sample(nil), batch[6:8]...),
		append([]data.Sample(nil), batch[8:12]...),
	}
	size := func(s data.Sample) float64 { return float64(s.TotalImageTokens()) }
	out := rebalance(groups, 4, size)
	total := 0
	for d, g := range out {
		if len(g) != 4 {
			t.Errorf("group %d has %d samples, want 4", d, len(g))
		}
		total += len(g)
	}
	if total != 12 {
		t.Errorf("samples lost: %d", total)
	}
}

// TestRebalanceMovesSmallestFirstAndPreservesMultiset pins the
// documented contract: surplus moves smallest-cost first, and the
// multiset of samples is exactly preserved — rebalance only changes
// ownership, never content.
func TestRebalanceMovesSmallestFirstAndPreservesMultiset(t *testing.T) {
	corpus, _ := data.NewCorpus(data.LAION400M())
	batch := corpus.GlobalBatch(1, 12)
	size := func(s data.Sample) float64 { return float64(s.TotalImageTokens()) }

	count := func(groups [][]data.Sample) map[int64]int {
		m := map[int64]int{}
		for _, g := range groups {
			for _, s := range g {
				m[s.Index]++
			}
		}
		return m
	}

	groups := [][]data.Sample{
		append([]data.Sample(nil), batch[:7]...), // 3 surplus
		append([]data.Sample(nil), batch[7:9]...),
		append([]data.Sample(nil), batch[9:12]...),
	}
	before := count(groups)

	// The three surplus samples, cheapest first — the order they must
	// move in.
	surplus := append([]data.Sample(nil), batch[4:7]...)
	sort.SliceStable(surplus, func(a, b int) bool { return size(surplus[a]) < size(surplus[b]) })

	out := rebalance(groups, 4, size)
	if got := count(out); !reflect.DeepEqual(got, before) {
		t.Errorf("rebalance changed the sample multiset:\nbefore %v\nafter  %v", before, got)
	}
	// Group 1 was 2 under quota: it must have received the two
	// smallest surplus samples, in ascending cost order.
	g1 := out[1]
	if len(g1) != 4 {
		t.Fatalf("group 1 has %d samples, want 4", len(g1))
	}
	if g1[2].Index != surplus[0].Index || g1[3].Index != surplus[1].Index {
		t.Errorf("group 1 received %d,%d, want smallest-first %d,%d",
			g1[2].Index, g1[3].Index, surplus[0].Index, surplus[1].Index)
	}
	// Group 2 was 1 under quota: it gets the remaining (largest)
	// surplus sample.
	if out[2][3].Index != surplus[2].Index {
		t.Errorf("group 2 received %d, want %d", out[2][3].Index, surplus[2].Index)
	}
}
