package trainer

import (
	"reflect"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/metrics"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
)

// poolHarness wires a training spec to an in-process producer fleet
// behind a one-tenant preprocessing service:
// a shrunken (but LAION-shaped) corpus keeps the real pixel pipeline
// fast enough for the test cadence.
type poolHarness struct {
	spec   orchestrator.Spec
	plan   *orchestrator.Plan
	corpus *data.Corpus
	pcfg   preprocess.Config
}

func newPoolHarness(t *testing.T) *poolHarness {
	t.Helper()
	spec, _ := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	shrink := data.LAION400M()
	shrink.SeqLen = 1024
	shrink.MaxResolution = 128
	shrink.ResMedian = 80
	corpus, err := data.NewCorpus(shrink)
	if err != nil {
		t.Fatal(err)
	}
	dp := plan.Modules[model.Backbone].Config.DP
	return &poolHarness{
		spec: spec, plan: plan, corpus: corpus,
		pcfg: preprocess.Config{
			Source:      corpus,
			GlobalBatch: spec.GlobalBatch,
			DPSize:      dp,
			Microbatch:  spec.Microbatch,
			Workers:     8,
			Readahead:   1,
		},
	}
}

// tenant registers the trainer as the only tenant of a fresh service
// over the fleet.
func (h *poolHarness) tenant(t *testing.T, fleet *preprocess.Fleet, cfg preprocess.ServiceConfig) *preprocess.Tenant {
	t.Helper()
	cfg.Addrs = fleet.Addrs()
	svc, err := preprocess.NewService(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	tenant, err := svc.Register(preprocess.TenantConfig{Name: "only", DP: h.pcfg.DPSize})
	if err != nil {
		t.Fatal(err)
	}
	return tenant
}

// run trains iters iterations against a fresh fleet of n producers,
// optionally under a scenario wired to kill/restore fleet members.
func (h *poolHarness) run(t *testing.T, producers, iters int, scenSpec string) (*Result, metrics.PoolSnapshot) {
	t.Helper()
	fleet, err := preprocess.StartFleet(h.pcfg, producers)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	stats := &metrics.PoolStats{}
	tenant := h.tenant(t, fleet, preprocess.ServiceConfig{Stats: stats})

	cfg := DistTrainConfig(h.spec, h.plan, h.corpus)
	cfg.Source = &PoolSource{Pool: tenant, Samples: h.corpus}
	if scenSpec != "" {
		sc, err := scenario.Parse(scenSpec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = sc
		cfg.ProducerControl = fleet
	}
	res, err := Run(cfg, iters)
	if err != nil {
		t.Fatal(err)
	}
	return res, stats.Snapshot()
}

// The acceptance pin for elastic preprocessing: the concurrent trainer
// runs on a tenant handle over 3 producers, one producer is killed
// mid-run by a scenario event and later rejoins, and the results are
// identical to the single-producer reference — elasticity changes who
// serves, never what trains. The tenant metrics must show the churn as
// failovers, and nothing else: same fetch count, no rejections.
func TestRunWithProducerPoolSurvivesChurn(t *testing.T) {
	h := newPoolHarness(t)
	const iters = 6

	ref, refSnap := h.run(t, 1, iters, "")
	if refSnap.Failovers != 0 || refSnap.Rejections != 0 {
		t.Fatalf("healthy reference run recorded failovers=%d rejections=%d",
			refSnap.Failovers, refSnap.Rejections)
	}
	if want := int64(iters * h.pcfg.DPSize); refSnap.Fetches != want {
		t.Fatalf("reference run fetched %d rank batches, want %d (iterations x DP)", refSnap.Fetches, want)
	}

	res, snap := h.run(t, 3, iters,
		"producer-fail:iter=2,producer=1; producer-join:iter=4,producer=1")

	if len(res.Iterations) != iters {
		t.Fatalf("iterations = %d, want %d", len(res.Iterations), iters)
	}
	if !reflect.DeepEqual(res.Iterations, ref.Iterations) {
		t.Errorf("3-producer run diverged from single-producer reference:\n got %+v\nwant %+v",
			res.Iterations, ref.Iterations)
	}
	if res.MFU != ref.MFU || res.TokensPerSec != ref.TokensPerSec {
		t.Errorf("aggregates diverged: MFU %g vs %g, tok/s %g vs %g",
			res.MFU, ref.MFU, res.TokensPerSec, ref.TokensPerSec)
	}
	if snap.Failovers < 1 {
		t.Errorf("producer churn recorded %d failovers, want >= 1", snap.Failovers)
	}
	if snap.Fetches != refSnap.Fetches || snap.Rejections != 0 || snap.MeanFetchSeconds < 0 {
		t.Errorf("implausible pool metrics: %+v (reference fetched %d)", snap, refSnap.Fetches)
	}
	// No iteration is cost-perturbed: pool membership is not a cost
	// event.
	for _, it := range res.Iterations {
		if it.Perturbed {
			t.Errorf("iteration %d marked perturbed by pool churn", it.Index)
		}
	}
}

// With reordering off on both sides, the producer's block assignment
// is exactly the synthetic front-end's: the pool-backed runtime and
// the corpus-backed runtime must produce byte-identical results — the
// BatchSource seam is behaviour-preserving.
func TestPoolSourceMatchesSyntheticFrontEnd(t *testing.T) {
	h := newPoolHarness(t)
	h.pcfg.Reorder = false
	const iters = 3

	fleet, err := preprocess.StartFleet(h.pcfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	tenant := h.tenant(t, fleet, preprocess.ServiceConfig{})

	base := DistTrainConfig(h.spec, h.plan, h.corpus)
	base.Reorder = false

	pooled := base
	pooled.Source = &PoolSource{Pool: tenant, Samples: h.corpus}

	runCfg := func(cfg Config) *Result {
		res, err := Run(cfg, iters)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := runCfg(base), runCfg(pooled)
	if !reflect.DeepEqual(a.Iterations, b.Iterations) {
		t.Errorf("pool-backed front-end diverged from synthetic:\n got %+v\nwant %+v",
			b.Iterations, a.Iterations)
	}
}

// TestPreprocessConfigFor pins the producer configuration a training
// configuration derives: its corpus and batch geometry, the backbone's
// DP width, and the backbone's PP stages plus the encoder and generator
// stages Algorithm 2 fills; an unplanned configuration is refused.
func TestPreprocessConfigFor(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	pcfg, err := PreprocessConfigFor(DistTrainConfig(spec, plan, corpus))
	if err != nil {
		t.Fatal(err)
	}
	lm := plan.Modules[model.Backbone].Config
	if pcfg.DPSize != lm.DP || pcfg.PipelineStages != lm.PP+2 {
		t.Errorf("DPSize %d, PipelineStages %d; plan has DP %d, PP %d", pcfg.DPSize, pcfg.PipelineStages, lm.DP, lm.PP)
	}
	if pcfg.Source != preprocess.Source(corpus) || pcfg.GlobalBatch != spec.GlobalBatch || pcfg.Microbatch != spec.Microbatch || !pcfg.Reorder {
		t.Errorf("producer config %+v does not follow the training config", pcfg)
	}
	if err := pcfg.Validate(); err != nil {
		t.Error(err)
	}
	if _, err := PreprocessConfigFor(DistTrainConfig(spec, nil, corpus)); err == nil {
		t.Error("unplanned config accepted")
	}
}
