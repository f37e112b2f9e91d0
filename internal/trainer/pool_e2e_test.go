package trainer

import (
	"bytes"
	"encoding/json"
	"fmt"
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
// over the fleet, so its counters are the service's.
func (h *poolHarness) tenant(t *testing.T, fleet *preprocess.Fleet) *preprocess.Tenant {
	t.Helper()
	svc, err := preprocess.NewService(preprocess.ServiceConfig{Addrs: fleet.Addrs()})
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
	tenant := h.tenant(t, fleet)

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
	return res, tenant.Snapshot()
}

// The acceptance pin for elastic preprocessing: the concurrent trainer
// runs on a tenant handle over 3 producers, one producer is killed
// mid-run by a scenario event and later rejoins, and the results are
// identical to the single-producer reference — elasticity changes who
// serves, never what trains. The tenant metrics must show the churn as
// failovers, and nothing else: same fetch count.
func TestRunWithProducerPoolSurvivesChurn(t *testing.T) {
	h := newPoolHarness(t)
	const iters = 6

	ref, refSnap := h.run(t, 1, iters, "")
	if refSnap.Failovers != 0 {
		t.Fatalf("healthy reference run recorded %d failovers", refSnap.Failovers)
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
	if snap.Fetches != refSnap.Fetches || snap.MeanFetchSeconds < 0 {
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

// observer is a Controller that only records what it observes.
type observer struct{ obs []Observation }

func (o *observer) Observe(ob Observation)  { o.obs = append(o.obs, ob) }
func (o *observer) Pending(int) *PlanSwitch { return nil }

// TestPoolEventsFireAtTheirIteration pins when a pool event acts: a
// producer killed at iteration N is recorded at iteration N's start —
// the timestamp of N's data-arrival span — and the pool counters a
// controller observes after each iteration hold exactly that
// iteration's fetches and everything before: none of iteration N's
// fetches fails over before N runs, and every one of them fails over
// during N, because the killed producer is N's primary.
func TestPoolEventsFireAtTheirIteration(t *testing.T) {
	h := newPoolHarness(t)
	const producers, n, iters = 2, 2, 4
	fleet, err := preprocess.StartFleet(h.pcfg, producers)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	tenant := h.tenant(t, fleet)
	dp := h.pcfg.DPSize
	primary := (n + dp*7919) % producers // every rank of (n, dp) asks it first
	sc, err := scenario.Parse(fmt.Sprintf("producer-fail:iter=%d,producer=%d", n, primary))
	if err != nil {
		t.Fatal(err)
	}
	obs := &observer{}
	cfg := DistTrainConfig(h.spec, h.plan, h.corpus)
	cfg.Source = &PoolSource{Pool: tenant, Samples: h.corpus}
	cfg.Scenario, cfg.ProducerControl = sc, fleet
	cfg.Controller = obs
	cfg.Trace = metrics.NewTrace()
	if _, err := Run(cfg, iters); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := cfg.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var file struct {
		TraceEvents []struct {
			Name string
			Ts   float64
		}
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatal(err)
	}
	var arrivals, fails []float64
	for _, ev := range file.TraceEvents {
		switch ev.Name {
		case "preprocess":
			arrivals = append(arrivals, ev.Ts)
		case "producer-fail":
			fails = append(fails, ev.Ts)
		}
	}
	if len(arrivals) != iters || len(fails) != 1 {
		t.Fatalf("trace holds %d data-arrival spans and %d producer-fail instants, want %d and 1", len(arrivals), len(fails), iters)
	}
	if fails[0] != arrivals[n] {
		t.Errorf("producer-fail at iteration %d recorded at %gµs, iteration %d starts at %gµs", n, fails[0], n, arrivals[n])
	}

	if len(obs.obs) != iters {
		t.Fatalf("controller observed %d iterations, want %d", len(obs.obs), iters)
	}
	for i, ob := range obs.obs {
		if ob.Pool == nil {
			t.Fatalf("iteration %d observed no pool counters", i)
		}
		wantFailovers := int64(0)
		if i >= n {
			wantFailovers = int64(dp)
		}
		if ob.Pool.Fetches != int64((i+1)*dp) || ob.Pool.Failovers != wantFailovers {
			t.Errorf("after iteration %d: %d fetches and %d failovers, want %d and %d",
				i, ob.Pool.Fetches, ob.Pool.Failovers, (i+1)*dp, wantFailovers)
		}
	}
}

// Producers built from PreprocessConfigFor assign each iteration as
// the trainer assigns a corpus batch — contiguous blocks with
// reordering off, Algorithm 1 over the profiler's sample cost with it
// on — and the trainer runs Algorithm 2 on either: the pool-backed
// runtime and the corpus-backed runtime must produce byte-identical
// results, so the BatchSource seam is behaviour-preserving.
func TestPoolSourceMatchesSyntheticFrontEnd(t *testing.T) {
	h := newPoolHarness(t)
	const iters = 3
	for _, reorderOn := range []bool{false, true} {
		t.Run(fmt.Sprintf("reorder=%v", reorderOn), func(t *testing.T) {
			base := DistTrainConfig(h.spec, h.plan, h.corpus)
			base.Reorder = reorderOn
			pcfg, err := PreprocessConfigFor(base)
			if err != nil {
				t.Fatal(err)
			}
			fleet, err := preprocess.StartFleet(pcfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			tenant := h.tenant(t, fleet)

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
		})
	}
}

// TestPreprocessConfigFor pins the producer configuration a training
// configuration derives: its corpus and batch geometry, the backbone's
// DP width, and a Cost that prices every sample as the trainer's
// Algorithm 1 does with reordering on and is nil with it off; an
// unplanned configuration is refused.
func TestPreprocessConfigFor(t *testing.T) {
	spec, corpus := buildSpec(t, model.MLLM9B(), 4, 16, model.FullTraining)
	plan, err := orchestrator.PlanDistTrain(spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DistTrainConfig(spec, plan, corpus)
	pcfg, err := PreprocessConfigFor(cfg)
	if err != nil {
		t.Fatal(err)
	}
	lm := plan.Modules[model.Backbone].Config
	if pcfg.DPSize != lm.DP {
		t.Errorf("DPSize %d; plan has DP %d", pcfg.DPSize, lm.DP)
	}
	if pcfg.Source != preprocess.Source(corpus) || pcfg.GlobalBatch != spec.GlobalBatch || pcfg.Microbatch != spec.Microbatch || pcfg.Cost == nil {
		t.Errorf("producer config %+v does not follow the training config", pcfg)
	}
	prof := spec.Profiler
	for i := int64(0); i < 64; i++ {
		s := corpus.Sample(i)
		var w model.Workload
		s.AddTo(&w, prof.Kernel())
		if got, want := pcfg.Cost(s), prof.SampleCost(w); got != want {
			t.Fatalf("sample %d: Cost %g, profiler prices %g", i, got, want)
		}
	}
	if err := pcfg.Validate(); err != nil {
		t.Error(err)
	}
	cfg.Reorder = false
	if pcfg, err = PreprocessConfigFor(cfg); err != nil || pcfg.Cost != nil {
		t.Errorf("reordering off: Cost set (%v)", err)
	}
	if _, err := PreprocessConfigFor(DistTrainConfig(spec, nil, corpus)); err == nil {
		t.Error("unplanned config accepted")
	}
}
