package trainer

import (
	"context"
	"errors"
	"fmt"

	"disttrain/internal/data"
	"disttrain/internal/fanout"
	"disttrain/internal/model"
	"disttrain/internal/preprocess"
)

// TrialMeanIterTime prices one iteration per given global batch under
// cfg's plan with the runtime's engine — no scenario, no
// traces, no checkpoints — and returns the mean iteration time. The
// re-planning controller scores candidate plans on the observed window
// with it: the full runtime cost model (reordering imperfection,
// straggler spread from data heterogeneity, exposed P2P, gradient
// sync, preprocessing stalls) routinely disagrees with the planner's
// analytic Eq. 1/Eq. 2 estimate on which of two close plans is
// faster, and the runtime model is the one MeanIterTime is measured
// in. Deterministic: same cfg and batches, same answer.
func TrialMeanIterTime(cfg Config, batches [][]data.Sample) (float64, error) {
	if len(batches) == 0 {
		return 0, errors.New("trainer: trial needs at least one batch")
	}
	cfg.Scenario = nil
	cfg.Controller = nil
	cfg.Trace = nil
	cfg.CheckpointEvery = 0
	cfg.Source = nil
	cfg.ProducerControl = nil
	cfg.GradientDim = 0
	cfg.Batches = nil
	rt, err := New(cfg)
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	rt.trial = batches
	var sum float64
	for i := range batches {
		st, err := rt.RunIterationSequential(i)
		if err != nil {
			return 0, err
		}
		sum += st.Breakdown.Total()
	}
	return sum / float64(len(batches)), nil
}

// PoolSource sources each iteration's microbatches from a live
// disaggregated-preprocessing producer fleet over TCP: every rank's
// preprocessed batch is fetched (with failover) through the trainer's
// tenant handle, then mapped back to corpus samples by index so the
// runtime can price the iteration's compute. The producers own
// Algorithm 1, the assignment of samples to DP ranks; the trainer runs
// Algorithm 2 on each rank's microbatches with the plan's real stage
// times — the §5 division of labour.
type PoolSource struct {
	// Pool is the trainer's tenant handle on a preprocess.Service (the
	// only tenant of its own service, or one of a fleet's).
	Pool *preprocess.Tenant
	// Samples recovers full sample metadata by index (*data.Corpus
	// satisfies it); producers ship token payloads, not the simulation
	// shapes.
	Samples preprocess.Source
}

// PreprocessConfigFor derives the producer configuration matching a
// training configuration: same corpus, batch geometry from the spec,
// DP size from the plan and, with reordering on, Algorithm 1 priced by
// the spec's profiler exactly as the trainer prices a corpus batch.
// Producers built from it serve batches a PoolSource over cfg can
// consume directly.
func PreprocessConfigFor(cfg Config) (preprocess.Config, error) {
	if cfg.Plan == nil {
		return preprocess.Config{}, errors.New("trainer: config has no plan")
	}
	pcfg := preprocess.Config{
		Source:      cfg.Corpus,
		GlobalBatch: cfg.Spec.GlobalBatch,
		DPSize:      cfg.Plan.Modules[model.Backbone].Config.DP,
		Microbatch:  cfg.Spec.Microbatch,
		Readahead:   1,
	}
	if cfg.Reorder {
		pcfg.Cost = cfg.Spec.Profiler.Cost
	}
	return pcfg, nil
}

// Assign returns iteration iter's global batch as the producers split
// it across dp data-parallel ranks: the concatenation, in rank order,
// of dp equally long rank batches. Deterministic in iter — failure
// recovery re-fetches and observes identical batches. Rank fetches fan
// out concurrently, bounded by the tenant's admission quota so the
// front-end itself never trips the pool-saturated rejection.
func (ps *PoolSource) Assign(iter, dp int) ([]data.Sample, error) {
	if ps.Pool == nil || ps.Samples == nil {
		return nil, fmt.Errorf("trainer: PoolSource needs both Pool and Samples")
	}
	// The tenant learns the current geometry before the fan-out:
	// elastic resizes and plan switches reshape the producer-side split
	// without re-registering.
	ps.Pool.SetDP(dp)
	ranks := make([][]data.Sample, dp)
	errs := make([]error, dp)
	fanout.Run(context.Background(), ps.Pool.MaxInflight(), dp, func(d int) {
		ranks[d], errs[d] = ps.fetchRank(iter, d)
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	perRank := len(ranks[0])
	batch := make([]data.Sample, 0, perRank*dp)
	for d := range ranks {
		if len(ranks[d]) != perRank {
			return nil, fmt.Errorf("trainer: pool rank %d delivered %d samples, rank 0 delivered %d",
				d, len(ranks[d]), perRank)
		}
		batch = append(batch, ranks[d]...)
	}
	return batch, nil
}

func (ps *PoolSource) fetchRank(iter, d int) ([]data.Sample, error) {
	rb, err := ps.Pool.Fetch(context.Background(), int64(iter), d)
	if err != nil {
		return nil, err
	}
	var out []data.Sample
	for _, mb := range rb.Microbatches {
		for _, p := range mb {
			out = append(out, ps.Samples.Sample(p.SampleIndex))
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trainer: pool delivered empty batch for iter %d rank %d", iter, d)
	}
	return out, nil
}
