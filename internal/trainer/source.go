package trainer

import (
	"context"
	"errors"
	"fmt"

	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/preprocess"
)

// TrialMeanIterTime prices one iteration per given global batch under
// cfg's plan with the runtime's engine and returns the mean iteration
// time. A trial reads only the fields that price an iteration — Spec,
// Plan, Corpus, Lease, PlacementPricing and the three technique
// switches — so it runs no scenario, trace, checkpoint, controller,
// live source or shared batch of cfg's. The re-planning controller
// scores candidate plans on the observed window with it: the full
// runtime cost model (reordering imperfection, straggler spread from
// data heterogeneity, exposed P2P, gradient sync, preprocessing
// stalls) routinely disagrees with the planner's analytic Eq. 1/Eq. 2
// estimate on which of two close plans is faster, and the runtime
// model is the one MeanIterTime is measured in. Deterministic: same
// cfg and batches, same answer.
func TrialMeanIterTime(cfg Config, batches [][]data.Sample) (float64, error) {
	if len(batches) == 0 {
		return 0, errors.New("trainer: trial needs at least one batch")
	}
	rt, err := New(Config{
		Spec: cfg.Spec, Plan: cfg.Plan, Corpus: cfg.Corpus,
		Lease: cfg.Lease, PlacementPricing: cfg.PlacementPricing,
		Reorder: cfg.Reorder, DisaggregatedPreprocess: cfg.DisaggregatedPreprocess, AsyncP2P: cfg.AsyncP2P,
	})
	if err != nil {
		return 0, err
	}
	defer rt.Close()
	rt.trial = batches
	res, err := rt.Run(len(batches))
	if err != nil {
		return 0, err
	}
	return res.MeanIterTime, nil
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
// recovery re-fetches and observes identical batches. Ranks are
// fetched in rank order on the caller's goroutine: every rank of one
// (iteration, DP width) asks the same primary producer, whose
// connection carries one request at a time.
func (ps *PoolSource) Assign(iter, dp int) ([]data.Sample, error) {
	if ps.Pool == nil || ps.Samples == nil {
		return nil, fmt.Errorf("trainer: PoolSource needs both Pool and Samples")
	}
	// The tenant learns the current geometry before its fetches:
	// elastic resizes and plan switches reshape the producer-side split
	// without re-registering.
	ps.Pool.SetDP(dp)
	var batch []data.Sample
	perRank := 0
	for d := 0; d < dp; d++ {
		rb, err := ps.Pool.Fetch(context.Background(), int64(iter), d)
		if err != nil {
			return nil, err
		}
		start := len(batch)
		for _, mb := range rb.Microbatches {
			for _, p := range mb {
				batch = append(batch, ps.Samples.Sample(p.SampleIndex))
			}
		}
		n := len(batch) - start
		if n == 0 {
			return nil, fmt.Errorf("trainer: pool delivered empty batch for iter %d rank %d", iter, d)
		}
		if d == 0 {
			perRank = n
		} else if n != perRank {
			return nil, fmt.Errorf("trainer: pool rank %d delivered %d samples, rank 0 delivered %d", d, n, perRank)
		}
	}
	return batch, nil
}
