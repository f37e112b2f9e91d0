package fleet

import (
	"fmt"
	"runtime/debug"
	"testing"

	"disttrain/internal/trainer"
)

// TestFleetAllocBudget pins what one fleet run allocates at the
// geometries BenchmarkFleetThroughput and BenchmarkColdAdmissionStorm
// time: K tenants on 2-node leases of a 2K-node cluster. K identical
// tenants share one §4.3 search through the plan cache and each
// iteration's prepared batch (4 allocations an entry) and, under their
// one plan, its rank outcomes through the run's batch cache (a lone
// tenant keeps its private buffers and outcome slots), and
// their iterations scale as max(2, 32/K), so the count grows with the
// tenants, not the iterations. The cold storm's 16 tenants have
// distinct batches and arrive at round 0 on a fresh cache, so a run
// pays 16 cold searches. The collector is off while a run is measured,
// so no GC empties the trainer's sync.Pools mid-run. Each budget is the
// recorded count plus max(1%, 8): one allocation more per tenant
// breaks K = 64. The counts fell (K=64 from 2,289) when a plan-cache
// hit stopped hashing the spec and validation stopped reflecting, and
// again (K=1 from 429, the cold storm from 3,158) when an iteration
// stopped handing its ranks to a worker pool, and once more (K=1 from
// 269, the cold storm from 2,998) when the §4.3 search went best-first
// and lost its probe phase and worker pool, and again on every row (K=64
// from 1,740) when admission stopped copying templates, extended the
// running snapshot instead of rebuilding it, sized the lease table's
// results once and made a Job's prefetch channel only on use, and once
// more (K=64 from 1,295) when a tenant of an already resolved class
// stopped resolving its own plan and copying its lease out of line,
// and again (K=1 from 181, the cold storm from 1,350) when a cold
// search stopped materialising its whole strategy set and bounded each
// backbone shape before building its candidates, and on every row (K=1
// from 165, K=64 from 1,087, the cold storm from 1,085) when a round
// stopped fanning its tenant steps out over goroutines and a Job
// stopped prefetching its next batch on one.
// The traced row records every tenant's timeline and merges them: 579
// allocations (629 before the prefetch went, 645 before that search
// change), where 1,613 were while each rank copied its ops out of
// the simulator, each trace kept its own label index, each runtime
// labelled its op names and each lane name and fleet note built a map.
// Under the race detector sync.Pool drops entries at random, so there
// is nothing to pin.
func TestFleetAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops entries at random under -race")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		name     string
		k, iters int
		distinct bool // distinct batches: one cold search per tenant
		traced   bool
		recorded float64
	}{
		{"K=1", 1, 32, false, false, 96},
		{"K=4", 4, 8, false, false, 189},
		{"K=16", 16, 2, false, false, 307},
		{"K=64", 64, 2, false, false, 893},
		{"cold storm", 16, 2, true, false, 971},
		{"K=16 traced", 16, 2, false, true, 579},
	} {
		spec, corpus := buildSpec(t, 2*tc.k, 32)
		cfg := Config{Cluster: spec.Cluster, Trace: tc.traced}
		searches := int64(1)
		for j := 0; j < tc.k; j++ {
			js := spec
			if tc.distinct {
				js.GlobalBatch, searches = 32+8*j, int64(tc.k)
			}
			tmpl := trainer.DistTrainConfig(js, nil, corpus)
			cfg.Jobs = append(cfg.Jobs, JobSpec{
				Name: fmt.Sprintf("t%d", j), Train: tmpl,
				Iters: tc.iters, MinNodes: 2, MaxNodes: 2,
			})
		}
		got := testing.AllocsPerRun(5, func() {
			res, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, jr := range res.Jobs {
				if jr.Err != nil {
					t.Fatal(jr.Err)
				}
			}
			if res.PlanSearches != searches {
				t.Fatalf("%s: fleet ran %d plan searches, want %d", tc.name, res.PlanSearches, searches)
			}
		})
		t.Logf("%s: %v allocs per run", tc.name, got)
		if budget := tc.recorded + max(tc.recorded/100, 8); got > budget {
			t.Errorf("%s: %v allocs per run, recorded %v, budget %.0f", tc.name, got, tc.recorded, budget)
		}
	}
}
