package fleet

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/preprocess"
	"disttrain/internal/profiler"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// buildPreprocSpec mirrors buildSpec but shrinks the corpus the way the
// trainer's pool harness does: the shared producer tier runs the real
// pixel pipeline over TCP, so the LAION-shaped corpus is scaled down to
// keep the e2e cadence fast while exercising every wire path.
func buildPreprocSpec(t *testing.T, nodes, bs int) (orchestrator.Spec, *data.Corpus) {
	t.Helper()
	cl := cluster.Production(nodes)
	p, err := profiler.New(profiler.DefaultOptions(cl, model.MLLM9B()))
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
	if err := p.Calibrate(corpus, 120); err != nil {
		t.Fatal(err)
	}
	return orchestrator.Spec{Cluster: cl, Model: model.MLLM9B(), GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, corpus
}

// preprocFleet is the shared-tier configuration both e2e tests run:
// three tenants (one per priority class, so WFQ weights differ) on
// fixed 2-node leases, all fetching through one 2-producer service,
// with producer 0 killed at round 1 and rejoining at round 4. With two
// producers the primary for (iter, dp) has the parity of iter+dp, so
// consecutive iterations alternate members and three dead rounds
// guarantee every tenant's primary lands on the corpse at least once —
// failover is fleet-wide, not one unlucky tenant's.
func preprocFleet(t *testing.T, spec orchestrator.Spec, corpus *data.Corpus, workers int) Config {
	t.Helper()
	sc, err := scenario.Parse("producer-fail:iter=1,producer=0; producer-join:iter=4,producer=0")
	if err != nil {
		t.Fatal(err)
	}
	tmpl := trainer.DistTrainConfig(spec, nil, corpus)
	tmpl.GradientDim = 2
	return Config{
		Cluster: spec.Cluster,
		Jobs: []JobSpec{
			{Name: "bulk", Train: tmpl, Iters: 5, MinNodes: 2, MaxNodes: 2, Priority: classLow},
			{Name: "base", Train: tmpl, Iters: 5, MinNodes: 2, MaxNodes: 2},
			{Name: "prio", Train: tmpl, Iters: 5, MinNodes: 2, MaxNodes: 2, Priority: classHigh},
		},
		Policy:   FairShare,
		Scenario: sc,
		Workers:  workers,
		Trace:    true,
		Preprocess: &PreprocessConfig{
			Producers: 2,
			Server: preprocess.Config{
				Source:      corpus,
				GlobalBatch: spec.GlobalBatch,
				Microbatch:  spec.Microbatch,
				Workers:     8,
				Readahead:   1,
			},
		},
	}
}

// TestPreprocessFor pins the shared tier a job template derives: n
// producers over the template's corpus and batch geometry, one split
// per fetch at the tenant's own DP width, no reordering.
func TestPreprocessFor(t *testing.T) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	tmpl := trainer.Config{Spec: orchestrator.Spec{GlobalBatch: 32, Microbatch: 2}, Corpus: corpus, Reorder: true}
	pc := PreprocessFor(tmpl, 3)
	want := preprocess.Config{Source: corpus, GlobalBatch: 32, DPSize: 1, Microbatch: 2, Readahead: 1}
	if pc.Producers != 3 || pc.Server != want || pc.SlotsPerNode != 0 {
		t.Errorf("PreprocessFor = %+v, want 3 producers serving %+v", pc, want)
	}
	if err := pc.Server.Validate(); err != nil {
		t.Error(err)
	}
}

// TestFleetPreprocessFairness runs the K-tenant shared tier through a
// producer kill and checks the elasticity story: every tenant failed
// over (none was starved or shielded), no tenant was rejected (quotas
// were never exceeded under healthy admission), and the per-tenant
// counters roll up into the fleet aggregate.
func TestFleetPreprocessFairness(t *testing.T) {
	spec, corpus := buildPreprocSpec(t, 6, 32)
	res, err := runChecked(t, preprocFleet(t, spec, corpus, 0))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 3 {
		t.Fatalf("fleet ran %d tenants, want 3", len(res.Jobs))
	}
	if res.Preprocess == nil {
		t.Fatal("fleet with Preprocess config returned no aggregate pool snapshot")
	}
	var sumFetches int64
	for _, jr := range res.Jobs {
		if jr.Err != nil {
			t.Fatalf("tenant %s failed: %v", jr.Name, jr.Err)
		}
		if len(jr.Result.Iterations) != 5 {
			t.Errorf("tenant %s executed %d iterations, want 5", jr.Name, len(jr.Result.Iterations))
		}
		if jr.Pool == nil {
			t.Fatalf("tenant %s has no pool snapshot", jr.Name)
		}
		if jr.Pool.Fetches == 0 {
			t.Errorf("tenant %s fetched nothing through the shared tier", jr.Name)
		}
		if jr.Pool.Failovers == 0 {
			t.Errorf("tenant %s saw no failovers across the producer kill", jr.Name)
		}
		if jr.Pool.Rejections != 0 {
			t.Errorf("tenant %s was rejected %d times within its quota", jr.Name, jr.Pool.Rejections)
		}
		sumFetches += jr.Pool.Fetches
	}
	if res.Preprocess.Fetches != sumFetches {
		t.Errorf("aggregate fetches %d != sum of per-tenant fetches %d",
			res.Preprocess.Fetches, sumFetches)
	}
	if res.Preprocess.Rejections != 0 {
		t.Errorf("aggregate recorded %d rejections in a quota-respecting run", res.Preprocess.Rejections)
	}
}

// TestFleetPreprocessDeterminism pins the shared tier's determinism
// contract: with producers multiplexed across tenants and killed
// mid-run, results and the merged trace are byte-identical across
// repeated runs and across worker-pool sizes. Pool snapshots carry
// wall-clock observables (latency, failover counts depend on fetch
// timing relative to the kill), so — like the per-job trace — they are
// stripped from the DeepEqual and their deterministic projection
// (fetch and cache-miss counts) compared separately.
func TestFleetPreprocessDeterminism(t *testing.T) {
	spec, corpus := buildPreprocSpec(t, 6, 32)
	type outcome struct {
		jobs    []JobResult
		fetches [][2]int64
		trace   []byte
	}
	strip := func(r *Result) outcome {
		jobs := append([]JobResult(nil), r.Jobs...)
		var fetches [][2]int64
		for i := range jobs {
			fetches = append(fetches, [2]int64{jobs[i].Pool.Fetches, jobs[i].Pool.CacheMisses})
			jobs[i].Trace = nil // compared via the merged trace bytes
			jobs[i].Pool = nil  // wall-clock observables; counts compared above
		}
		return outcome{jobs: jobs, fetches: fetches, trace: traceBytes(t, r.Trace)}
	}
	var want outcome
	for i, workers := range []int{1, 1, 4, runtime.GOMAXPROCS(0)} {
		res, err := runChecked(t, preprocFleet(t, spec, corpus, workers))
		if err != nil {
			t.Fatal(err)
		}
		for _, jr := range res.Jobs {
			if jr.Err != nil {
				t.Fatalf("workers %d: tenant %s failed: %v", workers, jr.Name, jr.Err)
			}
		}
		got := strip(res)
		if i == 0 {
			want = got
			continue
		}
		if !reflect.DeepEqual(got.jobs, want.jobs) {
			t.Errorf("workers %d: job results diverged", workers)
		}
		if !reflect.DeepEqual(got.fetches, want.fetches) {
			t.Errorf("workers %d: per-tenant fetch counts diverged: %v vs %v",
				workers, got.fetches, want.fetches)
		}
		if !bytes.Equal(got.trace, want.trace) {
			t.Errorf("workers %d: merged trace diverged (%d vs %d bytes)", workers, len(got.trace), len(want.trace))
		}
	}
}

// A retiring tenant gives its handle on the shared tier back: the
// counters are snapshotted, then the handle is closed, so a churny
// fleet does not keep every job it ever admitted pinning a cache
// partition until the run ends.
func TestSnapshotPoolClosesRetiredTenant(t *testing.T) {
	svc, err := preprocess.NewService(preprocess.ServiceConfig{Addrs: []string{"127.0.0.1:1"}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	handle, err := svc.Register(preprocess.TenantConfig{Name: "job-0"})
	if err != nil {
		t.Fatal(err)
	}
	tn := &tenant{pool: handle}
	(&runner{}).snapshotPool(tn)
	if tn.poolSnap == nil {
		t.Fatal("retired tenant has no pool snapshot")
	}
	_, err = handle.Fetch(context.Background(), 0, 0)
	if err == nil || !strings.Contains(err.Error(), "tenant closed") {
		t.Fatalf("retired tenant's handle fetched with %v, want a fail-fast tenant-closed error", err)
	}
}
