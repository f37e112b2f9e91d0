package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"

	"disttrain/internal/data"
	"disttrain/internal/preprocess"
)

// preprocess-fanin is the data plane alone: one op delivers one
// training iteration to 4 tenants of DP width 2 through
// preprocess.Service, over real loopback TCP, from a 2-producer fleet.
// Two client goroutines fetch the 8 fresh rank batches and meet at a
// barrier, so the op lasts as long as its slowest rank — what a
// training step waits for. Then the same clients fetch the same
// iteration again, which the tenants' consumer caches now hold: the
// failure-recovery re-fetch path. (Each tenant's cache evicts below its
// slowest rank's newest iteration, so once both ranks hold iteration i
// the previous one is gone; the iteration just delivered is the one a
// rewind can still find.) Planner and trainer are idle.

const (
	faninTenants   = 4
	faninDP        = 2
	faninProducers = 2
	faninBatch     = 8
)

// faninCorpus is LAION shrunk so that the pixel pipeline runs for real
// but multiplexing, admission and the wire stay visible next to it
// (the shape of the repo's BenchmarkServiceThroughput).
func faninCorpus(seed int64) (*data.Corpus, error) {
	sp := data.LAION400M()
	sp.Seed = seed
	sp.SeqLen = 512
	sp.MaxResolution = 64
	sp.ResMedian = 48
	return data.NewCorpus(sp)
}

func faninServerConfig(corpus *data.Corpus) preprocess.Config {
	return preprocess.Config{
		Source:      corpus,
		GlobalBatch: faninBatch,
		DPSize:      1,
		Microbatch:  1,
		Workers:     concurrency,
		Readahead:   1,
	}
}

type faninInstance struct {
	tr      *tracer
	corpus  *data.Corpus
	fleet   *preprocess.Fleet
	svc     *preprocess.Service
	tenants []*preprocess.Tenant
}

func setupFanin(seed uint64, _ string) (instance, error) {
	corpus, err := faninCorpus(corpusSeed(seed, "preprocess-fanin", 0))
	if err != nil {
		return nil, err
	}
	f := &faninInstance{corpus: corpus}
	if f.fleet, err = preprocess.StartFleet(faninServerConfig(corpus), faninProducers); err != nil {
		return nil, err
	}
	f.svc, err = preprocess.NewService(preprocess.ServiceConfig{
		Addrs:    f.fleet.Addrs(),
		Capacity: 2 * faninTenants * faninDP,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	for t := 0; t < faninTenants; t++ {
		h, err := f.svc.Register(preprocess.TenantConfig{
			Name: fmt.Sprintf("t%d", t), MaxInflight: faninDP, DP: faninDP,
		})
		if err != nil {
			f.close()
			return nil, err
		}
		f.tenants = append(f.tenants, h)
	}
	return f, nil
}

func (f *faninInstance) close() {
	if f.svc != nil {
		f.svc.Close()
	}
	if f.fleet != nil {
		f.fleet.Close()
	}
}

// batchDigest hashes a rank batch's identity and payload bytes.
func batchDigest(rb *preprocess.RankBatch) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d %d %d\n", rb.Iter, rb.Rank, len(rb.Microbatches))
	for _, mb := range rb.Microbatches {
		for _, p := range mb {
			fmt.Fprintf(h, "%d %d %d %d %d\n", p.SampleIndex, p.ImageTokens, p.TextTokens, p.GenImages, len(p.TokenPayload))
			h.Write(p.TokenPayload) // hash.Hash.Write never fails
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// fetchAll fetches every (tenant, rank) batch of one iteration with
// `concurrency` client goroutines and returns the digests in slot
// order once all have arrived.
func (f *faninInstance) fetchAll(iter int64, name string, opSpan, op int) ([]string, error) {
	slots := faninTenants * faninDP
	digests := make([]string, slots)
	errs := make([]error, slots)
	var wg sync.WaitGroup
	for c := 0; c < concurrency; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for slot := c; slot < slots; slot += concurrency {
				id := -1
				if f.tr != nil {
					id = f.tr.begin(name, opSpan, op)
				}
				rb, err := f.tenants[slot/faninDP].Fetch(context.Background(), iter, slot%faninDP)
				if id >= 0 {
					f.tr.end(id)
				}
				if err != nil {
					errs[slot] = err
					continue
				}
				if got, want := len(rb.Microbatches), faninBatch/faninDP; got != want {
					errs[slot] = fmt.Errorf("iteration %d rank %d: %d microbatches, want %d", iter, slot%faninDP, got, want)
					continue
				}
				digests[slot] = batchDigest(rb)
			}
		}(c)
	}
	wg.Wait() // the barrier: the op ends with its slowest rank
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return digests, nil
}

// op i delivers iteration i+1 and then re-fetches it; the warm-up op
// (i = -1) takes iteration 0.
func (f *faninInstance) op(i, opSpan int) opResult {
	iter := int64(i + 1)
	fresh, err := f.fetchAll(iter, "preprocess.fetch", opSpan, i)
	if err != nil {
		return opResult{err: err}
	}
	again, err := f.fetchAll(iter, "preprocess.refetch", opSpan, i)
	if err != nil {
		return opResult{err: err}
	}
	for s := range again {
		if again[s] != fresh[s] {
			return opResult{err: fmt.Errorf("re-fetch of iteration %d slot %d differs from its first fetch", iter, s)}
		}
	}
	h := sha256.New()
	for _, d := range fresh {
		fmt.Fprintln(h, d)
	}
	// Work units are fresh rank batches delivered.
	digest := hex.EncodeToString(h.Sum(nil)[:8])
	return opResult{work: len(fresh), digest: func() string { return digest }}
}

// reference builds iteration i+1 in process, on a producer of its own
// and without the service, the wire or any cache, and digests the same
// slots the timed op fetches.
func (f *faninInstance) reference(i int) (string, error) {
	cfg := faninServerConfig(f.corpus)
	cfg.Readahead = 0
	srv, err := preprocess.NewServer(cfg)
	if err != nil {
		return "", err
	}
	defer srv.Close()
	h := sha256.New()
	for t := 0; t < faninTenants; t++ {
		for rank := 0; rank < faninDP; rank++ {
			rb, err := srv.FetchTenant(uint32(t), faninDP, int64(i+1), rank)
			if err != nil {
				return "", err
			}
			fmt.Fprintln(h, batchDigest(rb))
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

func (f *faninInstance) trace(tr *tracer) { f.tr = tr }
