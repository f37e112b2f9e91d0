package fleet

import (
	"errors"
	"fmt"

	"disttrain/internal/metrics"
	"disttrain/internal/preprocess"
	"disttrain/internal/scenario"
	"disttrain/internal/trainer"
)

// PreprocessConfig attaches the fleet-shared disaggregated
// preprocessing tier to a fleet run: one elastic in-process producer
// fleet plus one preprocess.Service multiplexing every tenant's
// (tenant, iteration, rank) fetches over it. Tenants are registered at
// first placement. The service's timeouts and cache bound are the
// preprocess package's constants.
type PreprocessConfig struct {
	// Producers is how many producer servers the fleet starts.
	Producers int
	// Server configures each producer (Source, GlobalBatch, Microbatch,
	// Workers, Readahead, ...). Every fetch names its tenant's own DP
	// width, so DPSize splits nothing here: it only has to validate
	// against the batch geometry and defaults to 1 (the worker-pool
	// default, 2×DPSize, follows it). The batch geometry is fleet-wide:
	// jobs whose GlobalBatch is not divisible by their DP×Microbatch get
	// a deterministic producer rejection.
	Server preprocess.Config
}

// PreprocessFor derives the shared-tier configuration for a fleet whose
// jobs share tmpl's corpus and batch geometry: n producers, each
// serving tenant-keyed fetches at the tenant's own DP width in
// contiguous blocks, with no Cost: tenants of different model or
// freeze setting price a sample differently, and a producer builds one
// split per (iteration, DP width), whoever fetches it.
func PreprocessFor(tmpl trainer.Config, n int) *PreprocessConfig {
	return &PreprocessConfig{
		Producers: n,
		Server: preprocess.Config{
			Source:      tmpl.Corpus,
			GlobalBatch: tmpl.Spec.GlobalBatch,
			DPSize:      1,
			Microbatch:  tmpl.Spec.Microbatch,
			Readahead:   1,
		},
	}
}

// startPreprocess brings up the shared tier: the producer fleet and
// the multiplexing service, whose Snapshot aggregates every tenant's
// counters.
func (f *runner) startPreprocess() error {
	pc := f.cfg.Preprocess
	if pc == nil {
		return nil
	}
	if pc.Producers < 1 {
		return errors.New("fleet: Preprocess needs at least one producer")
	}
	scfg := pc.Server
	if scfg.DPSize == 0 {
		scfg.DPSize = 1
	}
	producers, err := preprocess.StartFleet(scfg, pc.Producers)
	if err != nil {
		return fmt.Errorf("fleet: start producers: %w", err)
	}
	svc, err := preprocess.NewService(preprocess.ServiceConfig{Addrs: producers.Addrs()})
	if err != nil {
		producers.Close()
		return fmt.Errorf("fleet: start preprocessing service: %w", err)
	}
	f.producers, f.service = producers, svc
	return nil
}

// stopPreprocess tears the shared tier down after the run.
func (f *runner) stopPreprocess() {
	if f.service != nil {
		f.service.Close()
	}
	if f.producers != nil {
		f.producers.Close()
	}
}

// registerTenant gives a fresh tenant its handle on the shared service
// and rebases its training config onto it: the trainer's PoolSource
// fetches through the tenant handle.
func (f *runner) registerTenant(t *tenant, tcfg *trainer.Config) error {
	if f.service == nil {
		return nil
	}
	handle, err := f.service.Register(preprocess.TenantConfig{Name: t.Name})
	if err != nil {
		return err
	}
	t.pool = handle
	tcfg.Source = &trainer.PoolSource{Pool: handle, Samples: tcfg.Corpus}
	tcfg.DisaggregatedPreprocess = true
	f.note("pool-register", metrics.Int("job", t.ID))
	return nil
}

// producerEvent fires one fleet-scope producer-fail / producer-join
// event against the shared producer fleet. In-flight fetches against a
// killed producer fail over; batch contents never change (producers
// are deterministic functions of the request), so only wall-clock
// observables — failover counts, latency — feel the event.
func (f *runner) producerEvent(ev scenario.Event) {
	var err error
	switch ev.Kind {
	case scenario.ProducerFail:
		err = f.producers.FailProducer(ev.Producer)
	case scenario.ProducerJoin:
		err = f.producers.JoinProducer(ev.Producer)
	}
	if err != nil {
		f.note(ev.Kind.String()+"-ignored", metrics.Int("producer", ev.Producer), metrics.Str("reason", err.Error()))
		return
	}
	f.note(ev.Kind.String(), metrics.Int("producer", ev.Producer))
}

// snapshotPool captures a retiring tenant's preprocessing counters and
// closes its handle, so a churny fleet does not keep every tenant it
// ever admitted pinning a cache partition. Called after the tenant's
// last Step returned, so no fetch is in flight and the counters are
// quiescent; the trace note
// carries only the deterministic part (the fetch count — latency and
// failovers are wall-clock).
func (f *runner) snapshotPool(t *tenant) {
	if t.pool == nil {
		return
	}
	snap := t.pool.Snapshot()
	t.Pool = &snap
	t.pool.Close()
	f.note("pool-stats", metrics.Int("job", t.ID), metrics.Int("fetches", int(snap.Fetches)))
}
