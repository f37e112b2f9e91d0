package metrics

import (
	"fmt"
	"io"
	"testing"
)

// The benchmark shapes: one iteration of a 2-rank × 6-stage pipeline
// over 32 microbatches, forward and backward, the way the trainer's
// emitTrace records it; a tenant runs 4 of them; a fleet merges 24
// tenants.
const (
	benchRanks, benchStages, benchMicrobatches = 2, 6, 32

	benchIterEvents  = benchRanks * benchStages * benchMicrobatches * 2
	benchTenantIters = 4
	benchTenants     = 24
)

// benchLabels are one trace's op names and category, resolved once —
// the trainer caches them the same way across iterations.
type benchLabels struct {
	names    [2][benchMicrobatches]Label
	pipeline Label
}

func internBenchLabels(tr *Trace) (l benchLabels) {
	b := tr.Batch()
	defer b.Done()
	for mb := range l.names[0] {
		l.names[0][mb], l.names[1][mb] = b.Label(fmt.Sprintf("F%d", mb)), b.Label(fmt.Sprintf("B%d", mb))
	}
	l.pipeline = b.Label("pipeline")
	return l
}

// recordIteration appends one iteration's pipeline ops as one batch.
func recordIteration(tr *Trace, l *benchLabels, clock float64) {
	b := tr.Batch()
	defer b.Done()
	for d := 0; d < benchRanks; d++ {
		for mb := 0; mb < benchMicrobatches; mb++ {
			for kind := range l.names {
				for s := 0; s < benchStages; s++ {
					start := clock + 0.001*float64(mb*benchStages+s)
					b.Complete(l.names[kind][mb], l.pipeline, d+1, s, start, 0.00075)
				}
			}
		}
	}
}

// benchTenantTrace is one tenant's finished trace: named lanes and
// benchTenantIters iterations.
func benchTenantTrace() *Trace {
	tr := NewTrace()
	tr.NameProcess(0, "runtime")
	for d := 0; d < benchRanks; d++ {
		tr.NameProcess(d+1, fmt.Sprintf("dp-rank %d", d))
	}
	return recordIterations(tr, benchTenantIters)
}

// recordIterations reserves and records n more iterations.
func recordIterations(tr *Trace, n int) *Trace {
	l := internBenchLabels(tr)
	tr.Reserve(n * benchIterEvents)
	for i := 0; i < n; i++ {
		recordIteration(tr, &l, float64(i))
	}
	return tr
}

// mergeTenants folds the tenants into one fleet trace the way
// fleet.Run does.
func mergeTenants(tenants []*Trace) *Trace {
	merged := NewTrace()
	base := 0
	for i, tr := range tenants {
		merged.AppendOffset(tr, base, fmt.Sprintf("g%d/", i))
		base += tr.MaxPID() + 1
	}
	return merged
}

func benchTenantTraces() []*Trace {
	tenants := make([]*Trace, benchTenants)
	for i := range tenants {
		tenants[i] = benchTenantTrace()
	}
	return tenants
}

func reportPerEvent(b *testing.B, eventsPerOp int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*eventsPerOp), "ns/event")
}

// BenchmarkTraceRecord: one iteration's events into a reserved trace.
func BenchmarkTraceRecord(b *testing.B) {
	tr := NewTrace()
	l := internBenchLabels(tr)
	tr.Reserve(benchIterEvents)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Rewind the log in place: the steady state (capacity reserved)
		// without holding b.N iterations in memory.
		tr.log.recs, tr.log.n = tr.log.recs[:0], 0
		recordIteration(tr, &l, float64(i))
	}
	reportPerEvent(b, benchIterEvents)
}

// BenchmarkTraceMerge: 24 tenant traces of 4 iterations into one.
func BenchmarkTraceMerge(b *testing.B) {
	tenants := benchTenantTraces()
	events := mergeTenants(tenants).Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mergeTenants(tenants)
	}
	reportPerEvent(b, events)
}

// BenchmarkTraceWrite: that merged trace to io.Discard.
func BenchmarkTraceWrite(b *testing.B) {
	merged := mergeTenants(benchTenantTraces())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := merged.WriteJSON(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
	reportPerEvent(b, merged.Len())
}

// TestTraceAllocBudget pins the three allocation properties the log
// was built for: recording an arg-less event into reserved capacity
// allocates nothing, a merge costs the same whatever the source holds
// (it copies no events), and so does a write whatever the number of
// arg-less events (nothing is materialised per event).
func TestTraceAllocBudget(t *testing.T) {
	const runs = 5
	tr := NewTrace()
	l := internBenchLabels(tr)
	tr.Reserve((runs + 1) * benchIterEvents)
	if got := testing.AllocsPerRun(runs, func() { recordIteration(tr, &l, 1) }); got != 0 {
		t.Errorf("recording %d reserved events allocated %v times, want 0", benchIterEvents, got)
	}

	small, large := benchTenantTrace(), recordIterations(benchTenantTrace(), 8)
	mergeAllocs := func(src *Trace) float64 {
		return testing.AllocsPerRun(runs, func() { NewTrace().AppendOffset(src, 3, "job/") })
	}
	if s, l := mergeAllocs(small), mergeAllocs(large); s != l || l > 2 {
		t.Errorf("AppendOffset allocated %v times for %d events, %v for %d: want equal and at most 2",
			s, small.Len(), l, large.Len())
	}
	writeAllocs := func(src *Trace) float64 {
		return testing.AllocsPerRun(runs, func() { src.WriteJSON(io.Discard) })
	}
	// Equal without the race detector; with it sync.Pool drops items at
	// random and encoding/json's pooled buffers cost a few allocations
	// either way, so the bound is "nowhere near one per event".
	if s, l := writeAllocs(small), writeAllocs(large); l > s+float64(large.Len()-small.Len())/100 {
		t.Errorf("WriteJSON allocated %v times for %d events, %v for %d: want no growth with events",
			s, small.Len(), l, large.Len())
	}
}
