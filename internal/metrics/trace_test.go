package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sync"
	"testing"
)

// decodeEvents reads a trace back through its written JSON.
func decodeEvents(t *testing.T, tr *Trace) []TraceEvent {
	t.Helper()
	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	return doc.TraceEvents
}

func TestTraceWriteJSON(t *testing.T) {
	tr := NewTrace()
	tr.NameProcess(0, "runtime")
	tr.Complete("preprocess", "data", 0, 0.25)
	completeOn(tr, "F0", "pipeline", 1, 2, 0.25, 0.1)
	tr.Instant("failure", "scenario", 1.5, Int("iter", 3))

	decoded := decodeEvents(t, tr)
	if len(decoded) != tr.Len() || tr.Len() != 4 {
		t.Fatalf("round-trip lost events: wrote %d, read %d", tr.Len(), len(decoded))
	}
	// Seconds become microseconds.
	ev := decoded[2]
	if ev.TS != 0.25*1e6 || ev.Dur != 0.1*1e6 || ev.PID != 1 || ev.TID != 2 {
		t.Errorf("event mangled: %+v", ev)
	}
}

func TestTraceEmptyWritesValidJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := NewTrace().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded map[string]any
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if _, ok := decoded["traceEvents"].([]any); !ok {
		t.Errorf("empty trace should still carry a traceEvents array: %s", buf.String())
	}
}

func TestTraceConcurrentAdds(t *testing.T) {
	tr := NewTrace()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				completeOn(tr, "op", "x", w, 0, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != 800 {
		t.Errorf("lost events under concurrency: %d", tr.Len())
	}
}

// TestTraceConcurrentWritersKeepOrder: under concurrent writers on
// distinct PIDs no event is lost, MaxPID is tracked incrementally, and
// each writer's events surface in that writer's append order (writers
// interleave, but one writer's own events never reorder).
func TestTraceConcurrentWritersKeepOrder(t *testing.T) {
	tr := NewTrace()
	const writers, per = 8, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				completeOn(tr, "op", "x", w, 0, float64(i), 1)
			}
		}(w)
	}
	wg.Wait()
	if tr.Len() != writers*per {
		t.Fatalf("lost events: %d of %d", tr.Len(), writers*per)
	}
	if tr.MaxPID() != writers-1 {
		t.Errorf("MaxPID = %d, want %d", tr.MaxPID(), writers-1)
	}
	next := make([]int, writers)
	for _, ev := range decodeEvents(t, tr) {
		if int(ev.TS) != next[ev.PID]*1e6 {
			t.Fatalf("pid %d out of order: event ts %v, want %d", ev.PID, ev.TS, next[ev.PID])
		}
		next[ev.PID]++
	}
	for w, n := range next {
		if n != per {
			t.Errorf("pid %d surfaced %d events, want %d", w, n, per)
		}
	}
}

// TestTraceDeterministicBytes: two traces recording the same event
// sequence serialize byte-identically.
// This is the recorder-level half of the fleet's merged-trace
// determinism gate.
func TestTraceDeterministicBytes(t *testing.T) {
	record := func() *Trace {
		tr := NewTrace()
		tr.NameProcess(0, "runtime")
		for i := 0; i < 50; i++ {
			pid := i % 3
			completeOn(tr, "op", "x", pid, i%2, float64(i), 0.5)
			if i%7 == 0 {
				tr.Instant("mark", "x", float64(i), Int("i", i))
			}
		}
		return tr
	}
	var a, b bytes.Buffer
	if err := record().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := record().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Errorf("same recording serialized differently:\n%s\nvs\n%s", a.String(), b.String())
	}
}

// TestTraceSnapshotWhileWriting: merging and writing read a snapshot
// of a log other goroutines are still appending to, span blocks
// included. Every merge must
// capture a consistent prefix — the merged count and the written
// events agree — and the race detector must stay quiet (CI runs this
// under -race).
func TestTraceSnapshotWhileWriting(t *testing.T) {
	src, dst := NewTrace(), NewTrace()
	src.log.recs = slices.Grow(src.log.recs, 64) // appends land in shared capacity first, then reallocate
	var writers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			for i := 0; i < 300; i++ {
				completeOn(src, "op", "x", w, 0, float64(i), 1)
				if i%50 == 0 {
					src.Instant("mark", "x", float64(i), Int("i", i))
					b := src.Batch()
					name := Intern("block")
					b.Spans(Intern("x"), w, 2, func(span SpanFunc) {
						span(name, w, 0, float64(i), 1)
						span(name, w, 1, float64(i), 1)
					})
					b.Done()
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 20; i++ {
			dst.AppendOffset(src, 10*i, "m/")
			if err := dst.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	writers.Wait()
	<-done
	if got := len(decodeEvents(t, dst)); got != dst.Len() {
		t.Errorf("merged trace wrote %d events, Len says %d", got, dst.Len())
	}
	if src.Len() != 4*(300+6+2*6) {
		t.Errorf("source holds %d events, want %d", src.Len(), 4*(300+6+2*6))
	}
}

// completeOn records one duration event on lane (pid, tid) as a plain
// record, the form Batch.Complete stores on the runtime lane.
func completeOn(tr *Trace, name, cat string, pid, tid int, start, dur float64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.add(record{ph: 'X', name: Intern(name), cat: Intern(cat), pid: int32(pid), tid: int32(tid), ts: start * 1e6, dur: dur * 1e6})
}

// TestInternConcurrent: goroutines interning the same fresh strings at
// once, and naming lanes with them while another goroutine writes the
// trace, agree on one Label per string, and the race detector stays
// quiet (CI runs this under -race).
func TestInternConcurrent(t *testing.T) {
	tr := NewTrace()
	got := make([][]Label, 4)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				name := fmt.Sprintf("TestInternConcurrent %d", i)
				got[w] = append(got[w], Intern(name))
				tr.NameProcess(w, name)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
			if err := tr.WriteJSON(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	for w := range got {
		if !slices.Equal(got[w], got[0]) {
			t.Fatalf("goroutine %d got other Labels than goroutine 0", w)
		}
	}
	if n := len(decodeEvents(t, tr)); n != 4*100 {
		t.Errorf("wrote %d lane names, want %d", n, 4*100)
	}
}
