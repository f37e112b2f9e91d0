package metrics

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestTraceAppendOffset pins the per-job lane merge: PIDs shift by the
// base, event order is preserved, process names get the tenant
// prefix, and the source trace (and its args) stay untouched.
func TestTraceAppendOffset(t *testing.T) {
	job := NewTrace()
	job.NameProcess(0, "runtime")
	job.NameProcess(1, "dp-rank 0")
	completeOn(job, "fwd0", "pipeline", 1, 2, 0.5, 0.25)
	job.Instant("replan", "controller", 1.0, Int("iter", 3))

	merged := NewTrace()
	merged.AppendOffset(job, 10, "jobA/")
	evs := decodeEvents(t, merged)
	if len(evs) != 4 {
		t.Fatalf("merged %d events, want 4", len(evs))
	}
	if evs[0].PID != 10 || evs[1].PID != 11 || evs[2].PID != 11 {
		t.Fatalf("PIDs not offset: %d %d %d", evs[0].PID, evs[1].PID, evs[2].PID)
	}
	if got := evs[0].Args["name"]; got != "jobA/runtime" {
		t.Fatalf("process name %v, want jobA/runtime", got)
	}
	// Source must be untouched (args maps not shared after rename).
	src := decodeEvents(t, job)
	if src[0].Args["name"] != "runtime" || src[0].PID != 0 {
		t.Fatalf("AppendOffset mutated the source: %+v", src[0])
	}
	if job.MaxPID() != 1 || merged.MaxPID() != 11 {
		t.Fatalf("MaxPID: job %d merged %d", job.MaxPID(), merged.MaxPID())
	}
}

// TestWriteJSONFileAtomic: the happy path lands valid JSON; a failing
// destination directory errors without leaving droppings; an existing
// file survives a failed overwrite attempt.
func TestWriteJSONFileAtomic(t *testing.T) {
	dir := t.TempDir()
	tr := NewTrace()
	tr.Complete("x", "c", 0, 1)
	path := filepath.Join(dir, "out.json")
	if err := tr.WriteJSONFile(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.TraceEvents) != 1 {
		t.Fatalf("bad file: %v (%d events)", err, len(doc.TraceEvents))
	}

	// A mid-write failure must leave the previous contents intact and
	// clean up its temp file.
	if err := WriteFileAtomic(path, func(w io.Writer) error {
		w.Write([]byte("partial"))
		return os.ErrClosed
	}); err == nil {
		t.Fatal("failing writer accepted")
	}
	after, err := os.ReadFile(path)
	if err != nil || !bytes.Equal(after, data) {
		t.Fatalf("failed write clobbered the destination: %v", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}

	// Unwritable directory: error, no file.
	if err := tr.WriteJSONFile(filepath.Join(dir, "missing", "out.json")); err == nil {
		t.Fatal("write into missing directory accepted")
	}
}
