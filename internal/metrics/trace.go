package metrics

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"syscall"

	"disttrain/internal/store"
)

// Chrome-trace-format timeline emission: the runtime records every
// phase of every iteration (preprocess stall, per-rank pipeline ops,
// gradient sync, optimizer, checkpoint back-pressure, failures and
// recoveries) and WriteJSON renders it as "trace event format" JSON,
// loadable in chrome://tracing or Perfetto. Process IDs partition the
// timeline: pid 0 is the runtime's serial phases, pid d+1 is DP rank d,
// whose thread IDs are pipeline stages.
//
// A Trace is one append-only log of fixed-size, pointer-free records
// behind one mutex. Event names and categories are interned per trace
// (a run has a few dozen distinct strings; the hot path records them
// by Label), the rare Args maps live in a side table, and JSON exists
// only while WriteJSON streams it out.
// The log is not sharded: every Trace has one writer at a time (the
// trainer emits an iteration after its rank workers have joined, a
// fleet hands each tenant a private trace and notes its own events on
// the runner goroutine), so append order is the log order and the
// mutex is there for the race detector, not for throughput.

// Label is an event name or category interned in one Trace: resolved
// once, recorded by id. It means nothing to any other trace.
type Label uint32

// record is one event. ph 'X' is a complete (duration) event, 'i' an
// instant, 'M' metadata; ts and dur are microseconds, per the format
// spec. It holds no pointers, so the collector never scans the log.
type record struct {
	ts, dur   float64
	name, cat Label // ids into traceLog.strs
	pid, tid  int32
	args      int32 // 1-based index into traceLog.args; 0 is none
	ph        byte
}

// traceLog is the recorded state. Every slice is append-only, so a
// copy of the struct is an immutable snapshot: later appends land
// beyond the copy's lengths and never rewrite what it can see.
type traceLog struct {
	recs   []record
	strs   []string         // interned names and categories, by Label
	args   []map[string]any // Args side table
	segs   []segment        // merged traces, by position
	n      int              // events, own and merged
	maxPID int
}

// segment is one AppendOffset: a snapshot of the source, held by
// reference and rendered before recs[at] with its PIDs shifted and its
// process names prefixed.
type segment struct {
	at      int
	src     traceLog
	pidBase int
	prefix  string
}

// Trace accumulates trace events; safe for concurrent use. PIDs and
// TIDs are small non-negative lane numbers (stored as int32).
type Trace struct {
	mu     sync.Mutex
	log    traceLog
	labels map[string]Label // the interning index over log.strs
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Reserve pre-grows the log for n more events without recording
// anything — callers that know the run length (iterations × ops per
// iteration) preallocate capacity instead of amortized re-growing.
func (t *Trace) Reserve(n int) {
	if n <= 0 {
		return
	}
	t.mu.Lock()
	t.log.recs = slices.Grow(t.log.recs, n)
	t.mu.Unlock()
}

// Complete records a duration event on the runtime lane (pid 0, tid
// 0); the pipeline lanes are written through a Batch. start and dur are
// in simulated seconds; the trace stores microseconds.
func (t *Trace) Complete(name, cat string, start, dur float64) {
	b := t.Batch()
	b.Complete(b.Label(name), b.Label(cat), 0, 0, start, dur)
	b.Done()
}

// Instant records a point event on the runtime lane (pid 0) at start
// seconds.
func (t *Trace) Instant(name, cat string, start float64, args map[string]any) {
	t.mu.Lock()
	t.add(record{ph: 'i', name: t.intern(name), cat: t.intern(cat), ts: start * 1e6}, args)
	t.mu.Unlock()
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *Trace) NameProcess(pid int, name string) {
	t.mu.Lock()
	t.add(record{ph: 'M', name: t.intern("process_name"), cat: t.intern(""), pid: int32(pid)}, map[string]any{"name": name})
	t.mu.Unlock()
}

// Batch is an open run of appends under one acquisition of the trace
// lock, with names resolved to Labels by the caller: the trainer
// records a whole iteration's pipeline ops through one, looking no
// string up per op. Done closes it; the trace is locked until then.
type Batch struct{ t *Trace }

// Batch opens a batch append.
func (t *Trace) Batch() Batch {
	t.mu.Lock()
	return Batch{t}
}

// Label interns s in the batch's trace.
func (b Batch) Label(s string) Label { return b.t.intern(s) }

// Complete records a duration event on lane (pid, tid).
func (b Batch) Complete(name, cat Label, pid, tid int, start, dur float64) {
	b.t.add(record{ph: 'X', name: name, cat: cat, pid: int32(pid), tid: int32(tid), ts: start * 1e6, dur: dur * 1e6}, nil)
}

// Done releases the trace.
func (b Batch) Done() { b.t.mu.Unlock() }

// add appends one record, its Args (if any) in the side table; the
// caller holds t.mu.
func (t *Trace) add(r record, args map[string]any) {
	if len(args) > 0 {
		t.log.args = append(t.log.args, args)
		r.args = int32(len(t.log.args))
	}
	t.log.recs = append(t.log.recs, r)
	t.log.n++
	if pid := int(r.pid); pid > t.log.maxPID {
		t.log.maxPID = pid
	}
}

func (t *Trace) intern(s string) Label {
	id, ok := t.labels[s]
	if !ok {
		if t.labels == nil {
			t.labels = make(map[string]Label, 64) // a run's few dozen names, without rehashing
		}
		id = Label(len(t.log.strs))
		t.log.strs = append(t.log.strs, s)
		t.labels[s] = id
	}
	return id
}

// snapshot returns the log as of now.
func (t *Trace) snapshot() traceLog {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.log
}

// Len returns the recorded event count, merged events included. O(1).
func (t *Trace) Len() int { return t.snapshot().n }

// MaxPID returns the highest process ID any recorded event uses (0 for
// an empty trace) — the lane width a merge must step over. O(1).
func (t *Trace) MaxPID() int { return t.snapshot().maxPID }

// AppendOffset merges another trace into this one as a block of
// private lanes: every event src holds now is appended in order with
// its PID shifted by pidBase, and process_name metadata gets the given
// prefix so lanes stay attributable after the merge. The fleet runtime
// uses it to fold per-job timelines into one fleet Chrome trace — job
// j's lanes land at [base_j, base_j + MaxPID_j], disjoint from every
// other tenant's. The merge copies no events: it splices a snapshot of
// src in by reference, and the shift and prefix are applied when the
// trace is written. Events recorded in src afterwards are not part of
// the snapshot.
func (t *Trace) AppendOffset(src *Trace, pidBase int, prefix string) {
	s := src.snapshot()
	if s.n == 0 {
		return
	}
	t.mu.Lock()
	t.log.segs = append(t.log.segs, segment{at: len(t.log.recs), src: s, pidBase: pidBase, prefix: prefix})
	t.log.n += s.n
	if m := s.maxPID + pidBase; m > t.log.maxPID {
		t.log.maxPID = m
	}
	t.mu.Unlock()
}

// WriteJSON emits the Chrome trace file ({"traceEvents": [...]}),
// streamed record by record: byte for byte what encoding/json writes
// for the equivalent []struct{name, cat, ph, ts, dur, pid, tid, args}
// (cat, dur and args omitted when empty), without building it. A value
// JSON cannot carry (a NaN timestamp, an unencodable Args value) is
// returned as encoding/json's error, after a partial write.
func (t *Trace) WriteJSON(w io.Writer) error {
	// A merged fleet trace is megabytes: the default 4 KB buffer would
	// be a write call every ~40 events.
	e := traceEncoder{w: bufio.NewWriterSize(w, 64<<10)}
	e.w.WriteString(`{"traceEvents":[`)
	e.log(t.snapshot(), 0, "")
	if e.err != nil {
		return e.err
	}
	e.w.WriteString("]}\n")
	return e.w.Flush()
}

// traceEncoder streams a log's events as JSON array elements.
type traceEncoder struct {
	w   *bufio.Writer
	buf []byte // one event's scratch
	n   int    // events written so far
	err error  // first value JSON cannot carry (NaN, ±Inf, a bad Args value)
}

// log writes l's events, merged segments at their positions, with the
// PID shift and process-name prefix of the merges it is nested in.
func (e *traceEncoder) log(l traceLog, pidShift int, prefix string) {
	// Each interned string is encoded once, not once per event.
	quoted := make([][]byte, len(l.strs))
	for i, s := range l.strs {
		quoted[i], _ = json.Marshal(s)
	}
	seg := 0
	for i := 0; e.err == nil; i++ {
		for ; seg < len(l.segs) && l.segs[seg].at == i; seg++ {
			s := l.segs[seg]
			e.log(s.src, pidShift+s.pidBase, prefix+s.prefix)
		}
		if i == len(l.recs) {
			return
		}
		r := &l.recs[i]
		b := e.buf[:0]
		if e.n > 0 {
			b = append(b, ',')
		}
		e.n++
		b = append(append(b, `{"name":`...), quoted[r.name]...)
		if l.strs[r.cat] != "" {
			b = append(append(b, `,"cat":`...), quoted[r.cat]...)
		}
		b = append(append(append(b, `,"ph":"`...), r.ph), `","ts":`...)
		b = e.float(b, r.ts)
		if r.dur != 0 {
			b = e.float(append(b, `,"dur":`...), r.dur)
		}
		b = strconv.AppendInt(append(b, `,"pid":`...), int64(int(r.pid)+pidShift), 10)
		b = strconv.AppendInt(append(b, `,"tid":`...), int64(r.tid), 10)
		if r.args != 0 {
			args := l.args[r.args-1]
			if r.ph == 'M' && prefix != "" { // a merged lane's process_name
				name, _ := args["name"].(string)
				args = map[string]any{"name": prefix + name}
			}
			j, err := json.Marshal(args)
			if e.err == nil {
				e.err = err
			}
			b = append(append(b, `,"args":`...), j...)
		}
		b = append(b, '}')
		e.w.Write(b)
		e.buf = b
	}
}

// float appends f the way encoding/json formats a float64: shortest
// round-trip digits, exponent form below 1e-6 and from 1e21 up.
func (e *traceEncoder) float(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		if e.err == nil {
			_, e.err = json.Marshal(f) // encoding/json's own error
		}
		return b
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-09 is written e-9
		b = b[:n-1]
	}
	return b
}

// WriteJSONFile writes the trace to path atomically: the JSON is
// encoded into a temporary file in the same directory and renamed into
// place only after a successful encode+sync, so a failure mid-write
// never leaves a truncated or corrupt timeline behind (the bare
// os.Create + encode it replaces did exactly that).
func (t *Trace) WriteJSONFile(path string) error {
	return WriteFileAtomic(path, t.WriteJSON)
}

// WriteFileAtomic is store.ReplaceFile made durable: it fsyncs the
// temporary file before the rename and the parent directory after it,
// so a completed write survives power loss (a directory fsync failing
// with EINVAL is tolerated: such filesystems order the rename
// themselves). Its callers write a run's record — Trace.WriteJSONFile
// and disttrain-benchjson's recorded trajectory; plan-cache entries
// need only ReplaceFile's atomicity.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	err := store.ReplaceFile(path, func(f *os.File) error {
		if err := write(f); err != nil {
			return err
		}
		return f.Sync()
	})
	if err == nil {
		if d, derr := os.Open(filepath.Dir(path)); derr == nil {
			if err = d.Sync(); errors.Is(err, syscall.EINVAL) {
				err = nil
			}
			d.Close()
		}
	}
	if err != nil {
		return fmt.Errorf("metrics: atomic write %s: %w", path, err)
	}
	return nil
}
