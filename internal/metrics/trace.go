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
	"strings"
	"sync"
	"syscall"
	"unicode/utf8"
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
// behind one mutex. Event names, categories and process names are
// Labels of one process-wide intern table (a program has a few dozen
// distinct strings; the hot path records them by Label), an instant's
// typed Args are copied into the log, and JSON exists only while
// WriteJSON streams it out. One record holds its events by reference: a
// span block (Batch.Spans), counted when recorded and replayed off data
// its caller keeps immutable while WriteJSON runs. The log is not
// sharded: every Trace has one writer at a time (the trainer emits an
// iteration from its run loop, a fleet hands each tenant a private
// trace and notes its own events on the runner goroutine), so append
// order is the log order and the mutex is there for the race detector,
// not for throughput.

// Label is an interned event name, category or process name: resolved
// once, recorded by id, the same in every trace. Label 0 is "".
type Label uint32

// labels is the process-wide intern table. It only grows, so a Label
// means one string for the life of the process, and a copy of strs and
// quoted is a snapshot later interning never rewrites.
var labels = struct {
	sync.RWMutex
	ids    map[string]Label
	strs   []string
	quoted [][]byte // strs as encoding/json writes them
}{ids: map[string]Label{"": 0}, strs: []string{""}, quoted: [][]byte{[]byte(`""`)}}

// Intern returns s's Label, adding s to the table on first use. Safe
// for concurrent use; an interned string is never freed, so intern
// names from a bounded set and pass open-ended values as Args.
func Intern(s string) Label {
	labels.RLock()
	id, ok := labels.ids[s]
	labels.RUnlock()
	if ok {
		return id
	}
	labels.Lock()
	defer labels.Unlock()
	if id, ok = labels.ids[s]; !ok {
		id = Label(len(labels.strs))
		labels.ids[s] = id
		labels.strs = append(labels.strs, s)
		labels.quoted = append(labels.quoted, quote(nil, s))
	}
	return id
}

// processName names every lane-naming metadata event.
var processName = Intern("process_name")

// Arg is one key of an instant's payload: an int or a string, copied
// into the log when recorded.
type Arg struct {
	key, str string
	num      int
	isStr    bool
}

// Int is an int-valued Arg.
func Int(key string, v int) Arg { return Arg{key: key, num: v} }

// Str is a string-valued Arg.
func Str(key, v string) Arg { return Arg{key: key, str: v, isStr: true} }

// record is one event. ph 'X' is a complete (duration) event, 'i' an
// instant, 'M' a process name, 's' a span block of cat events; ts and
// dur are microseconds, per the format spec. It holds no pointers, so
// the collector never scans the log.
type record struct {
	ts, dur   float64
	name, cat Label
	pid, tid  int32
	// 'i': its Args are traceLog.args[arg : arg+nargs]; 'M': the
	// process name's Label; 's': its replay's index in traceLog.spans.
	arg, nargs int32
	ph         byte
}

// SpanFunc takes one event of a span block, as Batch.Complete would.
type SpanFunc func(name Label, pid, tid int, start, dur float64)

// traceLog is the recorded state. Every slice is append-only, so a
// copy of the struct is an immutable snapshot: later appends land
// beyond the copy's lengths and never rewrite what it can see.
type traceLog struct {
	recs   []record
	args   []Arg            // instants' Args, back to back
	spans  []func(SpanFunc) // span blocks' replays
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
	mu  sync.Mutex
	log traceLog
}

// NewTrace returns an empty trace.
func NewTrace() *Trace { return &Trace{} }

// Complete records a duration event on the runtime lane (pid 0, tid
// 0); the pipeline lanes are written as a Batch's span blocks. start
// and dur are in simulated seconds; the trace stores microseconds.
func (t *Trace) Complete(name, cat string, start, dur float64) {
	n, c := Intern(name), Intern(cat)
	b := t.Batch()
	b.Complete(n, c, start, dur)
	b.Done()
}

// Instant records a point event on the runtime lane (pid 0) at start
// seconds. Its args are written as a JSON object, in key order; of two
// Args with one key the later wins.
func (t *Trace) Instant(name, cat string, start float64, args ...Arg) {
	n, c := Intern(name), Intern(cat)
	t.mu.Lock()
	t.add(record{ph: 'i', name: n, cat: c, ts: start * 1e6, arg: int32(len(t.log.args)), nargs: int32(len(args))})
	t.log.args = append(t.log.args, args...)
	t.mu.Unlock()
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *Trace) NameProcess(pid int, name string) {
	n := Intern(name)
	t.mu.Lock()
	t.add(record{ph: 'M', name: processName, pid: int32(pid), arg: int32(n)})
	t.mu.Unlock()
}

// Batch is an open run of appends under one acquisition of the trace
// lock, with names resolved to Labels by the caller: the trainer
// records a whole iteration through one, its pipeline ops as one span
// block. Done closes it; the trace is locked until then.
type Batch struct{ t *Trace }

// Batch opens a batch append.
func (t *Trace) Batch() Batch {
	t.mu.Lock()
	return Batch{t}
}

// Complete records a duration event on the runtime lane.
func (b Batch) Complete(name, cat Label, start, dur float64) {
	b.t.add(record{ph: 'X', name: name, cat: cat, ts: start * 1e6, dur: dur * 1e6})
}

// Spans records a span block: n events of category cat on lanes up to
// maxPID, counted now and handed to a SpanFunc by replay whenever the
// trace is written — the same n each time — so the data replay reads
// must never change.
func (b Batch) Spans(cat Label, maxPID, n int, replay func(SpanFunc)) {
	l := &b.t.log
	l.spans = append(l.spans, replay)
	l.recs = append(l.recs, record{ph: 's', cat: cat, arg: int32(len(l.spans) - 1)})
	l.n += n
	l.maxPID = max(l.maxPID, maxPID)
}

// Done releases the trace.
func (b Batch) Done() { b.t.mu.Unlock() }

// add appends one record; the caller holds t.mu.
func (t *Trace) add(r record) {
	t.log.recs = append(t.log.recs, r)
	t.log.n++
	if pid := int(r.pid); pid > t.log.maxPID {
		t.log.maxPID = pid
	}
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
// (cat, dur and args omitted when empty, args a map[string]any), without
// building it. A value JSON cannot carry (a NaN timestamp) is returned
// as encoding/json's error, after a partial write.
func (t *Trace) WriteJSON(w io.Writer) error {
	// A merged fleet trace is megabytes: the default 4 KB buffer would
	// be a write call every ~40 events.
	e := traceEncoder{w: bufio.NewWriterSize(w, 64<<10)}
	l := t.snapshot()
	labels.RLock() // after the snapshot: every Label it holds is in the table
	e.strs, e.quoted = labels.strs, labels.quoted
	labels.RUnlock()
	e.w.WriteString(`{"traceEvents":[`)
	e.log(l, 0, "")
	if e.err != nil {
		return e.err
	}
	e.w.WriteString("]}\n")
	return e.w.Flush()
}

// traceEncoder streams a log's events as JSON array elements.
type traceEncoder struct {
	w      *bufio.Writer
	strs   []string // the label table, as of the write
	quoted [][]byte
	buf    []byte // one event's scratch
	sorted []Arg  // one instant's Args, in key order
	n      int    // events written so far
	err    error  // first value JSON cannot carry (NaN, ±Inf)
}

// log writes l's events, merged segments at their positions, with the
// PID shift and process-name prefix of the merges it is nested in.
func (e *traceEncoder) log(l traceLog, pidShift int, prefix string) {
	var cat Label // of the block replaying
	span := func(name Label, pid, tid int, start, dur float64) {
		e.event(&l, &record{ph: 'X', name: name, cat: cat, pid: int32(pid), tid: int32(tid), ts: start * 1e6, dur: dur * 1e6}, pidShift, prefix)
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
		if r := &l.recs[i]; r.ph == 's' {
			cat = r.cat
			l.spans[r.arg](span)
		} else {
			e.event(&l, r, pidShift, prefix)
		}
	}
}

// event writes one record of l as a JSON array element.
func (e *traceEncoder) event(l *traceLog, r *record, pidShift int, prefix string) {
	b := e.buf[:0]
	if e.n > 0 {
		b = append(b, ',')
	}
	e.n++
	b = append(append(b, `{"name":`...), e.quoted[r.name]...)
	if r.cat != 0 {
		b = append(append(b, `,"cat":`...), e.quoted[r.cat]...)
	}
	b = append(append(append(b, `,"ph":"`...), r.ph), `","ts":`...)
	b = e.float(b, r.ts)
	if r.dur != 0 {
		b = e.float(append(b, `,"dur":`...), r.dur)
	}
	b = strconv.AppendInt(append(b, `,"pid":`...), int64(int(r.pid)+pidShift), 10)
	b = strconv.AppendInt(append(b, `,"tid":`...), int64(r.tid), 10)
	switch {
	case r.ph == 'M': // a merged lane's name takes its merges' prefix
		b = append(quote(append(b, `,"args":{"name":`...), prefix+e.strs[r.arg]), '}')
	case r.nargs > 0:
		b = e.args(append(b, `,"args":`...), l.args[r.arg:r.arg+r.nargs])
	}
	b = append(b, '}')
	e.w.Write(b)
	e.buf = b
}

// args appends an instant's Args the way encoding/json writes the
// map[string]any they stand for: keys in order, the last of equal keys
// kept.
func (e *traceEncoder) args(b []byte, args []Arg) []byte {
	s := append(e.sorted[:0], args...)
	slices.SortStableFunc(s, func(x, y Arg) int { return strings.Compare(x.key, y.key) })
	sep := byte('{')
	for i, a := range s {
		if i+1 < len(s) && s[i+1].key == a.key {
			continue
		}
		b = append(quote(append(b, sep), a.key), ':')
		if a.isStr {
			b = quote(b, a.str)
		} else {
			b = strconv.AppendInt(b, int64(a.num), 10)
		}
		sep = ','
	}
	e.sorted = s
	return append(b, '}')
}

// quote appends s as encoding/json writes a string: HTML-escaped,
// U+2028 and U+2029 escaped, each invalid UTF-8 byte as U+FFFD.
func quote(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	for i := 0; i < len(s); {
		c, size := utf8.DecodeRuneInString(s[i:])
		switch i += size; {
		case c == utf8.RuneError && size == 1:
			b = append(b, `\ufffd`...)
		case c == '\\' || c == '"':
			b = append(b, '\\', byte(c))
		case c == '\b' || c == '\t' || c == '\n' || c == '\f' || c == '\r':
			b = append(b, '\\', "btn_fr"[c-'\b'])
		case c < 0x20 || c == '<' || c == '>' || c == '&' || c == '\u2028' || c == '\u2029':
			b = append(b, '\\', 'u', hex[c>>12], hex[c>>8&15], hex[c>>4&15], hex[c&15])
		default:
			b = append(b, s[i-size:i]...)
		}
	}
	return append(b, '"')
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

// WriteJSONFile writes the trace to path through WriteFileAtomic, so a
// failure mid-write never leaves a truncated timeline behind.
func (t *Trace) WriteJSONFile(path string) error {
	return WriteFileAtomic(path, t.WriteJSON)
}

// WriteFileAtomic fills a temporary file next to path through write,
// fsyncs it, renames it over path and fsyncs the directory (tolerating
// EINVAL, on filesystems that order the rename themselves): readers see
// the old file or the new one, and a completed write survives power
// loss. A failure removes the temporary file and leaves path alone.
func WriteFileAtomic(path string, write func(io.Writer) error) error {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err == nil {
		if err = write(f); err == nil {
			err = f.Sync()
		}
		if err = errors.Join(err, f.Close()); err == nil {
			err = os.Rename(f.Name(), path)
		}
		if err != nil {
			os.Remove(f.Name())
		}
	}
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
