package metrics

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
)

// The reference recorder: the sharded per-lane recorder trace.go
// replaced, kept verbatim (type names aside) as the oracle
// FuzzTraceEquivalence and the encoder corner table hold the log to.
// It materialises []TraceEvent and encodes it through encoding/json,
// which is the definition of the bytes WriteJSON must produce.

// TraceEvent is one trace entry. Ph "X" is a complete (duration)
// event, "i" an instant, "M" metadata; TS and Dur are microseconds,
// per the format spec.
type TraceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// refTrace accumulates trace events; safe for concurrent use. The
// recorder is sharded: every PID lane owns its own append buffer and
// lock, so concurrent writers on different lanes (DP-rank workers,
// fleet tenants) never contend on a global mutex. A global atomic
// sequence number stamps every event, and reads merge the lanes by
// sequence — exactly the recorder's append order — so flush output is
// byte-identical to the single-buffer recorder this replaces.
type refTrace struct {
	mu    sync.RWMutex // guards the lane table, not the events
	lanes map[int]*refLane

	seq    atomic.Uint64
	count  atomic.Int64
	maxPID atomic.Int64
}

// refLane is one PID's private append buffer.
type refLane struct {
	mu  sync.Mutex
	evs []seqEvent
}

// seqEvent pairs an event with its global append sequence.
type seqEvent struct {
	seq uint64
	ev  TraceEvent
}

// newRefTrace returns an empty trace.
func newRefTrace() *refTrace { return &refTrace{} }

// lane returns PID's lane, creating it on first use.
func (t *refTrace) lane(pid int) *refLane {
	t.mu.RLock()
	l := t.lanes[pid]
	t.mu.RUnlock()
	if l != nil {
		return l
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if l = t.lanes[pid]; l != nil {
		return l
	}
	if t.lanes == nil {
		t.lanes = make(map[int]*refLane)
	}
	l = &refLane{}
	t.lanes[pid] = l
	return l
}

// bumpMaxPID raises the incremental MaxPID watermark to at least pid.
func (t *refTrace) bumpMaxPID(pid int) {
	for {
		cur := t.maxPID.Load()
		if int64(pid) <= cur || t.maxPID.CompareAndSwap(cur, int64(pid)) {
			return
		}
	}
}

// Reserve pre-grows PID's lane for n more events without recording
// anything — callers that know the run length (iterations × ops per
// iteration) preallocate capacity instead of amortized re-growing.
func (t *refTrace) Reserve(pid, n int) {
	if n <= 0 {
		return
	}
	l := t.lane(pid)
	l.mu.Lock()
	if free := cap(l.evs) - len(l.evs); free < n {
		grown := make([]seqEvent, len(l.evs), len(l.evs)+n)
		copy(grown, l.evs)
		l.evs = grown
	}
	l.mu.Unlock()
}

// Complete records a duration event. start and dur are in simulated
// seconds; the trace stores microseconds.
func (t *refTrace) Complete(name, cat string, pid, tid int, start, dur float64) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "X", TS: start * 1e6, Dur: dur * 1e6, PID: pid, TID: tid})
}

// Instant records a point event at start seconds.
func (t *refTrace) Instant(name, cat string, pid int, start float64, args map[string]any) {
	t.add(TraceEvent{Name: name, Cat: cat, Ph: "i", TS: start * 1e6, PID: pid, Args: args})
}

// NameProcess attaches a human-readable name to a pid lane.
func (t *refTrace) NameProcess(pid int, name string) {
	t.add(TraceEvent{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
}

func (t *refTrace) add(ev TraceEvent) {
	l := t.lane(ev.PID)
	l.mu.Lock()
	// The sequence is claimed under the lane lock: two writers on the
	// same lane serialise here, so every lane is (absent bulk merges)
	// already sorted by sequence and the read side can k-way merge
	// sorted runs instead of sorting the whole trace.
	seq := t.seq.Add(1) - 1
	l.evs = append(l.evs, seqEvent{seq, ev})
	l.mu.Unlock()
	t.count.Add(1)
	t.bumpMaxPID(ev.PID)
}

// Len returns the recorded event count.
func (t *refTrace) Len() int {
	return int(t.count.Load())
}

// Events returns a snapshot of the recorded events in append order.
func (t *refTrace) Events() []TraceEvent {
	return t.merged()
}

// merged collects every lane and restores the global append order by
// sequence number — a k-way merge over the lanes' sequence-sorted
// runs, not a global sort: merging k sorted runs of n total events is
// O(n log k) with no comparison-sort constant, and k (the lane count)
// is small. Sequences are claimed under the lane lock, so lanes are
// sorted by construction; a lane that a concurrent AppendOffset raced
// out of order (its bulk block claims sequences before taking lane
// locks) is detected and sorted first, preserving correctness on the
// slow path.
func (t *refTrace) merged() []TraceEvent {
	t.mu.RLock()
	lanes := make([]*refLane, 0, len(t.lanes))
	for _, l := range t.lanes {
		lanes = append(lanes, l)
	}
	t.mu.RUnlock()
	runs := make([][]seqEvent, 0, len(lanes))
	total := 0
	for _, l := range lanes {
		l.mu.Lock()
		run := l.evs[:len(l.evs):len(l.evs)]
		l.mu.Unlock()
		if len(run) == 0 {
			continue
		}
		if !sortedBySeq(run) {
			run = append([]seqEvent(nil), run...)
			sort.Slice(run, func(a, b int) bool { return run[a].seq < run[b].seq })
		}
		runs = append(runs, run)
		total += len(run)
	}
	out := make([]TraceEvent, 0, total)
	switch len(runs) {
	case 0:
		return nil
	case 1:
		for _, se := range runs[0] {
			out = append(out, se.ev)
		}
		return out
	}

	// Binary min-heap of run indices, keyed by each run's head sequence.
	cursor := make([]int, len(runs))
	head := func(i int) uint64 { return runs[i][cursor[i]].seq }
	h := make([]int, len(runs))
	for i := range h {
		h[i] = i
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if r := c + 1; r < len(h) && head(h[r]) < head(h[c]) {
				c = r
			}
			if head(h[i]) <= head(h[c]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for len(h) > 0 {
		r := h[0]
		out = append(out, runs[r][cursor[r]].ev)
		cursor[r]++
		if cursor[r] == len(runs[r]) {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
	return out
}

// sortedBySeq reports whether the run is ascending in sequence.
func sortedBySeq(run []seqEvent) bool {
	for i := 1; i < len(run); i++ {
		if run[i].seq < run[i-1].seq {
			return false
		}
	}
	return true
}

// MaxPID returns the highest process ID any recorded event uses (0 for
// an empty trace) — the lane width a merge must step over. Tracked
// incrementally; O(1).
func (t *refTrace) MaxPID() int {
	return int(t.maxPID.Load())
}

// AppendOffset merges another trace into this one as a block of
// private lanes: every event of src is appended in order with its PID
// shifted by pidBase, and process_name metadata gets the given prefix
// so lanes stay attributable after the merge. The fleet runtime uses
// it to fold per-job timelines into one fleet Chrome trace — job j's
// lanes land at [base_j, base_j + MaxPID_j], disjoint from every other
// tenant's. Deterministic: same src contents and arguments, same
// appended events. Bulk: one contiguous sequence block is claimed for
// the whole merge and each destination lane is locked exactly once.
func (t *refTrace) AppendOffset(src *refTrace, pidBase int, prefix string) {
	evs := src.merged()
	if len(evs) == 0 {
		return
	}
	base := t.seq.Add(uint64(len(evs))) - uint64(len(evs))
	perLane := make(map[int][]seqEvent)
	maxPID := 0
	for i, ev := range evs {
		ev.PID += pidBase
		if ev.Ph == "M" && ev.Name == "process_name" && prefix != "" {
			args := make(map[string]any, len(ev.Args))
			for k, v := range ev.Args {
				args[k] = v
			}
			if name, ok := args["name"].(string); ok {
				args["name"] = prefix + name
			}
			ev.Args = args
		}
		if ev.PID > maxPID {
			maxPID = ev.PID
		}
		perLane[ev.PID] = append(perLane[ev.PID], seqEvent{base + uint64(i), ev})
	}
	for pid, run := range perLane {
		l := t.lane(pid)
		l.mu.Lock()
		l.evs = append(l.evs, run...)
		l.mu.Unlock()
	}
	t.count.Add(int64(len(evs)))
	t.bumpMaxPID(maxPID)
}

// WriteJSON emits the Chrome trace file ({"traceEvents": [...]}).
func (t *refTrace) WriteJSON(w io.Writer) error {
	events := t.merged()
	if events == nil {
		events = []TraceEvent{}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}{events})
}
