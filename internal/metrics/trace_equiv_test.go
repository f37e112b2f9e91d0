package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// sameTrace holds the log to the reference recorder: equal WriteJSON
// bytes (or equal errors), Len and MaxPID.
func sameTrace(t *testing.T, label string, got *Trace, want *refTrace) {
	t.Helper()
	var g, w bytes.Buffer
	gerr, werr := got.WriteJSON(&g), want.WriteJSON(&w)
	switch {
	case gerr != nil || werr != nil:
		if gerr == nil || werr == nil || gerr.Error() != werr.Error() {
			t.Fatalf("%s: WriteJSON error %v, reference %v", label, gerr, werr)
		}
	case !bytes.Equal(g.Bytes(), w.Bytes()):
		t.Fatalf("%s: WriteJSON bytes differ:\n%s\nreference:\n%s", label, g.Bytes(), w.Bytes())
	}
	if got.Len() != want.Len() || got.MaxPID() != want.MaxPID() {
		t.Fatalf("%s: Len %d MaxPID %d, reference %d %d", label, got.Len(), got.MaxPID(), want.Len(), want.MaxPID())
	}
}

var (
	// Names, categories, process names and merge prefixes: plain ones,
	// the empty string, the one name AppendOffset treats specially, and
	// every class of character encoding/json escapes.
	fuzzStrings = []string{"F0", "B1", "", "process_name", "pipeline", "job/", "<", "&", `"`, "a\\b", "\u2028", "\xff", "\xe2\x82", "\xac", "tab\t"}
	// Seconds; the recorder stores them times 1e6, which puts 1e15 and
	// 1e-13 on encoding/json's two format switches.
	fuzzSeconds = []float64{0, math.Copysign(0, -1), 0.25, 1.5, -3, 123.456789125, 1e15, 1e-13, 5e-324, math.MaxFloat64 / 1e6, math.NaN(), math.Inf(1)}
	fuzzArgs    = []map[string]any{nil, {}, {"iter": 3}, {"b": "<x>", "a": 1.5}, {"name": "not-a-process"}}
)

// FuzzTraceEquivalence drives the log and the reference recorder with
// one byte-coded op sequence over four traces — six bytes an op: kind,
// trace, four operands — and requires every trace to end up equal.
func FuzzTraceEquivalence(f *testing.F) {
	const (
		complete, instant, nameProcess, reserve, merge = 0, 1, 2, 3, 4
	)
	// Two named lanes with events, merged into trace 1 under a prefix;
	// an event added to the source afterwards must stay out of trace 1.
	f.Add([]byte{
		nameProcess, 0, 0, 0, 0, 0, nameProcess, 0, 1, 0, 1, 0, complete, 0, 0, 4, 6, 0x32,
		instant, 0, 1, 2, 0, 3, merge, 1, 0, 3, 5, 0, complete, 0, 1, 4, 1, 2,
	})
	// Nested two deep (0 into 1, 1 into 2), with and without a prefix,
	// an empty source (3), then each trace into itself.
	f.Add([]byte{
		nameProcess, 0, 6, 0, 2, 0, complete, 0, 3, 0, 0, 2, merge, 1, 0, 2, 5, 0, nameProcess, 1, 7, 0, 0, 0,
		merge, 2, 1, 4, 2, 0, merge, 2, 3, 1, 5, 0, merge, 2, 2, 1, 6, 0, merge, 0, 0, 0, 2, 0,
		reserve, 2, 9, 0, 0, 0, instant, 2, 3, 3, 7, 0, merge, 1, 2, 6, 12, 0,
	})
	// Prefixes whose bytes complete a rune across the join ("\xe2\x82" +
	// "\xac" is "€"), and a timestamp JSON cannot carry.
	f.Add([]byte{nameProcess, 0, 13, 0, 0, 0, merge, 1, 0, 0, 12, 0, complete, 2, 0, 0, 0, 10, merge, 1, 2, 1, 2, 0})

	f.Fuzz(func(t *testing.T, prog []byte) {
		const traces = 4
		var got [traces]*Trace
		var want [traces]*refTrace
		for i := range got {
			got[i], want[i] = NewTrace(), newRefTrace()
		}
		str := func(b byte) string { return fuzzStrings[int(b)%len(fuzzStrings)] }
		for ; len(prog) >= 6; prog = prog[6:] {
			i, a, b, c, d := int(prog[1])%traces, prog[2], prog[3], prog[4], prog[5]
			pid, tid := int(c%5), int(c/5%4)
			ts, dur := fuzzSeconds[int(d&15)%len(fuzzSeconds)], fuzzSeconds[int(d>>4)%len(fuzzSeconds)]
			switch prog[0] % 5 {
			case complete:
				completeOn(got[i], str(a), str(b), pid, tid, ts, dur)
				want[i].Complete(str(a), str(b), pid, tid, ts, dur)
			case instant:
				args := fuzzArgs[int(d>>4)%len(fuzzArgs)]
				got[i].Instant(str(a), str(b), ts, args)
				want[i].Instant(str(a), str(b), 0, ts, args)
			case nameProcess:
				got[i].NameProcess(pid, str(a))
				want[i].NameProcess(pid, str(a))
			case reserve:
				got[i].Reserve(int(a) - 1)
				want[i].Reserve(pid, int(a)-1)
			case merge:
				src := int(a) % traces
				if want[i].Len()+want[src].Len() > 4096 {
					continue // repeated self-merges double the reference's copy
				}
				got[i].AppendOffset(got[src], int(b%7), str(c))
				want[i].AppendOffset(want[src], int(b%7), str(c))
			}
		}
		for i := range got {
			sameTrace(t, "trace "+string(rune('0'+i)), got[i], want[i])
		}
	})
}

// TestTraceEncoderCorners feeds the streaming encoder the values where
// a hand-written JSON writer goes wrong — encoding/json's float format
// switches at 1e-6 and 1e21, signed zero, the extremes, and strings
// needing escapes — against json.Marshal of the equivalent TraceEvent.
func TestTraceEncoderCorners(t *testing.T) {
	floats := []float64{0, math.Copysign(0, -1), 1e21, 999999999999999868928, 1e-6, 1e-7, -1e-7, 1.5e-9,
		123456789.125, 5e-324, math.MaxFloat64, -math.MaxFloat64, 1, 100, 0.1}
	names := []string{"F0", "<", "&", ">", `"`, `a\b`, "\u2028", "\u2029", "\xff", "tab\t", "nul\x00", "é", ""}
	for _, f := range floats {
		for _, name := range names {
			args := map[string]any{name: name, "f": f}
			ev := TraceEvent{Name: name, Cat: name, Ph: "i", TS: f, Dur: f, PID: 7, TID: 2, Args: args}
			one, err := json.Marshal(ev)
			if err != nil {
				t.Fatal(err)
			}
			want := `{"traceEvents":[` + string(one) + "," + string(one) + "]}\n"

			tr := NewTrace()
			r := record{ph: 'i', name: tr.intern(name), cat: tr.intern(name), pid: 7, tid: 2, ts: f, dur: f}
			tr.add(r, args) // raw microseconds: no *1e6
			tr.add(r, args)
			var got bytes.Buffer
			if err := tr.WriteJSON(&got); err != nil {
				t.Fatal(err)
			}
			if got.String() != want {
				t.Errorf("ts=dur=%g name=%q:\ngot  %swant %s", f, name, got.String(), want)
			}
		}
	}
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, want := json.Marshal(TraceEvent{TS: f})
		tr := NewTrace()
		tr.add(record{ph: 'X', name: tr.intern("op"), cat: tr.intern(""), ts: f}, nil)
		if err := tr.WriteJSON(new(bytes.Buffer)); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("ts=%g: error %v, encoding/json says %v", f, err, want)
		}
	}
}
