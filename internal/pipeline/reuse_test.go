package pipeline

import (
	"math"
	"testing"
)

// byteSrc deals a fuzz input out as small integers, wrapping around, so
// any byte string drives a full sequence of shapes.
type byteSrc struct {
	b []byte
	i int
}

func (s *byteSrc) next(mod int) int {
	if len(s.b) == 0 {
		return 0
	}
	v := int(s.b[s.i%len(s.b)])
	s.i++
	return v % mod
}

// fuzzWork derives one simulation input from the source: 1-8 stages,
// 1-40 microbatches, durations on a quarter grid (zero included), P2P
// and Rates each nil or set, and now and then a shape Validate rejects
// (a ragged row, a short P2P, a non-increasing rate bound).
func fuzzWork(src *byteSrc) Work {
	S, l := 1+src.next(8), 1+src.next(40)
	w := Work{Fwd: make([][]float64, S), Bwd: make([][]float64, S)}
	for s := 0; s < S; s++ {
		w.Fwd[s], w.Bwd[s] = make([]float64, l), make([]float64, l)
		for m := 0; m < l; m++ {
			w.Fwd[s][m] = float64(src.next(9)) * 0.25
			w.Bwd[s][m] = float64(src.next(17)) * 0.25
		}
	}
	if src.next(2) == 1 {
		w.P2P = make([]float64, S-1)
		for i := range w.P2P {
			w.P2P[i] = float64(src.next(5)) * 0.125
		}
	}
	if src.next(3) == 0 {
		w.Rates = make([]RateSchedule, S)
		for s := range w.Rates {
			until := 0.0
			for n := src.next(3); n > 0; n-- {
				until += 0.5 + float64(src.next(8))
				w.Rates[s] = append(w.Rates[s], RateSeg{Until: until, Rate: []float64{0.5, 2, 0.25}[src.next(3)]})
			}
		}
	}
	switch src.next(9) {
	case 0:
		s := src.next(S)
		w.Bwd[s] = w.Bwd[s][:l-1]
	case 1:
		w.P2P = make([]float64, S)
	case 2:
		w.Rates = make([]RateSchedule, S)
		w.Rates[S-1] = RateSchedule{{Until: 2, Rate: 1}, {Until: 2, Rate: 2}}
	}
	return w
}

// sameResult compares two simulations bit for bit.
func sameResult(t *testing.T, step int, got, want *Result) {
	t.Helper()
	if math.Float64bits(got.IterTime) != math.Float64bits(want.IterTime) {
		t.Fatalf("step %d: IterTime %v, fresh %v", step, got.IterTime, want.IterTime)
	}
	if len(got.StageBusy) != len(want.StageBusy) || len(got.Ops) != len(want.Ops) {
		t.Fatalf("step %d: shape (%d stages, %d ops), fresh (%d, %d)", step,
			len(got.StageBusy), len(got.Ops), len(want.StageBusy), len(want.Ops))
	}
	for s := range want.StageBusy {
		if math.Float64bits(got.StageBusy[s]) != math.Float64bits(want.StageBusy[s]) {
			t.Fatalf("step %d: StageBusy[%d] %v, fresh %v", step, s, got.StageBusy[s], want.StageBusy[s])
		}
	}
	for i, op := range want.Ops {
		g := got.Ops[i]
		if g.Stage != op.Stage || g.MB != op.MB || g.Kind != op.Kind ||
			math.Float64bits(g.Start) != math.Float64bits(op.Start) || math.Float64bits(g.End) != math.Float64bits(op.End) {
			t.Fatalf("step %d: op %d %+v, fresh %+v", step, i, g, op)
		}
	}
}

// FuzzSimulatorReuse drives one long-lived Simulator through a
// byte-derived sequence of shapes that grow and shrink, valid and
// invalid, and holds every call to a fresh Simulate of the same input:
// same error text, or the same result bit for bit. Reuse must be
// invisible, and a failed call must leave the scratch usable. Each
// input also runs untraced on the same Simulator, which must give the
// same error text, or the same IterTime and StageBusy bit for bit and
// no ops.
func FuzzSimulatorReuse(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 39, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{3, 11, 1, 8, 16, 0, 0, 1, 0, 5, 250, 17, 99, 4, 4, 4, 0, 2, 1})
	f.Add([]byte("the quick brown fox jumps over the lazy dog, twice over"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		var sim Simulator
		for step := 0; step < 12; step++ {
			w := fuzzWork(src)
			want, wantErr := Simulate(OneFOneB, w)
			got, gotErr := sim.Simulate(OneFOneB, w)
			if (gotErr == nil) != (wantErr == nil) || (gotErr != nil && gotErr.Error() != wantErr.Error()) {
				t.Fatalf("step %d: error %v, fresh %v", step, gotErr, wantErr)
			}
			if wantErr == nil {
				sameResult(t, step, got, want)
			}
			quiet, quietErr := sim.SimulateUntraced(w)
			if (quietErr == nil) != (wantErr == nil) || (quietErr != nil && quietErr.Error() != wantErr.Error()) {
				t.Fatalf("step %d: untraced error %v, traced %v", step, quietErr, wantErr)
			}
			if wantErr == nil {
				if len(quiet.Ops) != 0 {
					t.Fatalf("step %d: untraced simulation recorded %d ops", step, len(quiet.Ops))
				}
				sameResult(t, step, quiet, &Result{IterTime: want.IterTime, StageBusy: want.StageBusy})
			}
		}
	})
}

// TestSimulatorAllocFree pins the point of the Simulator: after one
// warm-up call at its largest shape, simulating allocates nothing —
// at that shape or a smaller one, rates or none, traced or not.
func TestSimulatorAllocFree(t *testing.T) {
	big := UniformWork([]float64{1, 2, 3, 2, 1, 2}, []float64{2, 4, 6, 4, 2, 4}, 16)
	big.P2P = []float64{0.1, 0.1, 0.1, 0.1, 0.1}
	small := UniformWork([]float64{1, 2}, []float64{2, 4}, 5)
	small.Rates = []RateSchedule{{{Until: 3, Rate: 0.5}}, nil}
	var sim Simulator
	if _, err := sim.Simulate(OneFOneB, big); err != nil {
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(50, func() {
		for _, w := range []Work{big, small, big, small} {
			if _, err := sim.Simulate(OneFOneB, w); err != nil {
				t.Fatal(err)
			}
			if _, err := sim.SimulateUntraced(w); err != nil {
				t.Fatal(err)
			}
		}
	}); got != 0 {
		t.Errorf("a warm Simulator allocated %v times per 8 simulations, want 0", got)
	}
}
