package pipeline

import (
	"math"
	"slices"
	"testing"
)

// refProgram appends one stage's fixed 1F1B op order — 2l ops — the
// way the simulator laid its stage programs out before progOp.
func refProgram(prog []Op, stage, stages, l int) []Op {
	warmup := min(stages-stage-1, l)
	for m := 0; m < warmup; m++ {
		prog = append(prog, Op{stage, m, forward})
	}
	for i := 0; i < l-warmup; i++ {
		prog = append(prog, Op{stage, warmup + i, forward}, Op{stage, i, backward})
	}
	for m := l - warmup; m < l; m++ {
		prog = append(prog, Op{stage, m, backward})
	}
	return prog
}

// refSimulate is the 1F1B loop Simulate replaced, kept as the oracle
// FuzzExecOrder holds it to. It finds the execution order as it runs —
// every pass walks the stages in turn and runs each as far as its
// dependencies have completed — and records each op with its times.
func refSimulate(w Work) (ops []timedOp, iterTime float64, busySum []float64) {
	S, l := w.Stages(), w.Microbatches()
	endF, endB := make([]float64, S*l), make([]float64, S*l)
	doneF, doneB := make([]bool, S*l), make([]bool, S*l)
	pos, clock, stageBusy := make([]int, S), make([]float64, S), make([]float64, S)
	var prog []Op
	for s := 0; s < S; s++ {
		prog = refProgram(prog, s, S, l)
	}
	depEnd := func(r Op) (float64, bool) {
		if r.Kind == forward {
			if r.Stage == 0 {
				return 0, true
			}
			i := (r.Stage-1)*l + r.MB
			return endF[i] + w.p2p(r.Stage-1), doneF[i]
		}
		if r.Stage == S-1 {
			i := r.Stage*l + r.MB
			return endF[i], doneF[i]
		}
		i := (r.Stage+1)*l + r.MB
		return endB[i] + w.p2p(r.Stage), doneB[i]
	}
	for remaining := 2 * S * l; remaining > 0; {
		for s := 0; s < S; s++ {
			for ; pos[s] < 2*l; pos[s]++ {
				r := prog[s*2*l+pos[s]]
				dep, ok := depEnd(r)
				if !ok {
					break
				}
				start := max(clock[s], dep)
				d := w.Fwd[s][r.MB]
				if r.Kind == backward {
					d = w.Bwd[s][r.MB]
				}
				finish := w.finish(s, start, d)
				if r.Kind == forward {
					endF[s*l+r.MB], doneF[s*l+r.MB] = finish, true
				} else {
					endB[s*l+r.MB], doneB[s*l+r.MB] = finish, true
				}
				clock[s] = finish
				stageBusy[s] += busy(start, finish, d, w.rate(s))
				ops = append(ops, timedOp{r, start, finish})
				remaining--
			}
		}
	}
	for _, c := range clock {
		iterTime = max(iterTime, c)
	}
	return ops, iterTime, stageBusy
}

// FuzzExecOrder holds the shared execution order to the loop that used
// to discover it: over random durations (zero included), p2p vectors
// and rate schedules, the old loop runs exactly Order(stages,
// microbatches), and every recorded start and end, IterTime and
// StageBusy equal its own bit for bit. A trainer resolves one order per
// class and replays every rank's times against it, which is sound only
// while the order depends on the shape alone.
func FuzzExecOrder(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{7, 39, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add([]byte{3, 11, 1, 8, 16, 0, 0, 1, 0, 5, 250, 17, 99, 4, 4, 4, 0, 2, 1})
	f.Add([]byte("a pipeline of stragglers, throttled and stalled"))
	f.Fuzz(func(t *testing.T, data []byte) {
		src := &byteSrc{b: data}
		for step := 0; step < 8; step++ {
			w := fuzzWork(src)
			if w.Validate() != nil {
				continue
			}
			res, err := Simulate(OneFOneB, w)
			if err != nil {
				t.Fatal(err)
			}
			want, iterTime, stageBusy := refSimulate(w)
			order := Order(w.Stages(), w.Microbatches())
			if !slices.Equal(res.Order, order) || len(order) != len(want) {
				t.Fatalf("step %d: simulated order differs from Order(%d, %d)", step, w.Stages(), w.Microbatches())
			}
			got := timeline(res)
			for i, op := range want {
				if got := got[i]; got.Op != op.Op || math.Float64bits(got.Start) != math.Float64bits(op.Start) ||
					math.Float64bits(got.End) != math.Float64bits(op.End) {
					t.Fatalf("step %d: op %d ran %+v, the old loop %+v", step, i, got, op)
				}
			}
			if math.Float64bits(res.IterTime) != math.Float64bits(iterTime) {
				t.Fatalf("step %d: IterTime %v, the old loop %v", step, res.IterTime, iterTime)
			}
			for s, b := range stageBusy {
				if math.Float64bits(res.StageBusy[s]) != math.Float64bits(b) {
					t.Fatalf("step %d: StageBusy[%d] %v, the old loop %v", step, s, res.StageBusy[s], b)
				}
			}
		}
	})
}
