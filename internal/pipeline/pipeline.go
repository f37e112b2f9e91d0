// Package pipeline simulates the paper's production pipeline schedule,
// 1F1B, exactly over stages whose per-microbatch compute times may
// differ — the setting created by data heterogeneity (§2.3). The
// simulator produces the full operation timeline, from which iteration
// time, pipeline bubbles (Figure 4), and the first-stage intervals of
// Figure 12 are derived. It also implements the O(p)
// interval-prediction dynamic program that Algorithm 2's GETINTERVAL
// uses.
//
// Aliasing: a Result from the package-level Simulate is the caller's
// to keep; one from a Simulator's Simulate or SimulateUntraced aliases
// that simulator's buffers (Ops, StageBusy) until its next call. Either
// way Result.Work still points at the caller's rows.
package pipeline

import (
	"fmt"
	"slices"
)

// Schedule names a pipeline schedule.
type Schedule int

// OneFOneB is the 1F1B schedule (DAPPLE/PipeDream-flush): warmup
// forwards, steady one-forward-one-backward, cooldown backwards.
// DistTrain uses 1F1B; GPipe "consumes more memory without offering
// better training efficiency" (§4.2), so 1F1B is the one schedule
// simulated.
const OneFOneB Schedule = 0

// OpKind distinguishes forward and backward work.
type OpKind int

const (
	forward OpKind = iota
	backward
)

func (k OpKind) String() string {
	if k == forward {
		return "F"
	}
	return "B"
}

// Op is one executed unit of work in the timeline.
type Op struct {
	Stage int
	MB    int // microbatch index in schedule order, 0-based
	Kind  OpKind
	Start float64
	End   float64
}

// Work holds the per-stage, per-microbatch compute durations.
// Fwd[s][m] is the forward time of microbatch m at stage s; Bwd is the
// backward analogue. All stages must agree on the microbatch count.
type Work struct {
	Fwd [][]float64
	Bwd [][]float64
	// P2P[s] is the activation/gradient transfer time between stage s
	// and s+1; nil means zero-cost links.
	P2P []float64
	// Rates[s] is stage s's time-varying speed profile (scenario
	// injection: stragglers, throttling); nil means every stage runs at
	// nominal speed and the simulation is byte-identical to the
	// rate-free path.
	Rates []RateSchedule
}

// Stages returns the stage count.
func (w Work) Stages() int { return len(w.Fwd) }

// Microbatches returns the microbatch count.
func (w Work) Microbatches() int {
	if len(w.Fwd) == 0 {
		return 0
	}
	return len(w.Fwd[0])
}

// Validate checks shape consistency.
func (w Work) Validate() error {
	s := w.Stages()
	if s == 0 {
		return fmt.Errorf("pipeline: no stages")
	}
	if len(w.Bwd) != s {
		return fmt.Errorf("pipeline: %d fwd stages but %d bwd stages", s, len(w.Bwd))
	}
	l := w.Microbatches()
	if l == 0 {
		return fmt.Errorf("pipeline: no microbatches")
	}
	for i := 0; i < s; i++ {
		if len(w.Fwd[i]) != l || len(w.Bwd[i]) != l {
			return fmt.Errorf("pipeline: stage %d has inconsistent microbatch count", i)
		}
	}
	if w.P2P != nil && len(w.P2P) != s-1 {
		return fmt.Errorf("pipeline: P2P wants %d links, got %d", s-1, len(w.P2P))
	}
	if w.Rates != nil {
		if len(w.Rates) != s {
			return fmt.Errorf("pipeline: Rates wants %d stages, got %d", s, len(w.Rates))
		}
		for i, rs := range w.Rates {
			if err := rs.Validate(); err != nil {
				return fmt.Errorf("stage %d: %w", i, err)
			}
		}
	}
	return nil
}

func (w *Work) p2p(link int) float64 {
	if w.P2P == nil {
		return 0
	}
	return w.P2P[link]
}

// Result is a completed simulation.
type Result struct {
	Work Work
	// Ops in execution order per stage.
	Ops []Op
	// IterTime is the makespan of the pipeline (excludes optimizer).
	IterTime float64
	// StageBusy is total compute time per stage.
	StageBusy []float64
}

// BubbleFraction returns the idle fraction of one stage.
func (r *Result) BubbleFraction(stage int) float64 {
	if r.IterTime == 0 {
		return 0
	}
	return 1 - r.StageBusy[stage]/r.IterTime
}

// MeanBubbleFraction averages bubble fractions over all stages — the
// aggregate GPU-wasting quantity of Figure 4.
func (r *Result) MeanBubbleFraction() float64 {
	if len(r.StageBusy) == 0 {
		return 0
	}
	total := 0.0
	for s := range r.StageBusy {
		total += r.BubbleFraction(s)
	}
	return total / float64(len(r.StageBusy))
}

// StageOps returns the ops of one stage in execution order.
func (r *Result) StageOps(stage int) []Op {
	var out []Op
	for _, op := range r.Ops {
		if op.Stage == stage {
			out = append(out, op)
		}
	}
	return out
}

// opRef identifies an op for dependency wiring.
type opRef struct {
	stage int
	mb    int
	kind  OpKind
}

// appendStageProgram appends one stage's fixed 1F1B op order — 2l ops
// — to prog, so Simulate can lay all stage programs out in a single
// backing slice.
func appendStageProgram(prog []opRef, stage, stages, l int) []opRef {
	warmup := min(stages-stage-1, l)
	for m := 0; m < warmup; m++ {
		prog = append(prog, opRef{stage, m, forward})
	}
	for i := 0; i < l-warmup; i++ {
		prog = append(prog, opRef{stage, warmup + i, forward})
		prog = append(prog, opRef{stage, i, backward})
	}
	for m := l - warmup; m < l; m++ {
		prog = append(prog, opRef{stage, m, backward})
	}
	return prog
}

// Simulator owns every buffer a simulation fills — completion tables,
// stage programs and clocks, the Result with its StageBusy and op
// timeline — so a long-lived one stops allocating once it has seen its
// largest shape. Not safe for concurrent use; the zero value is ready.
type Simulator struct {
	// Op completion times, indexed stage*l+mb; done marks executed ops
	// (an end time of 0 is legal for zero-duration work).
	endF, endB   []float64
	doneF, doneB []bool
	prog         []opRef // every stage's program (2l ops each), back to back
	progS, progL int     // the (stages, microbatches) prog was built for
	pos          []int   // next unexecuted op per stage
	stageClock   []float64
	res          Result
}

// zeroed resizes a scratch slice to n zero elements, reusing capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// Simulate computes the exact 1F1B timeline over the given work (the
// schedule argument can only name OneFOneB). The dependency structure is:
//
//	F(s,m) after F(s-1,m) + p2p  and the stage's previous op
//	B(s,m) after B(s+1,m) + p2p  (last stage: after F(s,m)) and the
//	       stage's previous op
//
// Op order within a stage is fixed by the schedule; a stage blocked on
// a dependency idles (a pipeline bubble). The returned Result aliases
// the simulator's scratch, valid until its next call — copy out what
// must outlive it. A failed call leaves the simulator usable.
func (sim *Simulator) Simulate(_ Schedule, w Work) (*Result, error) {
	return sim.simulate(w, true)
}

// SimulateUntraced is Simulate without the op timeline: the same
// IterTime and StageBusy, bit for bit, and an empty Result.Ops — for
// callers that read only the totals.
func (sim *Simulator) SimulateUntraced(w Work) (*Result, error) {
	return sim.simulate(w, false)
}

// simulate runs the 1F1B loop, appending every executed op to
// Result.Ops when record is set.
func (sim *Simulator) simulate(w Work, record bool) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	S, l := w.Stages(), w.Microbatches()

	sim.endF, sim.endB = zeroed(sim.endF, S*l), zeroed(sim.endB, S*l)
	sim.doneF, sim.doneB = zeroed(sim.doneF, S*l), zeroed(sim.doneB, S*l)
	sim.pos, sim.stageClock = zeroed(sim.pos, S), zeroed(sim.stageClock, S)
	endF, endB, doneF, doneB := sim.endF, sim.endB, sim.doneF, sim.doneB
	pos, stageClock := sim.pos, sim.stageClock
	if S != sim.progS || l != sim.progL {
		sim.prog = slices.Grow(sim.prog[:0], 2*S*l)
		for s := 0; s < S; s++ {
			sim.prog = appendStageProgram(sim.prog, s, S, l)
		}
		sim.progS, sim.progL = S, l
	}
	prog := sim.prog

	duration := func(r opRef) float64 {
		if r.kind == forward {
			return w.Fwd[r.stage][r.mb]
		}
		return w.Bwd[r.stage][r.mb]
	}
	// depEnd returns the cross-stage dependency completion time; ok is
	// false if the dependency has not executed yet.
	depEnd := func(r opRef) (float64, bool) {
		if r.kind == forward {
			if r.stage == 0 {
				return 0, true
			}
			i := (r.stage-1)*l + r.mb
			return endF[i] + w.p2p(r.stage-1), doneF[i]
		}
		if r.stage == S-1 {
			i := r.stage*l + r.mb
			return endF[i], doneF[i]
		}
		i := (r.stage+1)*l + r.mb
		return endB[i] + w.p2p(r.stage), doneB[i]
	}

	res := &sim.res
	*res = Result{Work: w, StageBusy: zeroed(res.StageBusy, S), Ops: res.Ops[:0]}
	if record {
		res.Ops = slices.Grow(res.Ops, 2*S*l)
	}
	remaining := 2 * S * l
	for remaining > 0 {
		advanced := false
		for s := 0; s < S; s++ {
			for pos[s] < 2*l {
				r := prog[s*2*l+pos[s]]
				dep, ok := depEnd(r)
				if !ok {
					break
				}
				start := max(stageClock[s], dep)
				d := duration(r)
				finish := w.finish(s, start, d)
				if r.kind == forward {
					endF[r.stage*l+r.mb] = finish
					doneF[r.stage*l+r.mb] = true
				} else {
					endB[r.stage*l+r.mb] = finish
					doneB[r.stage*l+r.mb] = true
				}
				stageClock[s] = finish
				res.StageBusy[s] += busy(start, finish, d, w.rate(s))
				if record {
					res.Ops = append(res.Ops, Op{Stage: s, MB: r.mb, Kind: r.kind, Start: start, End: finish})
				}
				pos[s]++
				remaining--
				advanced = true
			}
		}
		if !advanced {
			return nil, fmt.Errorf("pipeline: schedule deadlocked with %d ops remaining", remaining)
		}
	}
	for _, c := range stageClock {
		res.IterTime = max(res.IterTime, c)
	}
	return res, nil
}

// Simulate simulates on a fresh Simulator: the Result is the caller's.
func Simulate(sch Schedule, w Work) (*Result, error) {
	return new(Simulator).Simulate(sch, w)
}
