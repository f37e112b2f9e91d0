// Package pipeline simulates the paper's production pipeline schedule,
// 1F1B, exactly over stages whose per-microbatch compute times may
// differ — the setting created by data heterogeneity (§2.3). The
// simulator produces the full operation timeline, from which iteration
// time, pipeline bubbles (Figure 4), and the first-stage intervals of
// Figure 12 are derived. It also implements the O(p)
// interval-prediction dynamic program that Algorithm 2's GETINTERVAL
// uses.
//
// A timeline is times only. The order the ops run in depends on the
// pipeline's shape alone (Order), so a simulation writes each op's
// start and end, a Span, into a slice the caller owns, and a reader
// pairs Spans[i] with Order[i].
//
// Aliasing: a Result from the package-level Simulate is the caller's
// to keep; one from a Simulator's Simulate aliases that simulator's
// buffers (Order, StageBusy) until its next call, and its Spans are the
// slice the caller passed.
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

// Op is one unit of work: a stage's forward or backward of one
// microbatch.
type Op struct {
	Stage int
	MB    int // microbatch index in schedule order, 0-based
	Kind  OpKind
}

// Span is when one op ran, in seconds from the start of the pipeline.
type Span struct{ Start, End float64 }

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
	// Order is the op execution order and Spans[i] when Order[i] ran;
	// Spans is nil for an untraced simulation.
	Order []Op
	Spans []Span
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

// progOp returns the op at position p of stage s's fixed 1F1B
// program (2l ops): warmup forwards, alternating forward/backward, then
// cooldown backwards.
func progOp(s, p, stages, l int) Op {
	warmup := min(stages-s-1, l)
	switch {
	case p < warmup:
		return Op{s, p, forward}
	case p >= 2*l-warmup:
		return Op{s, p - l, backward}
	case (p-warmup)%2 == 0:
		return Op{s, (p + warmup) / 2, forward}
	}
	return Op{s, (p - warmup) / 2, backward}
}

// Order returns the execution order of a 1F1B pipeline of the given
// shape: the stages' programs interleaved as their cross-stage
// dependencies allow, stage by stage in repeated passes. The loop
// advances on completion, never on times, so every Work of one shape —
// whatever its durations, links and rates — runs its ops in this
// order.
func Order(stages, microbatches int) []Op {
	return slices.Clip(new(Simulator).orderFor(stages, microbatches))
}

// Simulator owns every buffer a simulation fills — the execution order
// of its last shape, completion tables, stage clocks, the Result with
// its StageBusy — so a long-lived one stops allocating once it has seen
// its largest shape. Not safe for concurrent use; the zero value is
// ready.
type Simulator struct {
	order      []Op
	ordS, ordL int       // the (stages, microbatches) order was built for
	done       []bool    // orderFor's: forwards then backwards, stage*l+mb
	pos        []int     // orderFor's: next unplaced op per stage
	end        []float64 // op completion times, indexed as done
	stageClock []float64
	res        Result
}

// zeroed resizes a scratch slice to n zero elements, reusing capacity.
func zeroed[T any](s []T, n int) []T {
	s = slices.Grow(s[:0], n)[:n]
	clear(s)
	return s
}

// orderFor returns the execution order of an S-stage, l-microbatch
// pipeline in the simulator's buffer, rebuilt when the shape changes.
// An op is placed once its stage's previous op and its cross-stage
// dependency are:
//
//	F(s,m) after F(s-1,m)
//	B(s,m) after B(s+1,m)  (last stage: after F(s,m))
func (sim *Simulator) orderFor(S, l int) []Op {
	if S == sim.ordS && l == sim.ordL {
		return sim.order
	}
	n := 2 * S * l
	done, pos := zeroed(sim.done, n), zeroed(sim.pos, S)
	ready := func(op Op) bool {
		i := op.Stage*l + op.MB
		switch {
		case op.Kind == forward:
			return op.Stage == 0 || done[i-l]
		case op.Stage == S-1:
			return done[i]
		}
		return done[S*l+i+l]
	}
	order := slices.Grow(sim.order[:0], n)
	for len(order) < n {
		placed := len(order)
		for s := 0; s < S; s++ {
			for ; pos[s] < 2*l; pos[s]++ {
				op := progOp(s, pos[s], S, l)
				if !ready(op) {
					break
				}
				done[int(op.Kind)*S*l+op.Stage*l+op.MB] = true
				order = append(order, op)
			}
		}
		if len(order) == placed {
			panic("pipeline: 1F1B schedule deadlocked")
		}
	}
	sim.order, sim.done, sim.pos = order, done, pos
	sim.ordS, sim.ordL = S, l
	return order
}

// Simulate computes the exact 1F1B timeline over the given work. Ops
// run in Order: each starts when its stage is free and its
// cross-stage dependency has ended, plus the link's p2p time; a stage
// blocked on a dependency idles (a pipeline bubble). spans, when
// non-nil, must hold one Span per op (2 × stages × microbatches) and
// receives the timeline; nil simulates only the totals, the same
// IterTime and StageBusy bit for bit. The returned Result aliases the
// simulator's scratch (and spans), valid until its next call — copy out
// what must outlive it. A failed call leaves the simulator usable.
func (sim *Simulator) Simulate(w Work, spans []Span) (*Result, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	S, l := w.Stages(), w.Microbatches()
	if spans != nil && len(spans) != 2*S*l {
		return nil, fmt.Errorf("pipeline: %d spans for %d ops", len(spans), 2*S*l)
	}
	order, n := sim.orderFor(S, l), S*l
	sim.end, sim.stageClock = zeroed(sim.end, 2*n), zeroed(sim.stageClock, S)
	end, stageClock := sim.end, sim.stageClock

	res := &sim.res
	*res = Result{Order: order, Spans: spans, StageBusy: zeroed(res.StageBusy, S)}
	for k, op := range order {
		s, i := op.Stage, op.Stage*l+op.MB
		var dep float64
		d := w.Fwd[s][op.MB]
		switch {
		case op.Kind == backward && s == S-1:
			dep, d = end[i], w.Bwd[s][op.MB]
		case op.Kind == backward:
			dep, d = end[n+i+l]+w.p2p(s), w.Bwd[s][op.MB]
		case s > 0:
			dep = end[i-l] + w.p2p(s-1)
		}
		start := max(stageClock[s], dep)
		finish := w.finish(s, start, d)
		end[int(op.Kind)*n+i] = finish
		stageClock[s] = finish
		res.StageBusy[s] += busy(start, finish, d, w.rate(s))
		if spans != nil {
			spans[k] = Span{start, finish}
		}
	}
	for _, c := range stageClock {
		res.IterTime = max(res.IterTime, c)
	}
	return res, nil
}

// Simulate simulates on a fresh Simulator (the schedule argument can
// only name OneFOneB), timeline included: the Result is the caller's.
func Simulate(sch Schedule, w Work) (*Result, error) {
	return new(Simulator).Simulate(w, make([]Span, 2*w.Stages()*w.Microbatches()))
}
