package pipeline

import (
	"fmt"
	"math"
)

// Interval is one of the Figure 12 windows at the first pipeline stage:
// the span between consecutive backward executions (the first window
// opens when the first forward completes). Forwards scheduled inside
// the window "fill" it; the remainder is a pipeline bubble.
type Interval struct {
	Start    float64
	End      float64
	Filled   float64 // forward compute inside the window
	Unfilled float64 // idle time inside the window
}

// Volume returns the window span.
func (iv Interval) Volume() float64 { return iv.End - iv.Start }

// FirstStageIntervals extracts the Figure 12 intervals from a traced
// 1F1B simulation. Interval i (1-based) spans from the end of backward
// i-1 (or the end of the first forward, for i=1) to the start of
// backward i at stage 0.
func (r *Result) FirstStageIntervals() ([]Interval, error) {
	if len(r.Spans) != len(r.Order) {
		return nil, fmt.Errorf("pipeline: an untraced timeline has no intervals")
	}
	// Stage 0's ops run in program order, so its spans are in time
	// order.
	var bwd, fwd []Span
	for i, op := range r.Order {
		if op.Stage != 0 {
			continue
		}
		if op.Kind == backward {
			bwd = append(bwd, r.Spans[i])
		} else {
			fwd = append(fwd, r.Spans[i])
		}
	}
	if len(fwd) == 0 || len(bwd) == 0 {
		return nil, fmt.Errorf("pipeline: degenerate timeline")
	}
	var out []Interval
	for i := range bwd {
		var start float64
		if i == 0 {
			start = fwd[0].End
		} else {
			start = bwd[i-1].End
		}
		iv := Interval{Start: start, End: bwd[i].Start}
		for _, f := range fwd {
			overlap := math.Min(f.End, iv.End) - math.Max(f.Start, iv.Start)
			if overlap > 0 {
				iv.Filled += overlap
			}
		}
		iv.Unfilled = iv.Volume() - iv.Filled
		if iv.Unfilled < 0 {
			iv.Unfilled = 0
		}
		out = append(out, iv)
	}
	return out, nil
}

// IntervalPredictor is the O(p)-per-step dynamic program behind
// Algorithm 2's GETINTERVAL: given the microbatches placed so far (in
// order), it predicts the volume of the next first-stage interval
// without simulating the whole pipeline. The recurrences track forward
// completion (upstream availability vs. preceding microbatch at the
// same stage) and backward completion mirrored right-to-left —
// "the end time of each microbatch is determined by the maximum of
// these two dependencies plus its own computation time" (§5.3).
type IntervalPredictor struct {
	p2p []float64
	// fe[s] / be[s] hold the forward/backward end times of the most
	// recently placed microbatch at stage s.
	fe, be []float64
	// feFirstEnd remembers when the first microbatch's forward finished
	// at stage 0 (interval_1 opens there).
	feFirstEnd float64
	// bePrev0 is the backward end at stage 0 of the previous microbatch.
	bePrev0 float64
	placed  int
}

// Reset re-arms the predictor for a fresh microbatch sequence over a
// pipeline of the given depth, reusing its per-stage buffers.
func (ip *IntervalPredictor) Reset(stages int, p2p []float64) {
	*ip = IntervalPredictor{p2p: p2p, fe: zeroed(ip.fe, stages), be: zeroed(ip.be, stages)}
}

func (ip *IntervalPredictor) link(i int) float64 {
	if ip.p2p == nil {
		return 0
	}
	return ip.p2p[i]
}

// Stages returns the pipeline depth.
func (ip *IntervalPredictor) Stages() int { return len(ip.fe) }

// Append places the next microbatch (its per-stage forward and backward
// times) and returns the predicted interval bounded by its backward at
// stage 0: appending microbatch i yields interval_i's
// (start, end) = (backward end of i-1, backward start of i), with
// interval_1 opening at the first forward's completion.
func (ip *IntervalPredictor) Append(fwd, bwd []float64) Interval {
	S := ip.Stages()
	if len(fwd) != S || len(bwd) != S {
		panic(fmt.Sprintf("pipeline: predictor wants %d stages, got %d/%d", S, len(fwd), len(bwd)))
	}
	first := ip.placed == 0
	// Forward cascade left to right.
	avail := 0.0
	for s := 0; s < S; s++ {
		start := max(avail, ip.fe[s])
		ip.fe[s] = start + fwd[s]
		avail = ip.fe[s]
		if s < S-1 {
			avail += ip.link(s)
		}
	}
	if first {
		ip.feFirstEnd = ip.fe[0]
	}
	// Backward cascade right to left.
	avail = ip.fe[S-1]
	for s := S - 1; s >= 0; s-- {
		start := max(avail, ip.be[s])
		ip.be[s] = start + bwd[s]
		if s > 0 {
			avail = ip.be[s] + ip.link(s-1)
		}
	}
	ip.placed++

	var start float64
	if first {
		start = ip.feFirstEnd
	} else {
		start = ip.bePrev0
	}
	end := ip.be[0] - bwd[0] // backward start of this microbatch at stage 0
	ip.bePrev0 = ip.be[0]
	if end < start {
		end = start
	}
	return Interval{Start: start, End: end}
}
