package pipeline

import (
	"fmt"
	"math"
)

// Time-varying stage rates: scenario injection (stragglers, thermal
// throttling, noisy neighbours) perturbs a stage's compute speed
// mid-iteration. A RateSchedule is a piecewise-constant speed
// multiplier over pipeline-local time; the simulator integrates op
// work through it, so an op that straddles a slowdown window is
// stretched by exactly the slowed-down portion.

// RateSeg is one piecewise-constant segment: the stage runs at Rate
// times nominal speed until pipeline time Until (seconds from the
// start of the iteration's pipeline phase).
type RateSeg struct {
	Until float64
	Rate  float64
}

// RateSchedule is a stage's speed profile: consecutive segments with
// strictly increasing Until bounds. Beyond the last segment the stage
// runs at nominal speed (rate 1). An empty schedule means nominal
// speed throughout and costs nothing in the simulator.
type RateSchedule []RateSeg

// Validate checks monotone segment bounds and positive rates.
func (rs RateSchedule) Validate() error {
	prev := math.Inf(-1)
	for i, seg := range rs {
		if seg.Rate <= 0 || math.IsNaN(seg.Rate) {
			return fmt.Errorf("pipeline: rate segment %d has non-positive rate %g", i, seg.Rate)
		}
		if seg.Until <= prev {
			return fmt.Errorf("pipeline: rate segment %d bound %g not increasing", i, seg.Until)
		}
		prev = seg.Until
	}
	return nil
}

// FinishAt returns the completion time of an op of nominal duration d
// begun at start, integrating the op's work through the schedule.
// Empty schedules must be short-circuited by the caller (start + d)
// to keep the unperturbed path byte-identical to the rate-free
// simulator.
func (rs RateSchedule) FinishAt(start, d float64) float64 {
	t := start
	remaining := d
	for _, seg := range rs {
		if t >= seg.Until {
			continue
		}
		capacity := (seg.Until - t) * seg.Rate
		if capacity >= remaining {
			return t + remaining/seg.Rate
		}
		remaining -= capacity
		t = seg.Until
	}
	return t + remaining
}

// rate returns stage s's schedule (nil when rates are unset).
func (w *Work) rate(s int) RateSchedule {
	if w.Rates == nil {
		return nil
	}
	return w.Rates[s]
}

// busy is the stage-occupancy accounting for one op: under a rate
// schedule the stage is held for the whole stretched interval; on the
// nominal path it charges exactly the nominal duration, preserving
// the historical floating-point arithmetic.
func busy(start, finish, d float64, sched RateSchedule) float64 {
	if len(sched) == 0 {
		return d
	}
	return finish - start
}

// finish completes an op of nominal duration d starting at start on
// stage s, honouring the stage's rate schedule. The empty-schedule
// fast path reproduces the historical start+d arithmetic exactly.
func (w *Work) finish(s int, start, d float64) float64 {
	sched := w.rate(s)
	if len(sched) == 0 {
		return start + d
	}
	return sched.FinishAt(start, d)
}
