package pipeline

import (
	"math"
	"reflect"
	"testing"
)

func TestRateScheduleFinishAt(t *testing.T) {
	// Half speed until t=2, nominal after.
	rs := RateSchedule{{Until: 2, Rate: 0.5}}
	if err := rs.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		start, d, want float64
	}{
		{0, 0.5, 1},    // entirely inside the slow window
		{0, 1, 2},      // exactly fills the slow window
		{0, 2, 3},      // 1s of work left after the window, nominal
		{2, 1, 3},      // entirely after the window
		{1.5, 1, 2.75}, // straddles: 0.25 work by t=2, 0.75 after
		{5, 2, 7},      // far beyond the schedule
	} {
		if got := rs.FinishAt(tc.start, tc.d); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("FinishAt(%g, %g) = %g, want %g", tc.start, tc.d, got, tc.want)
		}
	}
}

func TestRateScheduleValidate(t *testing.T) {
	for _, bad := range []RateSchedule{
		{{Until: 1, Rate: 0}},
		{{Until: 1, Rate: -2}},
		{{Until: 1, Rate: 1}, {Until: 1, Rate: 0.5}},
		{{Until: 2, Rate: 1}, {Until: 1, Rate: 0.5}},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("schedule %v accepted", bad)
		}
	}
	w := UniformWork([]float64{1, 1}, []float64{2, 2}, 4)
	w.Rates = []RateSchedule{{{Until: 1, Rate: 0.5}}} // wrong length
	if _, err := Simulate(OneFOneB, w); err == nil {
		t.Error("Work with mismatched Rates length accepted")
	}
}

// TestSimulateNilRatesIdentical pins the refactor invariant: attaching
// no rate schedules (nil or all-empty) leaves the timeline
// byte-identical to the rate-free simulator.
func TestSimulateNilRatesIdentical(t *testing.T) {
	w := UniformWork([]float64{1, 1.5, 0.7}, []float64{2, 3, 1.4}, 8)
	w.P2P = []float64{0.1, 0.2}
	base, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	withEmpty := w
	withEmpty.Rates = make([]RateSchedule, 3)
	got, err := Simulate(OneFOneB, withEmpty)
	if err != nil {
		t.Fatal(err)
	}
	if got.IterTime != base.IterTime || !reflect.DeepEqual(timeline(got), timeline(base)) ||
		!reflect.DeepEqual(got.StageBusy, base.StageBusy) {
		t.Error("empty rate schedules changed the timeline")
	}
}

// TestSimulateSlowdownStretchesStage: a mid-iteration slowdown on one
// stage lengthens the makespan by at least the extra work time, and a
// window entirely after the iteration changes nothing.
func TestSimulateSlowdownStretchesStage(t *testing.T) {
	w := UniformWork([]float64{1, 1}, []float64{2, 2}, 4)
	base, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}

	slowed := w
	slowed.Rates = []RateSchedule{nil, {{Until: 4, Rate: 0.5}}}
	got, err := Simulate(OneFOneB, slowed)
	if err != nil {
		t.Fatal(err)
	}
	if got.IterTime <= base.IterTime {
		t.Errorf("slowdown did not stretch the pipeline: %g <= %g", got.IterTime, base.IterTime)
	}
	// The slowed stage's busy time must grow by exactly the stretch.
	if got.StageBusy[1] <= base.StageBusy[1] {
		t.Error("slowed stage busy time did not grow")
	}

	after := w
	after.Rates = []RateSchedule{{{Until: base.IterTime, Rate: 1}, {Until: base.IterTime * 2, Rate: 0.25}}, nil}
	got2, err := Simulate(OneFOneB, after)
	if err != nil {
		t.Fatal(err)
	}
	if got2.IterTime != base.IterTime {
		t.Errorf("post-iteration slowdown window changed makespan: %g vs %g", got2.IterTime, base.IterTime)
	}
}
