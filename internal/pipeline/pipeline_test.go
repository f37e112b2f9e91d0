package pipeline

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// UniformWork builds a Work with identical per-microbatch times per
// stage — the homogeneous baseline of Figure 7(a).
func UniformWork(fwd, bwd []float64, microbatches int) Work {
	s := len(fwd)
	w := Work{Fwd: make([][]float64, s), Bwd: make([][]float64, s)}
	for i := 0; i < s; i++ {
		w.Fwd[i] = repeat(fwd[i], microbatches)
		w.Bwd[i] = repeat(bwd[i], microbatches)
	}
	return w
}

func repeat(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

func TestValidate(t *testing.T) {
	if err := (Work{}).Validate(); err == nil {
		t.Error("empty work accepted")
	}
	w := UniformWork([]float64{1, 1}, []float64{2, 2}, 4)
	if err := w.Validate(); err != nil {
		t.Fatalf("uniform work rejected: %v", err)
	}
	w.Bwd = w.Bwd[:1]
	if err := w.Validate(); err == nil {
		t.Error("stage mismatch accepted")
	}
	w2 := UniformWork([]float64{1, 1}, []float64{2, 2}, 4)
	w2.P2P = []float64{0.1, 0.2} // wants exactly 1 link
	if err := w2.Validate(); err == nil {
		t.Error("bad P2P length accepted")
	}
}

// Classic closed form: homogeneous 1F1B iteration time is
// (S-1 + l) * (f + b) for unit stages with zero-cost links.
func TestHomogeneous1F1BClosedForm(t *testing.T) {
	for _, tc := range []struct{ S, l int }{{2, 4}, {4, 8}, {4, 4}, {8, 16}} {
		f, b := 1.0, 2.0
		w := UniformWork(repeat(f, tc.S), repeat(b, tc.S), tc.l)
		res, err := Simulate(OneFOneB, w)
		if err != nil {
			t.Fatal(err)
		}
		want := float64(tc.S-1+tc.l) * (f + b)
		if !almostEq(res.IterTime, want) {
			t.Errorf("S=%d l=%d: iter=%g want %g", tc.S, tc.l, res.IterTime, want)
		}
	}
}

func TestSingleStageDegenerates(t *testing.T) {
	w := UniformWork([]float64{1}, []float64{2}, 5)
	res, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEq(res.IterTime, 15) {
		t.Errorf("single stage iter=%g want 15", res.IterTime)
	}
	if res.BubbleFraction(0) > 1e-9 {
		t.Error("single stage should have no bubbles")
	}
}

func TestOpCountsAndConservation(t *testing.T) {
	S, l := 3, 7
	w := UniformWork([]float64{1, 2, 1}, []float64{2, 4, 2}, l)
	res, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Ops); got != 2*S*l {
		t.Fatalf("op count %d, want %d", got, 2*S*l)
	}
	// Each stage's busy time equals the sum of its durations.
	for s := 0; s < S; s++ {
		want := 0.0
		for m := 0; m < l; m++ {
			want += w.Fwd[s][m] + w.Bwd[s][m]
		}
		if !almostEq(res.StageBusy[s], want) {
			t.Errorf("stage %d busy %g want %g", s, res.StageBusy[s], want)
		}
	}
}

// The dependency structure must hold exactly in the produced timeline.
func TestTimelineRespectsDependencies(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		S := rng.Intn(5) + 2
		l := rng.Intn(10) + S
		w := Work{Fwd: make([][]float64, S), Bwd: make([][]float64, S), P2P: make([]float64, S-1)}
		for s := 0; s < S; s++ {
			w.Fwd[s] = make([]float64, l)
			w.Bwd[s] = make([]float64, l)
			for m := 0; m < l; m++ {
				w.Fwd[s][m] = rng.Float64() + 0.1
				w.Bwd[s][m] = 2 * w.Fwd[s][m]
			}
		}
		for i := range w.P2P {
			w.P2P[i] = rng.Float64() * 0.05
		}
		res, err := Simulate(OneFOneB, w)
		if err != nil {
			t.Fatal(err)
		}
		endOf := map[[3]int]float64{}
		for _, op := range res.Ops {
			endOf[[3]int{op.Stage, op.MB, int(op.Kind)}] = op.End
		}
		for _, op := range res.Ops {
			if op.Kind == forward && op.Stage > 0 {
				dep := endOf[[3]int{op.Stage - 1, op.MB, int(forward)}] + w.P2P[op.Stage-1]
				if op.Start < dep-1e-9 {
					t.Fatalf("F(%d,%d) starts %g before upstream %g", op.Stage, op.MB, op.Start, dep)
				}
			}
			if op.Kind == backward {
				var dep float64
				if op.Stage == S-1 {
					dep = endOf[[3]int{op.Stage, op.MB, int(forward)}]
				} else {
					dep = endOf[[3]int{op.Stage + 1, op.MB, int(backward)}] + w.P2P[op.Stage]
				}
				if op.Start < dep-1e-9 {
					t.Fatalf("B(%d,%d) starts %g before dep %g", op.Stage, op.MB, op.Start, dep)
				}
			}
		}
		// No overlap within a stage.
		for s := 0; s < S; s++ {
			ops := res.StageOps(s)
			for i := 1; i < len(ops); i++ {
				if ops[i].Start < ops[i-1].End-1e-9 {
					t.Fatalf("stage %d ops overlap", s)
				}
			}
		}
	}
}

// A slow heterogeneous encoder stage creates the Figure 7(b) straggler
// bubble: iteration time grows well beyond the homogeneous case.
func TestStragglerCreatesBubble(t *testing.T) {
	l := 8
	homo := UniformWork([]float64{1, 2, 1}, []float64{2, 4, 2}, l)
	resHomo, err := Simulate(OneFOneB, homo)
	if err != nil {
		t.Fatal(err)
	}

	hetero := UniformWork([]float64{1, 2, 1}, []float64{2, 4, 2}, l)
	hetero.Fwd[0][0] = 8 // the straggler microbatch "a" of Figure 7
	hetero.Bwd[0][0] = 16
	resHet, err := Simulate(OneFOneB, hetero)
	if err != nil {
		t.Fatal(err)
	}
	if resHet.IterTime <= resHomo.IterTime {
		t.Error("straggler must prolong the iteration")
	}
	if resHet.MeanBubbleFraction() <= resHomo.MeanBubbleFraction() {
		t.Error("straggler must increase pipeline bubbles")
	}
}

func TestFirstStageIntervals(t *testing.T) {
	S, l := 4, 6 // the Figure 12 configuration
	w := UniformWork(repeat(1, S), repeat(2, S), l)
	res, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := res.FirstStageIntervals()
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != l {
		t.Fatalf("got %d intervals, want %d", len(ivs), l)
	}
	// Figure 12: the last p-1 intervals are unfilled (no forwards left).
	for _, iv := range ivs[l-S+1:] {
		if iv.Filled > 1e-9 {
			t.Errorf("interval %d should be unfilled, has %g fill", iv.Index, iv.Filled)
		}
	}
	// Earlier intervals are filled with forwards.
	if ivs[0].Filled <= 0 {
		t.Error("interval 1 should hold the warmup forwards")
	}
}

// The predictor must reproduce the simulator's interval boundaries on
// the fill-limited regime (encoder lighter than the LLM bottleneck),
// which is the regime Algorithm 2 operates in.
func TestIntervalPredictorMatchesSimulator(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		S := rng.Intn(3) + 2
		l := S + rng.Intn(6) + 1
		w := Work{Fwd: make([][]float64, S), Bwd: make([][]float64, S)}
		for s := 0; s < S; s++ {
			w.Fwd[s] = make([]float64, l)
			w.Bwd[s] = make([]float64, l)
			for m := 0; m < l; m++ {
				base := 1.0
				if s == 0 {
					base = 0.2 + 0.3*rng.Float64() // light first stage
				}
				w.Fwd[s][m] = base
				w.Bwd[s][m] = 2 * base
			}
		}
		res, err := Simulate(OneFOneB, w)
		if err != nil {
			t.Fatal(err)
		}
		ivSim, err := res.FirstStageIntervals()
		if err != nil {
			t.Fatal(err)
		}
		var ip IntervalPredictor
		ip.Reset(S, nil)
		for m := 0; m < l; m++ {
			fwd := make([]float64, S)
			bwd := make([]float64, S)
			for s := 0; s < S; s++ {
				fwd[s] = w.Fwd[s][m]
				bwd[s] = w.Bwd[s][m]
			}
			ivPred := ip.Append(fwd, bwd)
			// The prediction ignores 1F1B backpressure, so it lower-
			// bounds the simulated window end; volumes must agree within
			// the fill slack.
			if ivPred.End > ivSim[m].End+1e-9 {
				t.Fatalf("trial %d mb %d: predicted end %g after simulated %g",
					trial, m, ivPred.End, ivSim[m].End)
			}
			if m == 0 && !almostEq(ivPred.Start, ivSim[0].Start) {
				t.Fatalf("interval 1 start mismatch: %g vs %g", ivPred.Start, ivSim[0].Start)
			}
		}
	}
}

// Clone deep-copies the predictor. Algorithm 2 places greedily and
// never evaluates tentative placements, so only this test calls it.
func (ip *IntervalPredictor) Clone() *IntervalPredictor {
	c := &IntervalPredictor{
		p2p:        ip.p2p,
		fe:         append([]float64(nil), ip.fe...),
		be:         append([]float64(nil), ip.be...),
		feFirstEnd: ip.feFirstEnd,
		bePrev0:    ip.bePrev0,
		placed:     ip.placed,
	}
	return c
}

func TestIntervalPredictorClone(t *testing.T) {
	ip := new(IntervalPredictor)
	ip.Reset(3, nil)
	ip.Append([]float64{1, 1, 1}, []float64{2, 2, 2})
	c := ip.Clone()
	a := ip.Append([]float64{1, 1, 1}, []float64{2, 2, 2})
	b := c.Append([]float64{1, 1, 1}, []float64{2, 2, 2})
	if !almostEq(a.Start, b.Start) || !almostEq(a.End, b.End) {
		t.Error("clone diverged from original")
	}
	if ip.placed != 2 || c.placed != 2 {
		t.Error("placed counts wrong")
	}
}

func TestGanttRenders(t *testing.T) {
	w := UniformWork([]float64{1, 1}, []float64{2, 2}, 3)
	res, err := Simulate(OneFOneB, w)
	if err != nil {
		t.Fatal(err)
	}
	g := res.Gantt()
	if len(g) == 0 {
		t.Fatal("empty gantt")
	}
	for _, needle := range []string{"stage  0", "stage  1", "iteration time"} {
		if !contains(g, needle) {
			t.Errorf("gantt missing %q:\n%s", needle, g)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(s) > 0 && indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// Property: iteration time is monotone — inflating any single op's
// duration never shortens the pipeline.
func TestIterTimeMonotone(t *testing.T) {
	base := UniformWork([]float64{1, 2, 1}, []float64{2, 4, 2}, 5)
	resBase, err := Simulate(OneFOneB, base)
	if err != nil {
		t.Fatal(err)
	}
	f := func(stageRaw, mbRaw uint8, extraRaw uint8) bool {
		s := int(stageRaw) % 3
		m := int(mbRaw) % 5
		extra := float64(extraRaw)/64 + 0.1
		w := UniformWork([]float64{1, 2, 1}, []float64{2, 4, 2}, 5)
		w.Fwd[s][m] += extra
		res, err := Simulate(OneFOneB, w)
		if err != nil {
			return false
		}
		return res.IterTime >= resBase.IterTime-1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the pipeline makespan is at least the busiest stage's work
// and at least any single microbatch's critical path.
func TestIterTimeLowerBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		S := rng.Intn(4) + 1
		l := rng.Intn(8) + 1
		w := Work{Fwd: make([][]float64, S), Bwd: make([][]float64, S)}
		for s := 0; s < S; s++ {
			w.Fwd[s] = make([]float64, l)
			w.Bwd[s] = make([]float64, l)
			for m := 0; m < l; m++ {
				w.Fwd[s][m] = rng.Float64() + 0.05
				w.Bwd[s][m] = rng.Float64() + 0.05
			}
		}
		res, err := Simulate(OneFOneB, w)
		if err != nil {
			return false
		}
		for s := 0; s < S; s++ {
			if res.IterTime < res.StageBusy[s]-1e-9 {
				return false
			}
		}
		// Critical path of microbatch 0: all its forwards plus all its
		// backwards.
		cp := 0.0
		for s := 0; s < S; s++ {
			cp += w.Fwd[s][0] + w.Bwd[s][0]
		}
		return res.IterTime >= cp-1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
