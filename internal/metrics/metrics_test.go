package metrics

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMFU(t *testing.T) {
	// 1000 GPUs at 312 TFLOP/s for 2s executing 3.12e17 FLOPs => 50%.
	got := MFU(3.12e17, 1000, 312e12, 2)
	if math.Abs(got-0.5) > 1e-12 {
		t.Errorf("MFU = %g, want 0.5", got)
	}
	if MFU(1, 0, 1, 1) != 0 || MFU(1, 1, 0, 1) != 0 || MFU(1, 1, 1, 0) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestThroughput(t *testing.T) {
	// 1920 sequences of 8192 tokens in 6s ~ 2.6M tokens/s (the Fig. 14
	// regime).
	got := Throughput(1920, 8192, 6)
	want := 1920.0 * 8192 / 6
	if got != want {
		t.Errorf("Throughput = %g, want %g", got, want)
	}
	if Throughput(1, 1, 0) != 0 {
		t.Error("zero time should give 0")
	}
}

func TestBreakdown(t *testing.T) {
	b := Breakdown{PreprocessStall: 0.1, Pipeline: 2, GradSync: 0.3, Optimizer: 0.05, CheckpointStall: 0.02}
	if math.Abs(b.Total()-2.47) > 1e-12 {
		t.Errorf("Total = %g", b.Total())
	}
	if s := b.String(); len(s) == 0 {
		t.Error("empty breakdown string")
	}
}

func TestSeries(t *testing.T) {
	var s series
	if s.P99() != 0 {
		t.Error("empty series should read zero")
	}
	for _, v := range []float64{4, 2, 8, 6} {
		s.Add(v)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	// Nearest rank: index int(0.99*3) = 2 of the sorted {2, 4, 6, 8}.
	if got := s.P99(); got != 6 {
		t.Errorf("P99 = %g, want 6", got)
	}
	for i := 0; i < 96; i++ {
		s.Add(1)
	}
	// 100 observations: index int(0.99*99) = 98, the second largest.
	if got := s.P99(); got != 6 {
		t.Errorf("P99 of 100 = %g, want 6", got)
	}
}

// Property: MFU is linear in FLOPs and inverse in time; the p99 is
// always between the extremes.
func TestMetricProperties(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		var s series
		lo, hi := float64(raw[0]), float64(raw[0])
		for _, r := range raw {
			s.Add(float64(r))
			lo, hi = math.Min(lo, float64(r)), math.Max(hi, float64(r))
		}
		return lo <= s.P99() && s.P99() <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	if MFU(2e17, 100, 312e12, 1) != 2*MFU(1e17, 100, 312e12, 1) {
		t.Error("MFU not linear in FLOPs")
	}
}
