package comm

import (
	"math"
	"testing"
)

// allReduce is the ring all-reduce classic TP would issue: 2(n-1)/n of
// the data crosses each link, in 2(n-1) latency-bound steps. Sequence
// parallelism replaces it; TestTPOverhead compares the two volumes.
func allReduce(c CollectiveCost, bytes float64, n int) float64 {
	if n <= 1 {
		return 0
	}
	f := float64(n-1) / float64(n)
	return 2*f*bytes/c.BandwidthBps + 2*float64(n-1)*c.Latency
}

func TestAllReduceCost(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 100e9, Latency: 1e-6}
	if got := allReduce(c, 1e9, 1); got != 0 {
		t.Errorf("single-rank all-reduce = %g, want 0", got)
	}
	// 8-rank ring: 2*(7/8) of the volume per link.
	got := allReduce(c, 1e9, 8)
	want := 2*(7.0/8)*1e9/100e9 + 14e-6
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("AllReduce = %g, want %g", got, want)
	}
	// All-reduce costs twice an all-gather minus latency bookkeeping.
	ag := c.AllGather(1e9, 8)
	if got <= ag {
		t.Error("all-reduce should cost more than all-gather")
	}
}

func TestReduceScatterMatchesAllGather(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 50e9, Latency: 2e-6}
	if c.ReduceScatter(123456, 4) != c.AllGather(123456, 4) {
		t.Error("ring RS and AG must cost the same")
	}
}

func TestP2P(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 25e9, Latency: 5e-6}
	got := c.P2P(25e9)
	if math.Abs(got-(1+5e-6)) > 1e-9 {
		t.Errorf("P2P = %g", got)
	}
}

func TestTPOverhead(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 300e9, Latency: 1e-6}
	act := 8192.0 * 8192 * 2

	if got := TPOverheadPerLayer(c, act, 1, 0); got != 0 {
		t.Errorf("TP=1 overhead = %g, want 0", got)
	}
	exposed := TPOverheadPerLayer(c, act, 8, 0)
	if exposed <= 0 {
		t.Fatal("TP=8 overhead must be positive")
	}
	// StepCCL overlap shrinks exposed time proportionally.
	overlapped := TPOverheadPerLayer(c, act, 8, 0.85)
	if math.Abs(overlapped-exposed*0.15) > 1e-12 {
		t.Errorf("85%% overlap: got %g, want %g", overlapped, exposed*0.15)
	}
	if got := TPOverheadPerLayer(c, act, 8, 2.0); got != 0 {
		t.Errorf("overlap > 1 must clamp to zero exposure, got %g", got)
	}
	// Sequence parallelism moves the volume of classic TP's two
	// all-reduces per layer.
	ratio := exposed / (2 * allReduce(c, act, 8))
	if ratio < 0.9 || ratio > 1.2 {
		t.Errorf("SP/all-reduce volume ratio = %g, want ~1", ratio)
	}
}

func TestZeRO1GradSync(t *testing.T) {
	c := CollectiveCost{BandwidthBps: 100e9, Latency: 1e-6}
	if got := ZeRO1GradSync(c, 7e9, 1); got != 0 {
		t.Errorf("DP=1 sync = %g, want 0", got)
	}
	t8 := ZeRO1GradSync(c, 7e9, 8)
	t64 := ZeRO1GradSync(c, 7e9, 64)
	if t64 <= t8 {
		t.Error("larger DP group should cost at least as much per ring step count")
	}
}
