// Package metrics computes the evaluation quantities of §7: Model
// FLOPs Utilization (MFU), training throughput in tokens per second,
// and iteration-time breakdowns, plus small summary-statistics helpers
// shared by the experiment harnesses. It also records the Chrome-trace
// timelines (Trace): event and process names are Labels of one
// process-wide intern table, an instant's payload is typed Args copied
// into the log, and span blocks replay timelines their callers keep.
package metrics

import (
	"fmt"
	"sort"
)

// MFU returns the Model FLOPs Utilization: the fraction of the fleet's
// peak FLOP/s spent executing model FLOPs. flops is the model compute
// actually executed for the iteration (forward plus whatever backward
// the freeze setting requires), gpus the allocated accelerator count,
// peak the per-GPU peak FLOP/s and iterTime the iteration seconds.
func MFU(flops float64, gpus int, peak, iterTime float64) float64 {
	if gpus <= 0 || peak <= 0 || iterTime <= 0 {
		return 0
	}
	return flops / (float64(gpus) * peak * iterTime)
}

// Throughput returns training tokens per second: globalBatch sequences
// of seqLen tokens per iteration.
func Throughput(globalBatch, seqLen int, iterTime float64) float64 {
	if iterTime <= 0 {
		return 0
	}
	return float64(globalBatch) * float64(seqLen) / iterTime
}

// Breakdown decomposes one training iteration (§3's runtime loop).
type Breakdown struct {
	// PreprocessStall is time the GPUs wait for input data.
	PreprocessStall float64
	// Pipeline is the 1F1B makespan across all pipeline stages.
	Pipeline float64
	// GradSync is the exposed ZeRO-1 gradient/parameter synchronisation.
	GradSync float64
	// Optimizer is the sharded optimizer step.
	Optimizer float64
	// CheckpointStall is exposed asynchronous-checkpoint back-pressure.
	CheckpointStall float64
}

// Total returns the iteration wall time.
func (b Breakdown) Total() float64 {
	return b.PreprocessStall + b.Pipeline + b.GradSync + b.Optimizer + b.CheckpointStall
}

func (b Breakdown) String() string {
	return fmt.Sprintf("stall %.1fms | pipeline %.1fms | sync %.1fms | optim %.1fms | ckpt %.1fms",
		b.PreprocessStall*1e3, b.Pipeline*1e3, b.GradSync*1e3, b.Optimizer*1e3, b.CheckpointStall*1e3)
}

// series summarises a sequence of observations.
type series struct {
	values []float64
}

// Add appends an observation.
func (s *series) Add(v float64) { s.values = append(s.values, v) }

// N returns the observation count.
func (s *series) N() int { return len(s.values) }

// P99 returns the 99th percentile by nearest-rank.
func (s *series) P99() float64 {
	if len(s.values) == 0 {
		return 0
	}
	sorted := append([]float64(nil), s.values...)
	sort.Float64s(sorted)
	idx := int(0.99 * float64(len(sorted)-1))
	return sorted[idx]
}
