package main

import (
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// Machine-speed normalisation.
//
// On the virtual machines this benchmark runs on, the same binary on
// the same inputs costs up to 40% more CPU time for half a minute at a
// stretch, and then recovers: neighbours on the host contend for cache
// and memory bandwidth. Arithmetic is untouched in those phases (a
// register-only spin loop moved 3%), memory-heavy code is not, and the
// program's layers are memory-heavy Go. A run that falls into such a
// phase would read as a regression.
//
// So every timing the benchmark gates is expressed at reference
// machine speed. A small kernel the benchmark owns — random
// read-modify-writes over 8 MB, then a sort of 64K words; no program
// code — runs between ops, a few times a second. The mean of its
// thread CPU times over a block of ops, against the constant below, is
// the machine's speed factor for that block, and the block's op time
// and CPU rate are scaled by it before the median over blocks is
// taken. Ten 15-second runs per workload at ten seeds, quartile spread
// of op_ms_p50 as measured and scaled: fleet-steady 7.6% and 3.6%,
// fleet-churn 5.4% and 3.2%, plan-sweep 3.0% and 2.2%,
// preprocess-fanin (in a bad ten minutes) 9.0% and 2.5%. One factor
// per run instead of one per block did worse whenever the machine
// changed pace inside a run (5.4% on that preprocess-fanin set). The
// mean of the kernel times, not their median: a block's work pays for
// every slow moment in it, and the kernel is timed on thread CPU time,
// so a preempted run does not read long. It spread less than the
// median on 7 of 8 (workload, metric) pairs.
//
// The kernel must stay independent of the program: a faster program
// must not make the yardstick faster.

// speedRefSeconds is the kernel's CPU time on the reference machine:
// its median over 2654 runs on the box the bounds were set on. It only
// sets the scale; it cancels in every comparison of two runs.
const speedRefSeconds = 0.0184

// speedEvery is the least time between two kernel runs in a timed
// section; the kernel takes about a tenth of it.
const speedEvery = 150 * time.Millisecond

type speedometer struct {
	table []byte // 8 MB, outside the Go heap
	keys  []uint32
	state uint32
}

// newSpeedometer maps the kernel's table outside the Go heap: 8 MB of
// live heap would double the collector's target for workloads this
// small and make the program under test collect half as often.
func newSpeedometer() *speedometer {
	table, err := syscall.Mmap(-1, 0, 1<<23, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(fmt.Sprintf("benchmark: mapping the speed kernel's table: %v", err))
	}
	return &speedometer{table: table, keys: make([]uint32, 1<<16), state: 1}
}

// threadCPU is the calling thread's CPU time; the kernel is timed on
// it so that the program's background goroutines (producer readahead,
// planner pools winding down) are not charged to the yardstick.
func threadCPU() time.Duration {
	const rusageThread = 1 // RUSAGE_THREAD, Linux
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sample runs the kernel once and returns its CPU seconds.
func (s *speedometer) sample() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	c0 := threadCPU()
	x := s.state
	for i := 0; i < 1<<21; i++ {
		x = x*1664525 + 1013904223
		s.table[x>>9] += byte(x)
	}
	s.state = x
	for i := range s.keys {
		x = x*1664525 + 1013904223
		s.keys[i] = x
	}
	sort.Slice(s.keys, func(a, b int) bool { return s.keys[a] < s.keys[b] })
	return (threadCPU() - c0).Seconds()
}

// factor turns kernel times into a speed factor: above 1 on a machine
// (or in a phase) faster than the reference, below 1 on a slower one.
// Times measured there are multiplied by it, rates divided.
func speedFactor(kernel []float64) float64 {
	if m := mean(kernel); m > 0 {
		return speedRefSeconds / m
	}
	return 1
}
