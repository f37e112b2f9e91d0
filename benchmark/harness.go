package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"hash"
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// concurrency is pinned: GOMAXPROCS, fleet.Config.Workers and Planners,
// SearchOptions.Parallelism, trainer.Config.Parallelism, the producers'
// worker pools and the fan-in client goroutines are all 2, the size of
// the box the bounds were set on. Every workload is a closed loop with
// one driver: op i+1 starts when op i has returned.
const concurrency = 2

// processStart is as close to process start as Go code gets.
var processStart = time.Now()

// opResult is what one op hands the harness.
type opResult struct {
	work int   // work units completed
	err  error // first failed check; nil when the op passed
	// digest hashes the op's simulated outputs. The harness calls it off
	// the clock, and only where a digest is compared or recorded
	// (hashing 256 tenants' results is 1.2 ms of a 90 ms op).
	digest func() string
	// mfuNum/mfuDen accumulate the workload's simulated-quality mean.
	mfuNum, mfuDen float64
	// tally is what the ledger keeps of the op's outputs. The outputs
	// themselves are dropped: a pass that held on to every fleet.Result
	// would grow the live heap, and with it the collector's target, as it
	// went, and its later ops would run faster than its first.
	tally tally
	// sweep is the plan-sweep op's caches, for the ledger's replay on
	// the last one.
	sweep *sweepRun
}

// tally sums, over ops, the counts the ledger reports or divides.
type tally struct {
	rounds, resizes, preemptions float64
	waited, started              float64 // rounds queued before the first placement, over tenants placed
	searches, hits, warmSeeds    float64
	coalesced, storeErrs         float64
	estIter, plans               float64 // Plan.IterTime over plans chosen
	traceEvents                  float64
}

func (t *tally) add(o tally) {
	t.rounds += o.rounds
	t.resizes += o.resizes
	t.preemptions += o.preemptions
	t.waited += o.waited
	t.started += o.started
	t.searches += o.searches
	t.hits += o.hits
	t.warmSeeds += o.warmSeeds
	t.coalesced += o.coalesced
	t.storeErrs += o.storeErrs
	t.estIter += o.estIter
	t.plans += o.plans
	t.traceEvents += o.traceEvents
}

// instance is a set-up workload, ready to run ops.
type instance interface {
	// op runs op i and checks its outputs. opSpan is the op's root span
	// in a traced run, -1 otherwise.
	op(i, opSpan int) opResult
	// reference computes op i's output digest the slow, plain way: one
	// worker, sequential planners, no store, no wire.
	reference(i int) (string, error)
	// trace turns the instance's spans and seam decorators on (or, with
	// nil, off) for the ops that follow.
	trace(tr *tracer)
	close()
}

// workload describes one benchmark workload. The names are the
// contract later changes are judged by.
type workload struct {
	name string
	// why is the one line BENCHMARK.json carries for the workload.
	why string
	// unit names the work unit work_per_cpu_s counts.
	unit  string
	setup func(seed uint64, tmp string) (instance, error)
	// minOps ops always run, however short the time box; the reference
	// indices are spread over them.
	minOps int
	// refs is how many ops are checked against a reference digest.
	refs int
	// traceOps is the fixed op count of each pass of a traced run.
	traceOps int
	// ledger fills the workload's layer metrics from the two passes of a
	// traced run and from layer replays on the instance.
	ledger func(inst instance, tr *tracer, plain, traced *pass, l ledger) error
}

var workloads = []workload{
	{name: "fleet-steady", why: "256 identical tenants queue for 32 fixed leases on a warm plan cache: trainer stepping does nearly all the work and the per-round queue term shows",
		unit: "iterations", setup: setupSteady, minOps: 16, refs: 8, traceOps: 40, ledger: ledgerSteady},
	{name: "fleet-churn", why: "two dozen elastic tenants arrive, herd, get preempted, lose nodes and depart on a cold durable plan cache: admission, searches, resizes and trace merging dominate",
		unit: "iterations", setup: setupChurn, minOps: 16, refs: 8, traceOps: 60, ledger: ledgerChurn},
	{name: "plan-sweep", why: "restart cycle of the durable plan cache at Table 3 scale: cold, warm-seeded and durable-hit planning alone; bypass workload for trainer and fleet changes",
		unit: "plan requests", setup: setupSweep, minOps: 8, refs: 4, traceOps: 16, ledger: ledgerSweep},
	{name: "preprocess-fanin", why: "one iteration fanned in to 4 tenants x DP 2 over loopback TCP from 2 producers: the data plane alone; bypass workload for planner and trainer changes",
		unit: "rank batches", setup: setupFanin, minOps: 40, refs: 8, traceOps: 200, ledger: ledgerFanin},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// refIndices spreads the reference checks evenly over the ops that
// always run.
func (w workload) refIndices() []int {
	out := make([]int, w.refs)
	for k := range out {
		out[k] = k * w.minOps / w.refs
	}
	return out
}

// prepare is the set-up setup_s times: inputs, calibration, producers,
// cache pre-warm, the reference digests and one untimed warm-up op.
func prepare(w workload, seed uint64, tmp string) (instance, map[int]string, error) {
	inst, err := w.setup(seed, tmp)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	refs := map[int]string{}
	for _, i := range w.refIndices() {
		if refs[i], err = inst.reference(i); err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("%s: reference for op %d: %w", w.name, i, err)
		}
	}
	if r := inst.op(-1, -1); r.err != nil {
		inst.close()
		return nil, nil, fmt.Errorf("%s: warm-up op: %w", w.name, r.err)
	}
	return inst, refs, nil
}

// pass is one measured sequence of ops.
type pass struct {
	wall   []float64 // per-op wall seconds
	cpu    []float64 // per-op process CPU seconds (user+sys)
	work   []float64
	tally  tally
	sweep  *sweepRun // the last op's, see opResult
	failed int
	errs   []string // first few failures, for the log
	mfuNum float64
	mfuDen float64
	// digest hashes the op digests of a traced pass in order: the run's
	// sim_digest.
	digest hash.Hash
	// kernel holds the speed kernel's CPU seconds, each with the index
	// of the op it ran before (see speed.go).
	kernel   []float64
	kernelAt []int
}

// runOps runs ops first, first+1, ... in a closed loop: at least n of
// them, and on until the time box is used up. Each op is checked; an op
// at a reference index must also reproduce the reference digest.
func runOps(inst instance, n int, box time.Duration, refs map[int]string, tr *tracer) *pass {
	p := &pass{digest: sha256.New()}
	start := time.Now()
	var lastKernel time.Time
	cpu0 := processCPU()
	for i := 0; i < n || time.Since(start) < box; i++ {
		if time.Since(lastKernel) >= speedEvery {
			p.kernel = append(p.kernel, speed.sample())
			p.kernelAt = append(p.kernelAt, i)
			lastKernel = time.Now()
			cpu0 = processCPU()
		}
		opSpan := -1
		if tr != nil {
			opSpan = tr.begin("op", -1, i)
		}
		t0 := time.Now()
		r := inst.op(i, opSpan)
		wall := time.Since(t0)
		if tr != nil {
			tr.end(opSpan)
		}
		cpu1 := processCPU()
		if want, ref := refs[i]; r.err == nil && (ref || tr != nil) {
			got := r.digest()
			if ref && got != want {
				r.err = fmt.Errorf("digest %s differs from the reference %s", got, want)
			}
			fmt.Fprintln(p.digest, got)
		}
		if r.err != nil {
			p.failed++
			if len(p.errs) < 5 {
				p.errs = append(p.errs, fmt.Sprintf("op %d: %v", i, r.err))
			}
		}
		p.wall = append(p.wall, wall.Seconds())
		p.cpu = append(p.cpu, (cpu1 - cpu0).Seconds())
		p.work = append(p.work, float64(r.work))
		p.mfuNum += r.mfuNum
		p.mfuDen += r.mfuDen
		p.tally.add(r.tally)
		p.sweep = r.sweep
		cpu0 = processCPU()
	}
	return p
}

// speed is the machine-speed yardstick every timed section shares.
var speed = newSpeedometer()

// blockSpeed returns each block's speed factor: from the kernel runs
// that fell among the block's ops, or from all of the pass's when a
// block is too short to have had one.
func (p *pass) blockSpeed() [blocks]float64 {
	bounds := blockBounds(len(p.wall))
	var out [blocks]float64
	for b := range out {
		var in []float64
		for k, at := range p.kernelAt {
			if at >= bounds[b] && at <= bounds[b+1] {
				in = append(in, p.kernel[k])
			}
		}
		if len(in) == 0 {
			in = p.kernel
		}
		out[b] = speedFactor(in)
	}
	return out
}

// rawOpMs is the block-median op time in milliseconds, as measured.
func (p *pass) rawOpMs() float64 { return blockMedian(p.wall) * 1e3 }

// opMsP50 is the block-median op time in milliseconds at reference
// machine speed: each block's median scaled by the block's speed
// factor, then the median over blocks.
func (p *pass) opMsP50() float64 {
	bounds, f := blockBounds(len(p.wall)), p.blockSpeed()
	var vals []float64
	for b := 0; b < blocks; b++ {
		if part := p.wall[bounds[b]:bounds[b+1]]; len(part) > 0 {
			vals = append(vals, median(part)*f[b]*1e3)
		}
	}
	return median(vals)
}

// workPerCPU is the block-median of work units per process CPU-second,
// at reference machine speed.
func (p *pass) workPerCPU() float64 {
	bounds, f := blockBounds(len(p.wall)), p.blockSpeed()
	var vals []float64
	for b := 0; b < blocks; b++ {
		work, cpu := 0.0, 0.0
		for i := bounds[b]; i < bounds[b+1]; i++ {
			work += p.work[i]
			cpu += p.cpu[i]
		}
		if cpu > 0 {
			vals = append(vals, work/cpu/f[b])
		}
	}
	return median(vals)
}

// processCPU is the process's user+system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB reads the process's high-water resident set (VmHWM).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) == 2 && fields[1] == "kB" {
				kb, err := strconv.ParseFloat(fields[0], 64)
				return kb / 1024, err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// setups is how many times an untraced run sets the workload up;
// setup_s is the median, so one cold first set-up does not decide it.
const setups = 3

// runEndToEnd is a driver run with --trace 0: it sets up, runs the
// timed section with tracing off and returns the end-to-end metrics.
func runEndToEnd(w workload, seed uint64, box time.Duration, tmp string) (*pass, map[string]float64, error) {
	var inst instance
	var refs map[int]string
	var took []float64
	for s := 0; s < setups; s++ {
		t0 := time.Now()
		if s == 0 {
			t0 = processStart
		}
		var err error
		if inst, refs, err = prepare(w, seed, tmp); err != nil {
			return nil, nil, err
		}
		d := time.Since(t0).Seconds()
		// A set-up is too short to interleave the speed kernel with, so
		// it is scaled by the machine's speed right after it.
		var kernel []float64
		for k := 0; k < 5; k++ {
			kernel = append(kernel, speed.sample())
		}
		took = append(took, d*speedFactor(kernel))
		if s < setups-1 {
			inst.close()
		}
	}
	defer inst.close()
	p := runOps(inst, w.minOps, box, refs, nil)
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	return p, map[string]float64{
		"setup_s":        median(took),
		"op_ms_p50":      p.opMsP50(),
		"work_per_cpu_s": p.workPerCPU(),
		"peak_rss_mb":    rss,
	}, nil
}
