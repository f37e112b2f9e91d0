// Command benchmark is the repo's benchmark: four seeded workloads,
// four gated end-to-end metrics, and an ungated per-layer ledger from a
// separate traced run. See README.md in this directory.
//
//	benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//	benchmark all --seed N --out DIR [--runs R] [--seconds S]  every workload, each run in a fresh child process
//	benchmark compare BASE_DIR NEW_DIR                         verdict per (workload, end-to-end metric)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// defaultSeed is the seed `all` uses when none is given.
const defaultSeed = 1

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "all":
			os.Exit(cmdAll(os.Args[2:]))
		case "compare":
			os.Exit(cmdCompare(os.Args[2:]))
		}
	}
	os.Exit(cmdRun(os.Args[1:]))
}

// result is the last line a run prints, in the driver's format.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func cmdRun(args []string) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: fleet-steady, fleet-churn, plan-sweep or preprocess-fanin")
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same ops")
	seconds := fs.Float64("seconds", 15, "length of the timed section")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the per-layer ledger from a traced run")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for scratch files and the span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		return 2
	}
	runtime.GOMAXPROCS(concurrency)
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	// Everything a run writes goes under a directory of its own, removed
	// on the way out; only the span file of a traced run stays.
	tmp, err := os.MkdirTemp(*out, w.name+"-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	var p *pass
	var values map[string]float64
	var defs []metricDef
	if *trace == 0 {
		defs = endToEnd
		p, values, err = runEndToEnd(w, *seed, time.Duration(*seconds*float64(time.Second)), tmp)
	} else {
		defs = perLayer
		spans := filepath.Join(*out, fmt.Sprintf("%s.seed%d.spans.json", w.name, *seed))
		p, values, err = runTraced(w, *seed, tmp, spans)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "benchmark: failed", e)
	}
	fmt.Printf("workload %s seed %d trace %d: %d ops, %d failed; work unit: %s; GOMAXPROCS %d, NumCPU %d, %s\n",
		w.name, *seed, *trace, len(p.wall), p.failed, w.unit, runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.Version())
	if *trace == 0 {
		f := p.blockSpeed()
		fmt.Printf("as measured: op_ms_p50 %.6g ms at machine speed factor %.4g (the metrics below are at factor 1; see speed.go)\n",
			p.rawOpMs(), median(f[:]))
	} else {
		// Informational: a hash over the simulated outputs of the traced
		// ops (job MFU, iteration times, rounds, resizes, plan strings).
		// A change is worth a look; it is not a failure.
		fmt.Printf("sim_digest %x\n", p.digest.Sum(nil)[:8])
	}
	res := result{Correct: p.failed == 0, Attempted: len(p.wall), Failed: p.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		fmt.Printf("  %-36s %16.6g %s\n", d.Name, v, d.Unit)
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}
