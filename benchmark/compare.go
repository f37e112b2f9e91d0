package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
)

// results is what `all` writes to <out>/results.json and `compare`
// reads: every run's end-to-end values and the traced run's ledger,
// per workload.
type results struct {
	Seed       uint64                      `json:"seed"`
	Seconds    float64                     `json:"seconds"`
	GOMAXPROCS int                         `json:"gomaxprocs"`
	NumCPU     int                         `json:"num_cpu"`
	Go         string                      `json:"go"`
	Workloads  map[string]*workloadResults `json:"workloads"`
}

type workloadResults struct {
	// EndToEnd holds one value per untraced run, by metric name.
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	// Ledger is the traced run's per-layer metrics.
	Ledger map[string]float64 `json:"ledger"`
	// SimDigest is the traced run's hash over simulated outputs.
	SimDigest string `json:"sim_digest"`
}

const resultsFile = "results.json"

// cmdAll runs every workload: several untraced runs and one traced
// run, each in a fresh child process so that set-up time and peak
// memory are the workload's own. It prints every metric by name with
// its unit and writes results.json under --out.
func cmdAll(args []string) int {
	fs := flag.NewFlagSet("benchmark all", flag.ContinueOnError)
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	seconds := fs.Float64("seconds", 15, "length of each untraced run's timed section")
	runs := fs.Int("runs", 3, "untraced runs per workload")
	out := fs.String("out", filepath.Join(".bench_build", "out"), "directory for results.json, span files and scratch")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	all := results{
		Seed: *seed, Seconds: *seconds,
		GOMAXPROCS: concurrency, NumCPU: runtime.NumCPU(), Go: runtime.Version(),
		Workloads: map[string]*workloadResults{},
	}
	child := func(w workload, trace int) (result, string, error) {
		cmd := exec.Command(self,
			"--workload", w.name, "--seed", strconv.FormatUint(*seed, 10),
			"--seconds", strconv.FormatFloat(*seconds, 'g', -1, 64),
			"--trace", strconv.Itoa(trace), "--out", *out)
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return result{}, "", fmt.Errorf("%s (trace %d): %w", w.name, trace, err)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
		var r result
		if err := json.Unmarshal(lines[len(lines)-1], &r); err != nil {
			return result{}, "", fmt.Errorf("%s (trace %d): last line is not a result: %w", w.name, trace, err)
		}
		digest := ""
		for _, line := range lines {
			if rest, ok := bytes.CutPrefix(line, []byte("sim_digest ")); ok {
				digest = string(rest)
			}
		}
		return r, digest, nil
	}
	code := 0
	for _, w := range workloads {
		wr := &workloadResults{EndToEnd: map[string][]float64{}, Ledger: map[string]float64{}}
		all.Workloads[w.name] = wr
		for k := 0; k <= *runs; k++ {
			trace := 0
			if k == *runs {
				trace = 1
			}
			r, digest, err := child(w, trace)
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark:", err)
				return 1
			}
			if trace == 1 {
				wr.SimDigest = digest
			}
			wr.Attempted += r.Attempted
			wr.Failed += r.Failed
			for name, v := range r.Metrics {
				if trace == 0 {
					wr.EndToEnd[name] = append(wr.EndToEnd[name], v.Value)
				} else {
					wr.Ledger[name] = v.Value
				}
			}
		}
		fmt.Printf("%s: %d runs, %d of %d ops failed (fail_share %g)\n",
			w.name, *runs, wr.Failed, wr.Attempted, float64(wr.Failed)/float64(wr.Attempted))
		if wr.Failed > 0 {
			code = 1
		}
		for _, d := range endToEnd {
			vs := wr.EndToEnd[d.Name]
			fmt.Printf("  %-36s %16.6g %-6s median of %d runs, spread %.1f%%, bound %.0f%%\n",
				d.Name, median(vs), d.Unit, len(vs), 100*iqrShare(vs), 100*d.Bound)
		}
		for _, d := range perLayer {
			fmt.Printf("  %-36s %16.6g %s\n", d.Name, wr.Ledger[d.Name], d.Unit)
		}
		fmt.Printf("  %-36s %16s\n", "sim_digest", wr.SimDigest)
	}
	b, err := json.MarshalIndent(all, "", " ")
	if err == nil {
		err = os.WriteFile(filepath.Join(*out, resultsFile), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	return code
}

// verdict judges one end-to-end metric on one workload: base runs
// against new runs under the metric's bound.
func verdict(d metricDef, base, cur []float64) string {
	if len(base) == 0 || len(cur) == 0 || median(base) == 0 {
		return "missing"
	}
	// A spread wider than the bound means the runs cannot resolve a
	// change of the size the bound cares about.
	if iqrShare(base) > d.Bound || iqrShare(cur) > d.Bound {
		return "unresolved"
	}
	worse := (median(cur) - median(base)) / median(base)
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "worse"
	case worse < -d.Bound:
		return "better"
	}
	return "within-bound"
}

func readResults(dir string) (*results, error) {
	b, err := os.ReadFile(filepath.Join(dir, resultsFile))
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Join(dir, resultsFile), err)
	}
	return &r, nil
}

// cmdCompare prints one row per (workload, end-to-end metric) with a
// verdict, then the ledger side by side. It exits 1 when a metric is
// worse, more ops failed, or an exact ledger metric differs at equal
// seed.
func cmdCompare(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare BASE_DIR NEW_DIR")
		return 2
	}
	base, err := readResults(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	cur, err := readResults(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	sameSeed := base.Seed == cur.Seed
	fmt.Printf("base: seed %d, %gs, GOMAXPROCS %d of %d CPUs, %s\n", base.Seed, base.Seconds, base.GOMAXPROCS, base.NumCPU, base.Go)
	fmt.Printf("new:  seed %d, %gs, GOMAXPROCS %d of %d CPUs, %s\n", cur.Seed, cur.Seconds, cur.GOMAXPROCS, cur.NumCPU, cur.Go)
	code := 0
	fmt.Printf("\n%-18s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "base", "new", "new/base", "bound", "verdict")
	for _, w := range workloads {
		b, c := base.Workloads[w.name], cur.Workloads[w.name]
		if b == nil || c == nil {
			fmt.Printf("%-18s missing from one side\n", w.name)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			v := verdict(d, b.EndToEnd[d.Name], c.EndToEnd[d.Name])
			mb, mc := median(b.EndToEnd[d.Name]), median(c.EndToEnd[d.Name])
			fmt.Printf("%-18s %-16s %14.6g %14.6g %8.3f %5.0f%%  %s\n", w.name, d.Name, mb, mc, ratio(mc, mb), 100*d.Bound, v)
			if v == "worse" || v == "missing" {
				code = 1
			}
		}
		fb, fc := float64(b.Failed)/float64(max(b.Attempted, 1)), float64(c.Failed)/float64(max(c.Attempted, 1))
		v := "within-bound"
		if fc > fb {
			v, code = "worse", 1
		}
		fmt.Printf("%-18s %-16s %14.6g %14.6g %8s %5.0f%%  %s\n", w.name, "fail_share", fb, fc, "", 0.0, v)
	}
	fmt.Printf("\nledger (ungated; = marks metrics that must repeat exactly at equal seed)\n")
	fmt.Printf("%-18s %-36s %14s %14s %8s\n", "workload", "metric", "base", "new", "new/base")
	for _, w := range workloads {
		b, c := base.Workloads[w.name], cur.Workloads[w.name]
		if b == nil || c == nil {
			continue
		}
		for _, d := range perLayer {
			vb, vc := b.Ledger[d.Name], c.Ledger[d.Name]
			if vb == 0 && vc == 0 {
				continue
			}
			name, flag := d.Name, ""
			if d.Exact {
				name += " ="
				if sameSeed && vb != vc {
					flag, code = "  DIFFERS", 1
				}
			}
			fmt.Printf("%-18s %-36s %14.6g %14.6g %8.3f%s\n", w.name, name, vb, vc, ratio(vc, vb), flag)
		}
		// Informational: flagged, never failed.
		flag := ""
		if sameSeed && b.SimDigest != c.SimDigest {
			flag = "  changed"
		}
		fmt.Printf("%-18s %-36s %14s %14s%s\n", w.name, "sim_digest", b.SimDigest, c.SimDigest, flag)
	}
	return code
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
