// Command disttrain-benchjson converts `go test -bench` output on
// stdin into machine-readable JSON, so a change can record the root
// benchmarks' trajectory (`make bench-json` writes BENCH_fleet.json)
// instead of leaving it in logs. It records; it gates nothing.
//
//	go test -bench=BenchmarkFleetThroughput -count=5 -benchmem -run='^$' . | disttrain-benchjson -o BENCH_fleet.json
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"disttrain/internal/metrics"
)

// Benchmark is one benchmark's representative sample.
type Benchmark struct {
	// Name is the benchmark name exactly as go test prints it.
	Name       string  `json:"name"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"ns_per_op"`
	// Samples is how many result lines the representative was picked
	// from.
	Samples int `json:"samples"`
	// Metrics carries every extra `<value> <unit>` pair the benchmark
	// reported (b.ReportMetric, -benchmem): B/op, allocs/op...
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Report is the output document.
type Report struct {
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "", "output file (default stdout); written atomically via temp file + rename")
	flag.Parse()

	report, err := parse(os.Stdin)
	if err != nil {
		fatal(err)
	}
	if *out == "" {
		if err := encode(os.Stdout, report); err != nil {
			fatal(err)
		}
		return
	}
	if err := writeAtomic(*out, report); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s (%d benchmarks)\n", *out, len(report.Benchmarks))
}

// parse extracts benchmark result lines: `BenchmarkName  N  V ns/op
// [V unit]...`. Non-benchmark lines (experiment tables, PASS/ok) are
// skipped. Repeated names (-count=N) collapse to the sample with the
// median ns/op, kept whole so its allocs/op belongs to the same run as
// its time.
func parse(r io.Reader) (*Report, error) {
	seen := map[string][]Benchmark{}
	order := []string{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{Name: fields[0], Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break
			}
			if unit := fields[i+1]; unit == "ns/op" {
				b.NsPerOp = v
			} else {
				if b.Metrics == nil {
					b.Metrics = map[string]float64{}
				}
				b.Metrics[unit] = v
			}
		}
		if b.NsPerOp <= 0 {
			continue
		}
		if _, ok := seen[b.Name]; !ok {
			order = append(order, b.Name)
		}
		seen[b.Name] = append(seen[b.Name], b)
	}
	report := &Report{Benchmarks: []Benchmark{}}
	for _, name := range order {
		samples := seen[name]
		sort.SliceStable(samples, func(i, j int) bool { return samples[i].NsPerOp < samples[j].NsPerOp })
		pick := samples[len(samples)/2]
		pick.Samples = len(samples)
		report.Benchmarks = append(report.Benchmarks, pick)
	}
	return report, sc.Err()
}

// writeAtomic writes the report through metrics.WriteFileAtomic.
func writeAtomic(path string, report *Report) error {
	return metrics.WriteFileAtomic(path, func(w io.Writer) error { return encode(w, report) })
}

func encode(w io.Writer, report *Report) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(report)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "disttrain-benchjson:", err)
	os.Exit(1)
}
