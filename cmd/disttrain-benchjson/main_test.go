package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	out := `goos: linux
goarch: amd64
pkg: disttrain
BenchmarkPlanSearch/sequential-8         	       1	 123456789 ns/op
BenchmarkFleetThroughput/jobs=4-8        	       1	   9100509 ns/op	  120000 B/op	    3500 allocs/op
BenchmarkVPPAblation/vpp=2-8             	       1	      2200 ns/op	        14.5 bubble%
| table row | that is not a benchmark |
BenchmarkBroken-8                        	     nan	 123 ns/op
PASS
ok  	disttrain	1.234s
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	b := report.Benchmarks[1]
	if b.Name != "BenchmarkFleetThroughput/jobs=4-8" || b.NsPerOp != 9100509 || b.Iterations != 1 || b.Samples != 1 {
		t.Errorf("benchmark 1 = %+v, want the name as go test printed it", b)
	}
	if got := b.Metrics["allocs/op"]; got != 3500 {
		t.Errorf("allocs/op metric = %g", got)
	}
	if got := b.Metrics["B/op"]; got != 120000 {
		t.Errorf("B/op metric = %g", got)
	}
	if got := report.Benchmarks[2].Metrics["bubble%"]; got != 14.5 {
		t.Errorf("bubble%% metric = %g", got)
	}
}

// TestParseMergesRepeatedRuns: -count=N produces repeated names; the
// report keeps one whole sample per name — the one with the median
// ns/op, its allocs/op and B/op from the same run.
func TestParseMergesRepeatedRuns(t *testing.T) {
	out := `BenchmarkFleetThroughput/jobs=1 	 100 	 4000000 ns/op 	 1000 B/op 	 461 allocs/op
BenchmarkFleetThroughput/jobs=1 	 100 	 3800000 ns/op 	 1010 B/op 	 462 allocs/op
BenchmarkFleetThroughput/jobs=1 	 100 	 6000000 ns/op 	 1020 B/op 	 463 allocs/op
BenchmarkOther 	 1 	 100 ns/op
`
	report, err := parse(strings.NewReader(out))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2 merged: %+v", len(report.Benchmarks), report.Benchmarks)
	}
	median := report.Benchmarks[0]
	if median.NsPerOp != 4000000 || median.Metrics["allocs/op"] != 461 || median.Metrics["B/op"] != 1000 || median.Samples != 3 {
		t.Errorf("kept sample %+v, want the median whole (4000000 ns/op, 1000 B/op, 461 allocs/op, 3 samples)", median)
	}
	if other := report.Benchmarks[1]; other.Name != "BenchmarkOther" || other.Samples != 1 {
		t.Errorf("benchmark 1 = %+v", other)
	}
}

func TestWriteAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	report := &Report{Benchmarks: []Benchmark{{Name: "B", Iterations: 1, NsPerOp: 42}}}
	if err := writeAtomic(path, report); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back Report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Benchmarks) != 1 || back.Benchmarks[0].NsPerOp != 42 {
		t.Fatalf("round trip lost data: %+v", back)
	}
	if err := writeAtomic(filepath.Join(dir, "missing", "x.json"), report); err == nil {
		t.Fatal("write into missing directory accepted")
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}
