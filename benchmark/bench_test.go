package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

func TestMedianAndPercentile(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("median of 3 = %g, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99, 99}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..100 = %g, want %g", c.p, got, c.want)
		}
	}
}

// The reported tail is the highest percentile that still has at least
// ten samples beyond it.
func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n        int
		pct, val float64
	}{
		{15, 0, 0},      // nothing above the median has ten beyond it
		{40, 75, 30},    // 40 - ceil(.75*40) = 10 beyond
		{100, 90, 90},   // p91 would leave 9
		{200, 95, 190},  // the sample size at which "p95" is honest
		{1000, 99, 990}, // capped at p99
	} {
		pct, val := tailPercentile(seq(c.n))
		if pct != c.pct || val != c.val {
			t.Errorf("n=%d: tail p%g=%g, want p%g=%g", c.n, pct, val, c.pct, c.val)
		}
	}
}

func TestBlockMedian(t *testing.T) {
	// 5 blocks of 4 ops; one block is slow throughout, one op elsewhere
	// is an outlier. Neither moves the block median.
	var ops []float64
	for b := 0; b < blocks; b++ {
		for k := 0; k < 4; k++ {
			v := 10.0
			if b == 2 {
				v = 25
			}
			ops = append(ops, v)
		}
	}
	ops[0] = 500
	if got := blockMedian(ops); got != 10 {
		t.Errorf("block median = %g, want 10", got)
	}
	// Sizes differ by at most one and cover every op exactly once.
	for _, n := range []int{5, 7, 23, 100} {
		b := blockBounds(n)
		if b[0] != 0 || b[blocks] != n {
			t.Errorf("n=%d: bounds %v do not cover the ops", n, b)
		}
		for k := 0; k < blocks; k++ {
			if size := b[k+1] - b[k]; size < n/blocks || size > n/blocks+1 {
				t.Errorf("n=%d: block %d has %d ops", n, k, size)
			}
		}
	}
	p := &pass{}
	for i := 0; i < 10; i++ {
		p.wall = append(p.wall, 1)
		p.work = append(p.work, 100)
		p.cpu = append(p.cpu, 0.5)
	}
	p.cpu[9] = 5 // one slow block
	if got := p.workPerCPU(); got != 200 {
		t.Errorf("work per CPU-second = %g, want 200", got)
	}
}

// iqrShare must agree with Python's statistics.quantiles(xs, n=4).
func TestIQRShareMatchesPython(t *testing.T) {
	// statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) = [2.75, 5.5, 8.25]
	xs := []float64{7, 1, 9, 3, 5, 2, 10, 4, 8, 6}
	if got, want := iqrShare(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqr share = %g, want %g", got, want)
	}
	// statistics.quantiles([10, 12, 11], n=4) = [10.0, 11.0, 12.0]
	if got, want := iqrShare([]float64{10, 12, 11}), 2.0/11; math.Abs(got-want) > 1e-12 {
		t.Errorf("iqr share of 3 = %g, want %g", got, want)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{Name: "op", Start: ms(0), End: ms(100), Parent: -1},
		{Name: "a", Start: ms(10), End: ms(50), Parent: 0},
		{Name: "b", Start: ms(30), End: ms(70), Parent: 0},  // overlaps a by 20ms
		{Name: "c", Start: ms(90), End: ms(120), Parent: 0}, // runs past its parent
		{Name: "a1", Start: ms(10), End: ms(20), Parent: 1},
		{Name: "open", Start: ms(5), End: -1, Parent: 0}, // never closed: ignored
	}
	self := selfTimes(spans)
	// a∪b covers [10,70), c is clipped to [90,100): 70ms covered.
	if self[0] != ms(30) {
		t.Errorf("op self time = %v, want 30ms", self[0])
	}
	if self[1] != ms(30) {
		t.Errorf("a self time = %v, want 30ms", self[1])
	}
	if self[2] != ms(40) || self[4] != ms(10) {
		t.Errorf("leaf self times = %v, %v; want their durations", self[2], self[4])
	}
	if got := coveredShare(spans); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("covered share = %g, want 0.7", got)
	}
}

// Same seed, byte-identical generated inputs; another seed, other
// inputs.
func TestGeneratorsFollowTheSeed(t *testing.T) {
	render := func(seed uint64) string {
		var b strings.Builder
		for i := -1; i < 6; i++ {
			c := genChurn(seed, i)
			b.WriteString(c.Scenario)
			js, _ := json.Marshal(c.Jobs)
			b.Write(js)
			gs, _ := json.Marshal(genSweep(seed, i))
			b.Write(gs)
			for _, stream := range []string{"fleet-steady", "fleet-churn", "preprocess-fanin"} {
				b.WriteString(strings.Repeat("x", int(corpusSeed(seed, stream, i)%7)))
			}
		}
		return b.String()
	}
	if render(7) != render(7) {
		t.Error("the same seed generated different inputs")
	}
	if render(7) == render(8) {
		t.Error("different seeds generated the same inputs")
	}
	if reflect.DeepEqual(genChurn(7, 0), genChurn(7, 1)) {
		t.Error("two ops of one seed share their inputs")
	}
}

func TestGeneratedShapes(t *testing.T) {
	for seed := uint64(0); seed < 50; seed++ {
		for i := -1; i < 20; i++ {
			c := genChurn(seed, i)
			if n := len(c.Jobs); n < 4 || n > 6 {
				t.Fatalf("seed %d op %d: %d templates", seed, i, n)
			}
			if c.Tenants < 20 || c.Tenants > 24 {
				t.Fatalf("seed %d op %d: %d tenants", seed, i, c.Tenants)
			}
			batches := map[int]bool{}
			for _, j := range c.Jobs {
				batches[j.Batch] = true
			}
			if len(batches) != len(c.Jobs) {
				t.Fatalf("seed %d op %d: templates share a batch geometry", seed, i)
			}
			grid := genSweep(seed, i)
			if len(grid) != 12 {
				t.Fatalf("seed %d op %d: grid of %d", seed, i, len(grid))
			}
			frozen, families := 0, map[string]bool{}
			for _, g := range grid {
				if g.Freeze != "" {
					frozen++
				}
				if d := g.Neighbour - g.Nodes; d != 1 && d != -1 {
					t.Fatalf("seed %d op %d: neighbour %d of %d nodes", seed, i, g.Neighbour, g.Nodes)
				}
				families[fmt.Sprint(g.Model, g.Freeze, g.Batch)] = true
			}
			if frozen != 4 || len(families) != 12 {
				t.Fatalf("seed %d op %d: %d frozen specs, %d families", seed, i, frozen, len(families))
			}
		}
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// Every name the benchmark prints is declared in BENCHMARK.json with
// the same unit, direction and bound, and the other way round.
func TestManifestMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	want := []string{"command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"}
	for _, k := range want {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks the key %q", k)
		}
	}
	if len(keys) != len(want) {
		t.Errorf("BENCHMARK.json has %d keys, want exactly %v", len(keys), want)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q outside the allowed alphabet", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		name(w.name)
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
		if n := len(w.why); n == 0 || n > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.name, n)
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) || len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(bj.EndToEnd), len(bj.PerLayer), len(endToEnd), len(perLayer))
	}
	hasSetup := false
	for i, d := range endToEnd {
		name(d.Name)
		b := bj.EndToEnd[i]
		if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better || b.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the benchmark %+v", i, b, d)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q not allowed", d.Name, d.Unit, d.Better)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for i, d := range perLayer {
		name(d.Name)
		b := bj.PerLayer[i]
		if b.Name != d.Name || b.Unit != d.Unit || b.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the benchmark %+v", i, b, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q not allowed", d.Name, d.Unit, d.Better)
		}
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 || len(workloads) < 2 || len(workloads) > 8 {
		t.Error("metric or workload count outside the contract's limits")
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", bj.Paths)
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d outside [1, 60]", bj.RunSeconds)
	}
}

// Each workload runs two ops with every check on, untraced; then a
// short traced run must give every ledger name a finite value and
// write its spans.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			tmp := t.TempDir()
			inst, refs, err := prepare(w, 3, tmp)
			if err != nil {
				t.Fatal(err)
			}
			p := runOps(inst, 2, 0, refs, nil)
			inst.close()
			if p.failed != 0 || len(p.wall) != 2 {
				t.Fatalf("%d of %d ops failed: %v", p.failed, len(p.wall), p.errs)
			}
			if p.opMsP50() <= 0 || p.workPerCPU() <= 0 {
				t.Errorf("op_ms_p50 %g, work_per_cpu_s %g: both must be positive", p.opMsP50(), p.workPerCPU())
			}
			if _, ok := refs[0]; !ok {
				t.Error("op 0 is not reference-checked")
			}
			if testing.Short() {
				return
			}
			w.traceOps = 4
			spans := tmp + "/spans.json"
			both, l, err := runTraced(w, 3, tmp, spans)
			if err != nil {
				t.Fatal(err)
			}
			if both.failed != 0 {
				t.Fatalf("traced run: %d ops failed: %v", both.failed, both.errs)
			}
			declared := map[string]bool{}
			for _, d := range perLayer {
				declared[d.Name] = true
				if v := l[d.Name]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s = %g", d.Name, v)
				}
			}
			for name := range l {
				if !declared[name] {
					t.Errorf("ledger metric %q is not declared in the manifest", name)
				}
			}
			if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
				t.Errorf("span file: %v", err)
			}
		})
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "work_per_cpu_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) []float64 { return []float64{v, v * 1.01, v * 0.99} }
	for _, c := range []struct {
		d         metricDef
		base, cur []float64
		want      string
	}{
		{lower, steady(100), steady(104), "within-bound"},
		{lower, steady(100), steady(115), "worse"},
		{lower, steady(100), steady(80), "better"},
		{higher, steady(100), steady(80), "worse"},
		{higher, steady(100), steady(120), "better"},
		{lower, []float64{80, 100, 130}, steady(100), "unresolved"},
		{lower, nil, steady(100), "missing"},
	} {
		if got := verdict(c.d, c.base, c.cur); got != c.want {
			t.Errorf("%s %v -> %v: %s, want %s", c.d.Name, c.base, c.cur, got, c.want)
		}
	}
}
