// Package experiments regenerates every table and figure of the
// paper's evaluation (§2.2-§2.3 characterisation, §7 evaluation,
// Appendix A.1). Each experiment returns a Table whose rows mirror the
// series the paper plots; cmd/disttrain-bench prints them and
// testdata/<id>.golden pins the ten deterministic ones at full scale.
// EXPERIMENTS.md records the shape comparison against the paper.
package experiments

import (
	"fmt"
	"strings"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
	"disttrain/internal/orchestrator"
	"disttrain/internal/profiler"
	"disttrain/internal/trainer"
)

// Table is one regenerated experiment.
type Table struct {
	ID     string // e.g. "fig13"
	Title  string
	Header []string
	Rows   [][]string
	Notes  []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render prints the table with aligned columns.
func (t *Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "  note: %s\n", n)
	}
	return b.String()
}

// Run regenerates one paper table/figure by ID (fig3, fig5,
// fig13..fig19, fig22, table2, table3; Order lists them). The full run
// matches the paper's cluster sizes (1296 GPUs, GBS 1920); quick
// shrinks batch sizes for smoke runs with the same mechanisms.
func Run(id string, quick bool) (*Table, error) {
	fn, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %s", id)
	}
	return fn(quick)
}

// env bundles the shared experimental setup.
type env struct {
	corpus *data.Corpus
	quick  bool
}

func newEnv(quick bool) (*env, error) {
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		return nil, err
	}
	return &env{corpus: corpus, quick: quick}, nil
}

// NewSpec builds the calibrated orchestration spec the programs plan
// and train on: a production cluster of the given node count, the
// model, the global batch size and a profiler calibrated under the
// freeze setting on a fresh synthetic corpus, which it returns too.
func NewSpec(m model.MLLM, nodes, globalBatch int, freeze model.FreezeSpec) (orchestrator.Spec, *data.Corpus, error) {
	e, err := newEnv(false)
	if err != nil {
		return orchestrator.Spec{}, nil, err
	}
	spec, err := e.spec(m, nodes, globalBatch, freeze)
	return spec, e.corpus, err
}

// spec builds a calibrated orchestration spec.
func (e *env) spec(m model.MLLM, nodes, bs int, freeze model.FreezeSpec) (orchestrator.Spec, error) {
	cl := cluster.Production(nodes)
	opts := profiler.DefaultOptions(cl, m)
	opts.Freeze = freeze
	p, err := profiler.New(opts)
	if err != nil {
		return orchestrator.Spec{}, err
	}
	if err := p.Calibrate(e.corpus, 300); err != nil {
		return orchestrator.Spec{}, err
	}
	return orchestrator.Spec{Cluster: cl, Model: m, GlobalBatch: bs, Microbatch: 1, Profiler: p, VPP: 1}, nil
}

// overallScale returns the Figure 13/14 cluster geometry.
func (e *env) overallScale() (nodes, bs, iters int) {
	if e.quick {
		return 162, 480, 1
	}
	return 162, 1920, 2
}

// ablationScale returns the §7.2 geometry: 96 GPUs, GBS 128/64/40.
func (e *env) ablationScale(m model.MLLM) (nodes, bs, iters int) {
	bsByModel := map[string]int{"MLLM-9B": 128, "MLLM-15B": 64, "MLLM-72B": 40}
	bs = bsByModel[m.Name]
	if bs == 0 {
		bs = 64
	}
	iters = 3
	if e.quick {
		iters = 1
	}
	return 12, bs, iters
}

// distmmConfig runs DistMM*'s plan on DistTrain's execution stack
// (§7.2: "DistMM* only uses its orchestration strategy, with all other
// techniques from DistTrain").
func distmmConfig(spec orchestrator.Spec, plan *orchestrator.Plan, corpus *data.Corpus) trainer.Config {
	return trainer.DistTrainConfig(spec, plan, corpus)
}

func ms(seconds float64) string  { return fmt.Sprintf("%.1f", seconds*1e3) }
func pct(frac float64) string    { return fmt.Sprintf("%.1f%%", frac*100) }
func toks(perSec float64) string { return fmt.Sprintf("%.2fM", perSec/1e6) }

// fig3 reproduces the per-stage forward-time characterisation: one PP
// stage of Llama3-70B (PP=10, TP=8) against ViT-Huge and
// Stable-Diffusion on an 8-GPU group, across {8,16} images at
// {512^2, 1024^2} in an 8K sequence.
func fig3(quick bool) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	m := model.MLLM72B()
	spec, err := e.spec(m, 2, 8, model.FullTraining)
	if err != nil {
		return nil, err
	}
	p := spec.Profiler
	t := &Table{
		ID:     "fig3",
		Title:  "Forward time (ms) under different input configurations",
		Header: []string{"config", "Llama3-70B (1 PP stage)", "ViT-Huge", "Stable-Diffusion"},
		Notes: []string{
			"paper shape: LLM flat; encoder and generator grow with images and resolution",
		},
	}
	for _, images := range []int{8, 16} {
		for _, res := range []int{512, 1024} {
			shape := model.SampleShape{GenImages: images}
			for i := 0; i < images; i++ {
				shape.ImageTokens = append(shape.ImageTokens, model.ImageTokens(res))
			}
			mm := m
			mm.GenResolution = res
			popts := profiler.DefaultOptions(spec.Cluster, mm)
			pr, err := profiler.New(popts)
			if err != nil {
				return nil, err
			}
			llm := p.SampleForward(model.Backbone, 8, shape) / 10 // PP=10
			enc := pr.SampleForward(model.Encoder, 8, shape)
			gen := pr.SampleForward(model.Generator, 8, shape)
			t.AddRow(fmt.Sprintf("%d, %dx%d", images, res, res), ms(llm), ms(enc), ms(gen))
		}
	}
	return t, nil
}

// fig5 regenerates the data-heterogeneity characterisation over the
// synthetic LAION-400M-like corpus.
func fig5(quick bool) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	n := 20000
	if quick {
		n = 2000
	}
	ch := data.Characterize(e.corpus, n)
	t := &Table{
		ID:     "fig5",
		Title:  "Data heterogeneity in multimodal LLM training",
		Header: []string{"distribution", "mean", "mode", "skewness", "support"},
		Notes: []string{
			"paper shape: all three distributions highly right-skewed",
			"full histograms: disttrain-data -histograms",
		},
	}
	t.AddRow("text subsequence size (tokens)",
		fmt.Sprintf("%.1f", ch.TextSizes.Mean()), fmt.Sprintf("%d", ch.TextSizes.Mode()),
		fmt.Sprintf("%.2f", ch.TextSkewness()), "[0,128]")
	t.AddRow("image subsequence size (tokens)",
		fmt.Sprintf("%.1f", ch.ImageSizes.Mean()), fmt.Sprintf("%d", ch.ImageSizes.Mode()),
		fmt.Sprintf("%.2f", ch.ImageSkewness()), "[16,4096]")
	t.AddRow("image subsequences per sample",
		fmt.Sprintf("%.1f", ch.ImageCounts.Mean()), fmt.Sprintf("%d", ch.ImageCounts.Mode()),
		fmt.Sprintf("%.2f", ch.CountSkewness()), "[0,32]")
	return t, nil
}

// fig13 reproduces the overall MFU comparison at full scale; fig14 the
// throughput view of the same runs.
func fig13(quick bool) (*Table, error) { return overall(quick, "fig13") }
func fig14(quick bool) (*Table, error) { return overall(quick, "fig14") }

func overall(quick bool, id string) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	nodes, bs, iters := e.overallScale()
	t := &Table{ID: id}
	if id == "fig13" {
		t.Title = "Overall MFU of DistTrain and Megatron-LM (up to 1296 GPUs)"
		t.Header = []string{"model", "Megatron-LM GPUs", "Megatron-LM MFU", "DistTrain GPUs", "DistTrain MFU", "ratio"}
		t.Notes = []string{"paper: DistTrain 51.8-54.7% MFU; 1.7-2.8x (9B/15B), 1.2x (72B)"}
	} else {
		t.Title = "Overall throughput of DistTrain and Megatron-LM (tokens/s)"
		t.Header = []string{"model", "Megatron-LM", "DistTrain", "ratio"}
		t.Notes = []string{"paper: 1.7-2.2x (9B/15B), 1.3x (72B)"}
	}
	for _, m := range model.Presets() {
		spec, err := e.spec(m, nodes, bs, model.FullTraining)
		if err != nil {
			return nil, err
		}
		dtPlan, err := orchestrator.PlanDistTrain(spec)
		if err != nil {
			return nil, err
		}
		mgPlan, err := orchestrator.PlanMegatron(spec)
		if err != nil {
			return nil, err
		}
		dt, err := trainer.Run(trainer.DistTrainConfig(spec, dtPlan, e.corpus), iters)
		if err != nil {
			return nil, err
		}
		mg, err := trainer.Run(trainer.MegatronConfig(spec, mgPlan, e.corpus), iters)
		if err != nil {
			return nil, err
		}
		if id == "fig13" {
			t.AddRow(m.Name, fmt.Sprintf("%d", mg.GPUs), pct(mg.MFU),
				fmt.Sprintf("%d", dt.GPUs), pct(dt.MFU),
				fmt.Sprintf("%.2fx", dt.MFU/mg.MFU))
		} else {
			t.AddRow(m.Name, toks(mg.TokensPerSec), toks(dt.TokensPerSec),
				fmt.Sprintf("%.2fx", dt.TokensPerSec/mg.TokensPerSec))
		}
	}
	return t, nil
}

// fig15 reproduces the disaggregated model orchestration ablation:
// DistTrain vs Megatron-LM vs DistMM* on 96 GPUs.
func fig15(quick bool) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig15",
		Title:  "Disaggregated model orchestration ablation (96 GPUs)",
		Header: []string{"model", "strategy", "GPUs", "MFU", "throughput"},
		Notes:  []string{"paper: DistTrain 1.3-2.7x higher MFU and 1.4-2.7x throughput; DistMM* between"},
	}
	for _, m := range model.Presets() {
		nodes, bs, iters := e.ablationScale(m)
		spec, err := e.spec(m, nodes, bs, model.FullTraining)
		if err != nil {
			return nil, err
		}
		type strat struct {
			name string
			plan func(orchestrator.Spec) (*orchestrator.Plan, error)
			cfg  func(orchestrator.Spec, *orchestrator.Plan, *data.Corpus) trainer.Config
		}
		for _, s := range []strat{
			{"megatron-lm", orchestrator.PlanMegatron, trainer.MegatronConfig},
			{"distmm*", orchestrator.PlanDistMM, distmmConfig},
			{"disttrain", orchestrator.PlanDistTrain, trainer.DistTrainConfig},
		} {
			plan, err := s.plan(spec)
			if err != nil {
				return nil, fmt.Errorf("%s/%s: %w", m.Name, s.name, err)
			}
			res, err := trainer.Run(s.cfg(spec, plan, e.corpus), iters)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, s.name, fmt.Sprintf("%d", res.GPUs), pct(res.MFU), toks(res.TokensPerSec))
		}
	}
	return t, nil
}

// fig16 reproduces the disaggregated data preprocessing ablation:
// DistTrain's dual-level reordering vs Megatron-LM's random order,
// with the model orchestration held fixed at DistTrain's plan.
func fig16(quick bool) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig16",
		Title:  "Disaggregated data preprocessing / reordering ablation",
		Header: []string{"model", "ordering", "MFU", "throughput", "speedup"},
		Notes: []string{
			"paper: 1.03-1.11x, larger for smaller models (bigger DP)",
		},
	}
	for _, m := range model.Presets() {
		nodes, bs, iters := e.ablationScale(m)
		if !quick {
			iters = 5
		}
		spec, err := e.spec(m, nodes, bs, model.FullTraining)
		if err != nil {
			return nil, err
		}
		plan, err := orchestrator.PlanDistTrain(spec)
		if err != nil {
			return nil, err
		}
		cfg := trainer.DistTrainConfig(spec, plan, e.corpus)
		with, err := trainer.Run(cfg, iters)
		if err != nil {
			return nil, err
		}
		cfg.Reorder = false
		without, err := trainer.Run(cfg, iters)
		if err != nil {
			return nil, err
		}
		t.AddRow(m.Name, "random (Megatron-LM)", pct(without.MFU), toks(without.TokensPerSec), "")
		t.AddRow(m.Name, "reordered (DistTrain)", pct(with.MFU), toks(with.TokensPerSec),
			fmt.Sprintf("%.3fx", with.TokensPerSec/without.TokensPerSec))
	}
	return t, nil
}

// fig18 and fig19 reproduce frozen training MFU and throughput across
// the four §7.3 settings.
func fig18(quick bool) (*Table, error) { return frozen(quick, "fig18") }
func fig19(quick bool) (*Table, error) { return frozen(quick, "fig19") }

func frozen(quick bool, id string) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	t := &Table{ID: id}
	if id == "fig18" {
		t.Title = "MFU under frozen training settings"
		t.Header = []string{"setting", "model", "Megatron-LM", "DistTrain", "ratio"}
		t.Notes = []string{"paper: DistTrain 1.4-2.9x higher MFU"}
	} else {
		t.Title = "Throughput under frozen training settings (tokens/s)"
		t.Header = []string{"setting", "model", "Megatron-LM", "DistTrain", "ratio"}
		t.Notes = []string{"paper: DistTrain 1.2-2.9x higher throughput"}
	}
	models := model.Presets()
	if quick {
		models = models[:1]
	}
	for _, freeze := range model.FrozenSettings() {
		for _, m := range models {
			nodes, bs, iters := e.ablationScale(m)
			spec, err := e.spec(m, nodes, bs, freeze)
			if err != nil {
				return nil, err
			}
			dtPlan, err := orchestrator.PlanDistTrain(spec)
			if err != nil {
				return nil, err
			}
			mgPlan, err := orchestrator.PlanMegatron(spec)
			if err != nil {
				return nil, err
			}
			dt, err := trainer.Run(trainer.DistTrainConfig(spec, dtPlan, e.corpus), iters)
			if err != nil {
				return nil, err
			}
			mg, err := trainer.Run(trainer.MegatronConfig(spec, mgPlan, e.corpus), iters)
			if err != nil {
				return nil, err
			}
			if id == "fig18" {
				t.AddRow(freeze.Name, m.Name, pct(mg.MFU), pct(dt.MFU),
					fmt.Sprintf("%.2fx", dt.MFU/mg.MFU))
			} else {
				t.AddRow(freeze.Name, m.Name, toks(mg.TokensPerSec), toks(dt.TokensPerSec),
					fmt.Sprintf("%.2fx", dt.TokensPerSec/mg.TokensPerSec))
			}
		}
	}
	return t, nil
}

// table2 prints the backbone configurations (verification of the model
// substrate against the paper).
func table2(bool) (*Table, error) {
	t := &Table{
		ID:     "table2",
		Title:  "LLM backbone configurations",
		Header: []string{"model", "layers", "hidden", "ffn hidden", "heads", "groups", "params"},
	}
	for _, c := range []model.TransformerConfig{model.Llama3_7B, model.Llama3_13B, model.Llama3_70B} {
		t.AddRow(c.Name, fmt.Sprintf("%d", c.Layers), fmt.Sprintf("%d", c.HiddenSize),
			fmt.Sprintf("%d", c.FFNHiddenSize), fmt.Sprintf("%d", c.Heads),
			fmt.Sprintf("%d", c.KVGroups), fmt.Sprintf("%.1fB", c.Params()/1e9))
	}
	return t, nil
}

// table3 measures the orchestration algorithm's wall-clock overhead at
// the paper's four scales.
func table3(quick bool) (*Table, error) {
	e, err := newEnv(quick)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "table3",
		Title:  "Overhead of disaggregated model orchestration (MLLM-72B)",
		Header: []string{"# GPUs", "global batch", "algorithm overhead"},
		Notes:  []string{"paper: 133ms-922ms, always <1s, growing with scale"},
	}
	rows := []struct{ nodes, bs int }{{14, 240}, {41, 480}, {81, 960}, {162, 1920}}
	if quick {
		rows = rows[:2]
	}
	m := model.MLLM72B()
	for _, r := range rows {
		spec, err := e.spec(m, r.nodes, r.bs, model.FullTraining)
		if err != nil {
			return nil, err
		}
		start := time.Now()
		if _, err := orchestrator.PlanDistTrain(spec); err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", r.nodes*8), fmt.Sprintf("%d", r.bs),
			time.Since(start).Round(time.Millisecond).String())
	}
	return t, nil
}
