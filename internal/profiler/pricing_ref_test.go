package profiler

import (
	"math"

	"disttrain/internal/comm"
	"disttrain/internal/model"
)

// This file is the pricing oracle: the cost formulas as they read
// before they were compiled into model.CostKernel and Rate — the
// bodies of TransformerConfig.FwdFLOPsPerToken, MLLM.EncoderFwdFLOPs /
// GeneratorFwdFLOPs / generatorTrainableFwdFLOPs / ModuleTrainFLOPs /
// ModuleFwdFLOPs and Profiler.efficiency / tpComm / SampleForward /
// SampleTrain, verbatim but for receivers becoming parameters and the
// deployment options the profiler no longer has (replicated encoder and
// generator, sequence parallelism, the cluster's SKU for every module)
// becoming their one value. They
// re-derive every constant from the configs on every call, which is
// what made them slow and what makes them a reference: the compiled
// path must agree with them bit for bit (FuzzSamplePricing).

func refFwdFLOPsPerToken(c model.TransformerConfig, seqLen int) float64 {
	h := float64(c.HiddenSize)
	l := float64(c.Layers)
	s := float64(seqLen)
	matmul := 2 * l * c.ParamsPerLayer()
	// Per token per layer: QK^T is 2*s*h FLOPs, attention-weighted V sum
	// another 2*s*h. Causal masking halves the effective length.
	attn := l * 2 * s * h // (2*s*h + 2*s*h) / 2 for causal
	if c.VocabSize == 0 {
		attn = l * 4 * s * h / 2 // bidirectional encoder: same cost, kept explicit
	}
	head := 0.0
	if c.VocabSize > 0 {
		head = 2 * float64(c.VocabSize) * h
	}
	return matmul + attn + head
}

func refFwdFLOPs(c model.TransformerConfig, seqLen int) float64 {
	return float64(seqLen) * refFwdFLOPsPerToken(c, seqLen)
}

func refEncoderFwdFLOPs(m model.MLLM, s model.SampleShape) float64 {
	total := 0.0
	for _, tokens := range s.ImageTokens {
		if tokens <= 0 {
			continue
		}
		total += refFwdFLOPs(m.Encoder, tokens)
	}
	total += float64(s.TotalImageTokens()) * m.InProj.FwdFLOPsPerToken()
	return total
}

func refBackboneFwdFLOPs(m model.MLLM) float64 { return refFwdFLOPs(m.Backbone, m.SeqLen) }

func refGeneratorFwdFLOPs(m model.MLLM, s model.SampleShape) float64 {
	proj := float64(m.SeqLen) * m.OutProj.FwdFLOPsPerToken()
	perImage := m.Generator.FwdFLOPsPerImage(m.GenResolution) +
		m.VAE.EncodeFLOPsPerImage(m.GenResolution)
	return proj + float64(s.GenImages)*perImage
}

func refGeneratorTrainableFwdFLOPs(m model.MLLM, s model.SampleShape) float64 {
	proj := float64(m.SeqLen) * m.OutProj.FwdFLOPsPerToken()
	return proj + float64(s.GenImages)*m.Generator.FwdFLOPsPerImage(m.GenResolution)
}

func refModuleTrainFLOPs(m model.MLLM, mod model.Module, s model.SampleShape, f model.FreezeSpec) (fwd, bwd float64) {
	fwd = refModuleFwdFLOPs(m, mod, s)
	factor := f.BackwardFactor(mod)
	if mod == model.Generator {
		bwd = factor * refGeneratorTrainableFwdFLOPs(m, s)
		return fwd, bwd
	}
	return fwd, factor * fwd
}

func refModuleFwdFLOPs(m model.MLLM, mod model.Module, s model.SampleShape) float64 {
	switch mod {
	case model.Encoder:
		return refEncoderFwdFLOPs(m, s)
	case model.Backbone:
		return refBackboneFwdFLOPs(m)
	case model.Generator:
		return refGeneratorFwdFLOPs(m, s)
	}
	return 0
}

func refEfficiency(p *Profiler, mod model.Module, width int) float64 {
	var base float64
	switch mod {
	case model.Backbone:
		base = 0.68
	case model.Encoder:
		base = 0.57
	case model.Generator:
		base = 0.44
	}
	if mod != model.Backbone {
		// Replication keeps full-size kernels on every GPU.
		return base
	}
	return base * (1 - 0.02*math.Log2(float64(width)))
}

func refTPComm(p *Profiler, mod model.Module, tp int, samples int) float64 {
	if tp <= 1 {
		return 0
	}
	if mod != model.Backbone {
		return 0 // replicated modules do not communicate within the group
	}
	m := p.opts.Model
	cost := comm.CollectiveCost{
		BandwidthBps: p.opts.Cluster.GroupBandwidth(tp),
		Latency:      p.opts.Cluster.LinkLatency,
	}
	layers := m.Backbone.Layers
	actBytes := float64(m.SeqLen) * float64(m.Backbone.HiddenSize) * 2 * float64(samples)
	per := comm.TPOverheadPerLayer(cost, actBytes, tp, p.opts.StepCCLOverlap)
	return per * float64(layers)
}

func refSampleForward(p *Profiler, mod model.Module, width int, s model.SampleShape) float64 {
	flops := refModuleFwdFLOPs(p.opts.Model, mod, s)
	eff := refEfficiency(p, mod, width)
	gpu := p.opts.Cluster.GPU.PeakFLOPS
	t := flops / (float64(width) * gpu * eff)
	if mod != model.Backbone {
		// Image-granular replication: imbalance when images % width != 0.
		n := len(s.ImageTokens)
		if mod == model.Generator {
			n = s.GenImages
		}
		t *= balanceFactor(n, width)
	}
	return t + refTPComm(p, mod, width, 1)
}

func refSampleTrain(p *Profiler, mod model.Module, width int, s model.SampleShape) float64 {
	fwdFLOPs, bwdFLOPs := refModuleTrainFLOPs(p.opts.Model, mod, s, p.opts.Freeze)
	eff := refEfficiency(p, mod, width)
	gpu := p.opts.Cluster.GPU.PeakFLOPS
	t := (fwdFLOPs + bwdFLOPs) / (float64(width) * gpu * eff)
	if mod != model.Backbone {
		n := len(s.ImageTokens)
		if mod == model.Generator {
			n = s.GenImages
		}
		t *= balanceFactor(n, width)
	}
	// Backward mirrors forward communication.
	commMult := 1.0
	if bwdFLOPs > 0 {
		commMult = 2
	}
	return t + commMult*refTPComm(p, mod, width, 1)
}
