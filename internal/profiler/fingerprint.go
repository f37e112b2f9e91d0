package profiler

import "disttrain/internal/fingerprint"

// CalibrationFingerprint returns a content hash of everything a plan
// search reads from this profiler: the full Options (cluster, model,
// freeze setting, StepCCL overlap) plus the calibrated state, the mean
// sample shape. Two profilers with identical options and identical
// calibrations fingerprint identically, whatever their pointer
// identity, so the durable plan cache can share plans across processes
// and across independently calibrated instances.
//
// The hash is recomputed by New and CalibrateShapes and cached; like
// every query method it must not race a concurrent calibration (the
// profiler-wide contract).
func (p *Profiler) CalibrationFingerprint() string { return p.fp }

func (p *Profiler) computeFingerprint() string {
	h := fingerprint.New("disttrain-profiler/v2")
	o := p.opts
	fingerprint.Cluster(h, o.Cluster)
	fingerprint.Model(h, o.Model)
	fingerprint.Freeze(h, o.Freeze)
	h.F64(o.StepCCLOverlap)
	h.Bool(p.calibrated)
	fingerprint.Shape(h, p.meanShape)
	return h.Sum()
}
