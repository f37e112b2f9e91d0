package profiler

import (
	"reflect"
	"sort"
	"testing"

	"disttrain/internal/cluster"
	"disttrain/internal/data"
	"disttrain/internal/model"
)

func calibratedWith(t *testing.T, opts Options, n int) *Profiler {
	t.Helper()
	p, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	corpus, err := data.NewCorpus(data.LAION400M())
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Calibrate(corpus, n); err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCalibrationFingerprintContentAddressed pins the property the
// durable plan cache is built on: the fingerprint is a pure function of
// options + calibration content, independent of pointer identity.
func TestCalibrationFingerprintContentAddressed(t *testing.T) {
	opts := DefaultOptions(cluster.Production(4), model.MLLM9B())
	a := calibratedWith(t, opts, 50)
	b := calibratedWith(t, opts, 50)
	if a == b {
		t.Fatal("want distinct instances")
	}
	if a.CalibrationFingerprint() != b.CalibrationFingerprint() {
		t.Error("identically calibrated profilers fingerprint differently")
	}
	if len(a.CalibrationFingerprint()) != 64 {
		t.Errorf("fingerprint %q is not a sha256 hex digest", a.CalibrationFingerprint())
	}
}

// TestCalibrationFingerprintDiscriminates checks every class of state
// the hash must separate: uncalibrated vs calibrated, different
// calibration data, and each Options knob a search reads.
func TestCalibrationFingerprintDiscriminates(t *testing.T) {
	base := DefaultOptions(cluster.Production(4), model.MLLM9B())
	ref := calibratedWith(t, base, 50)

	fresh, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	if fresh.CalibrationFingerprint() == "" {
		t.Error("uncalibrated profiler has no fingerprint")
	}
	if fresh.CalibrationFingerprint() == ref.CalibrationFingerprint() {
		t.Error("uncalibrated profiler collides with calibrated one")
	}
	if calibratedWith(t, base, 10).CalibrationFingerprint() == ref.CalibrationFingerprint() {
		t.Error("different calibration sample counts collide")
	}

	encoderOnly, err := model.FreezeByName("encoder-only")
	if err != nil {
		t.Fatal(err)
	}
	mut := map[string]func(*Options){
		"cluster": func(o *Options) { o.Cluster = cluster.Production(5) },
		"model":   func(o *Options) { o.Model = model.MLLM15B() },
		"freeze":  func(o *Options) { o.Freeze = encoderOnly },
		"overlap": func(o *Options) { o.StepCCLOverlap = 0.5 },
	}
	for name, m := range mut {
		opts := base
		m(&opts)
		if calibratedWith(t, opts, 50).CalibrationFingerprint() == ref.CalibrationFingerprint() {
			t.Errorf("option %q not part of the fingerprint", name)
		}
	}

	// Recalibration with different shapes moves the fingerprint.
	before := ref.CalibrationFingerprint()
	if err := ref.CalibrateShapes([]model.SampleShape{{ImageTokens: []int{64}, GenImages: 0}}); err != nil {
		t.Fatal(err)
	}
	if ref.CalibrationFingerprint() == before {
		t.Error("recalibration did not change the fingerprint")
	}
}

// TestOptionsFieldSetPinned mirrors the fingerprint package's guard:
// new Options fields must enter computeFingerprint before this list.
func TestOptionsFieldSetPinned(t *testing.T) {
	want := []string{"Cluster", "Model", "Freeze", "StepCCLOverlap"}
	rt := reflect.TypeOf(Options{})
	var got []string
	for i := 0; i < rt.NumField(); i++ {
		got = append(got, rt.Field(i).Name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("profiler.Options fields changed:\ngot  %v\nwant %v\nhash the new field in computeFingerprint first", got, want)
	}
}
