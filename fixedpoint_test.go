package tiledcfd

import (
	"math"
	"strings"
	"testing"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/quant"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// TestEstimatorRegistryNames: the registry drives both EstimatorNames and
// the "unknown estimator" error, so new backends can never leave the
// message stale.
func TestEstimatorRegistryNames(t *testing.T) {
	names := EstimatorNames()
	want := []string{"platform", "direct", "fam", "ssca", "fam-q15", "ssca-q15"}
	if len(names) != len(want) {
		t.Fatalf("EstimatorNames() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("EstimatorNames() = %v, want %v", names, want)
		}
	}
	_, err := Sense(make([]complex128, 4096), Config{Estimator: "nope"})
	if err == nil {
		t.Fatal("unknown estimator accepted")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("unknown-estimator error %q does not list %q", err, name)
		}
	}
}

// TestQ15BackendsSelectable: fam-q15/ssca-q15 via Config.Estimator run
// the full sensing pipeline and report modeled cycles.
func TestQ15BackendsSelectable(t *testing.T) {
	band, err := NewBPSKBand(2048, 0.125, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fam-q15", "ssca-q15"} {
		s, err := Sense(band, Config{Threshold: 0.3, Estimator: name})
		if err != nil {
			t.Fatalf("Sense(%s): %v", name, err)
		}
		if s.Estimator != name {
			t.Errorf("Sense(%s).Estimator = %q", name, s.Estimator)
		}
		if !s.Detected {
			t.Errorf("%s missed the 10 dB licensed user (statistic %v)", name, s.Statistic)
		}
		if s.ModelCycles <= 0 {
			t.Errorf("%s reported no modeled cycles", name)
		}
		if s.FFTMults == 0 {
			t.Errorf("%s reported no FFT mults", name)
		}
		sc, err := SpectralCorrelation(band, Config{Estimator: name})
		if err != nil {
			t.Fatalf("SpectralCorrelation(%s): %v", name, err)
		}
		if sc.ModelCycles <= 0 {
			t.Errorf("SpectralCorrelation(%s) reported no modeled cycles", name)
		}
	}
	// Hop is threaded to fam-q15 and rejected by ssca-q15.
	if _, err := Sense(band, Config{Estimator: "fam-q15", Hop: 128, Threshold: 0.3}); err != nil {
		t.Errorf("fam-q15 with Hop=128: %v", err)
	}
	if _, err := Sense(band, Config{Estimator: "ssca-q15", Hop: 64}); err == nil {
		t.Error("ssca-q15 accepted Hop")
	}
}

// e14Band synthesises the E14 comparison band: the paper geometry's
// licensed user (BPSK, carrier 0.125, 8 samples/symbol) at the given SNR.
func e14Band(t testing.TB, n int, snrDB float64, seed uint64) []complex128 {
	t.Helper()
	band, err := NewBPSKBand(n, 0.125, 8, snrDB, seed)
	if err != nil {
		t.Fatal(err)
	}
	return band
}

// TestE14Q15CrossCheck is the acceptance cross-check: on the E14 BPSK
// geometry (K=256, M=64) the Q15 backends must track their float
// references within bounded SQNR (>= 40 dB) and return identical
// detection verdicts at a threshold calibrated on the float path.
func TestE14Q15CrossCheck(t *testing.T) {
	const k, m, blocks = 256, 64, 8
	p := scf.Params{K: k, M: m}
	pairs := []struct {
		name  string
		fixed quant.FixedEstimator
		ref   scf.Estimator
	}{
		{"fam-q15", fam.FAMQ15{Params: p}, fam.FAM{Params: p}},
		{"ssca-q15", fam.SSCAQ15{Params: p}, fam.SSCA{Params: p}},
	}
	// Calibrate a shared threshold on the float path at 10% false-alarm
	// over noise-only trials, then demand verdict-identical decisions
	// from the fixed path on held-out busy and idle bands across SNRs.
	scenario := func(rng *sig.Rand, present bool) []complex128 {
		noise := sig.Samples(&sig.WGN{Sigma: 0.5, Real: true, Rng: rng}, k*blocks)
		if !present {
			return noise
		}
		s := sig.Samples(&sig.BPSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}, k*blocks)
		for i := range s {
			s[i] += noise[i]
		}
		return s
	}
	for _, pair := range pairs {
		cmp, err := quant.Compare(e14Band(t, k*blocks, 10, 42), pair.fixed, pair.ref)
		if err != nil {
			t.Fatal(err)
		}
		if cmp.SQNRdB < 40 {
			t.Errorf("%s: E14 surface SQNR = %.1f dB, want >= 40", pair.name, cmp.SQNRdB)
		}
		if math.Abs(cmp.PeakBias) > 0.02 {
			t.Errorf("%s: feature-peak bias %.4f, want within 2%%", pair.name, cmp.PeakBias)
		}
		refDet := detect.CFDDetector{MinAbsA: 2, Estimator: pair.ref}
		fixDet := detect.CFDDetector{MinAbsA: 2, Estimator: pair.fixed}
		th, err := detect.CalibrateThreshold(refDet, scenario, 20, 0.1, 77)
		if err != nil {
			t.Fatal(err)
		}
		rng := sig.NewRand(123)
		for trial := 0; trial < 8; trial++ {
			present := trial%2 == 0
			x := scenario(rng, present)
			rs, err := refDet.Statistic(x)
			if err != nil {
				t.Fatal(err)
			}
			fs, err := fixDet.Statistic(x)
			if err != nil {
				t.Fatal(err)
			}
			if (rs > th) != (fs > th) {
				t.Errorf("%s trial %d (present=%v): verdict split — float %.4f vs fixed %.4f at threshold %.4f",
					pair.name, trial, present, rs, fs, th)
			}
		}
	}
}

// TestQ15SenseBitExactAcrossWorkers: the full pipeline verdict and
// surface are identical for any Workers setting.
func TestQ15SenseBitExactAcrossWorkers(t *testing.T) {
	band := e14Band(t, 2048, 6, 9)
	for _, name := range []string{"fam-q15", "ssca-q15"} {
		ref, err := Sense(band, Config{Threshold: 0.3, Estimator: name, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range []int{0, 2, 5} {
			got, err := Sense(band, Config{Threshold: 0.3, Estimator: name, Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			if got.Statistic != ref.Statistic || got.Detected != ref.Detected {
				t.Errorf("%s Workers=%d: statistic %v/%v vs serial %v/%v",
					name, w, got.Statistic, got.Detected, ref.Statistic, ref.Detected)
			}
			for i := range ref.Surface {
				for j := range ref.Surface[i] {
					if ref.Surface[i][j] != got.Surface[i][j] {
						t.Fatalf("%s Workers=%d: surface differs at [%d][%d]", name, w, i, j)
					}
				}
			}
		}
	}
}

// TestMonitorStreamsQ15: a fam-q15 or ssca-q15 Monitor, which sets no
// InputPeak, decides every window, and each verdict is the batch one
// over that window alone: Sense over exactly the window's samples, its
// quantiser conditioned on the window's own peak.
func TestMonitorStreamsQ15(t *testing.T) {
	const k, window, windows = 64, 1024, 4
	band, err := NewBPSKBand(windows*window, 8.0/k, 8, 6, 52)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fam-q15", "ssca-q15"} {
		cfg := Config{K: k, M: 16, Estimator: name}
		mon, err := NewMonitor(cfg, MonitorOptions{
			Channels: []string{"q"}, SnapshotSamples: window, Backpressure: true,
		})
		if err != nil {
			t.Fatalf("NewMonitor(%s): %v", name, err)
		}
		for w := 0; w < windows; w++ {
			if _, err := mon.Push("q", band[w*window:(w+1)*window]); err != nil {
				t.Fatal(err)
			}
		}
		if err := mon.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		var decs []MonitorDecision
		for d := range mon.Decisions() {
			decs = append(decs, d)
		}
		if len(decs) != windows {
			t.Fatalf("%s: %d decisions over %d windows, want one per window", name, len(decs), windows)
		}
		for i, d := range decs {
			want, err := Sense(band[i*window:(i+1)*window], cfg)
			if err != nil {
				t.Fatal(err)
			}
			if d.Window != window || d.Statistic != want.Statistic || d.Threshold != want.Threshold || d.Detected != want.Detected {
				t.Fatalf("%s decision %d: window %d statistic %v threshold %v detected %v; batch over its window: %v %v %v",
					name, i, d.Window, d.Statistic, d.Threshold, d.Detected, want.Statistic, want.Threshold, want.Detected)
			}
		}
	}
}
