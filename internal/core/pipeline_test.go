package core

import (
	"math"
	"testing"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
	"tiledcfd/internal/soc"
)

// fixedDecider is the fixed-threshold decision layer the tests sense
// with: CFD statistic over |a| >= 2 against 0.4.
func fixedDecider() detect.Decider {
	d, err := detect.NewDecider("fixed", detect.DeciderParams{MinAbsA: 2, Threshold: 0.4})
	if err != nil {
		panic(err)
	}
	return d
}

// sense builds a band with or without a BPSK licensed user and runs the
// pipeline on a small platform (fast test geometry).
func sense(t *testing.T, present bool, seed uint64) *Result {
	t.Helper()
	const k, m, blocks = 64, 16, 16
	rng := sig.NewRand(seed)
	n := k * blocks
	var x []complex128
	noise := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, n)
	if present {
		b := &sig.BPSK{Amp: 1, Carrier: 8.0 / k, SymbolLen: 8, Rng: rng}
		x = sig.Samples(b, n)
		for i := range x {
			x[i] += noise[i]
		}
	} else {
		x = noise
	}
	res, err := Run(x, Config{
		SoC:     soc.Config{K: k, M: m, Q: 4, Blocks: blocks},
		Decider: fixedDecider(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineDetectsLicensedUser(t *testing.T) {
	res := sense(t, true, 71)
	if !res.Decision.Detected {
		t.Fatalf("BPSK user not detected: statistic %v", res.Decision.Statistic)
	}
}

func TestPipelineRejectsNoise(t *testing.T) {
	res := sense(t, false, 72)
	if res.Decision.Detected {
		t.Fatalf("false alarm on noise: statistic %v", res.Decision.Statistic)
	}
}

func TestPipelineSeparation(t *testing.T) {
	// The statistic gap between H1 and H0 should be decisive.
	h1 := sense(t, true, 73).Decision.Statistic
	h0 := sense(t, false, 74).Decision.Statistic
	if h1 < 1.7*h0 {
		t.Fatalf("poor separation: H1 %v vs H0 %v", h1, h0)
	}
}

func TestPipelinePaperEvaluationNumbers(t *testing.T) {
	// E9/E10 via the full pipeline at the paper's geometry.
	const k, blocks = 256, 2
	rng := sig.NewRand(75)
	b := &sig.BPSK{Amp: 1, Carrier: 32.0 / k, SymbolLen: 8, Rng: rng}
	x, _, err := sig.AddAWGN(sig.Samples(b, k*blocks), 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(x, Config{SoC: soc.Config{Blocks: blocks}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CyclesPerBlock != 13996 {
		t.Fatalf("cycles per block %d, want 13996", res.Report.CyclesPerBlock)
	}
	if math.Abs(res.BlockTimeMicros-139.96) > 1e-9 {
		t.Fatalf("block time %v µs", res.BlockTimeMicros)
	}
	if res.AnalysedBandwidthkHz < 910 || res.AnalysedBandwidthkHz > 920 {
		t.Fatalf("bandwidth %v kHz", res.AnalysedBandwidthkHz)
	}
	if res.AreaMM2 != 8 || res.PowerMW != 200 {
		t.Fatalf("area/power %v/%v", res.AreaMM2, res.PowerMW)
	}
	if res.Surface == nil || res.Fixed == nil {
		t.Fatal("surfaces missing")
	}
	if res.Decision != (detect.Decision{}) {
		t.Fatalf("no Decider configured, yet decision %+v", res.Decision)
	}
}

func TestPipelineInputValidation(t *testing.T) {
	if _, err := Run(make([]complex128, 10), Config{SoC: soc.Config{K: 64, M: 16, Q: 2}}); err == nil {
		t.Error("short input should fail")
	}
	x := make([]complex128, 256)
	if _, err := Run(x, Config{SoC: soc.Config{K: 256, M: 64, Q: 1}}); err == nil {
		t.Error("memory-overflow config should fail")
	}
	if _, err := Run(x, Config{SoC: soc.Config{K: 64, M: 16, Q: 2}, InputScale: 2}); err == nil {
		t.Error("InputScale > 1 should fail")
	}
	if _, err := Run(x, Config{SoC: soc.Config{K: 64, M: 16, Q: 2}, InputScale: -0.5}); err == nil {
		t.Error("negative InputScale should fail")
	}
}

func TestPipelineGainInvariance(t *testing.T) {
	// The input conditioning must make the decision independent of the
	// absolute input level (the statistic is self-normalising).
	const k, m, blocks = 64, 16, 4
	rng := sig.NewRand(76)
	b := &sig.BPSK{Amp: 1, Carrier: 8.0 / k, SymbolLen: 8, Rng: rng}
	x, _, err := sig.AddAWGN(sig.Samples(b, k*blocks), 8, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	loud := make([]complex128, len(x))
	for i := range x {
		loud[i] = x[i] * 37
	}
	cfg := Config{SoC: soc.Config{K: k, M: m, Q: 2, Blocks: blocks}, Decider: fixedDecider()}
	a, err := Run(x, cfg)
	if err != nil {
		t.Fatal(err)
	}
	bres, err := Run(loud, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(a.Decision.Statistic-bres.Decision.Statistic) > 0.02*(1+a.Decision.Statistic) {
		t.Fatalf("gain changed statistic: %v vs %v", a.Decision.Statistic, bres.Decision.Statistic)
	}
}

// senseWith runs the pipeline with a software estimator on the same band
// geometry as sense.
func senseWith(t *testing.T, est scf.Estimator, present bool, seed uint64) *Result {
	t.Helper()
	const k, m, blocks = 64, 16, 16
	rng := sig.NewRand(seed)
	n := k * blocks
	noise := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, n)
	x := noise
	if present {
		b := &sig.BPSK{Amp: 1, Carrier: 8.0 / k, SymbolLen: 8, Rng: rng}
		x = sig.Samples(b, n)
		for i := range x {
			x[i] += noise[i]
		}
	}
	res, err := Run(x, Config{
		SoC:       soc.Config{K: k, M: m, Q: 4, Blocks: blocks},
		Decider:   fixedDecider(),
		Estimator: est,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestPipelineEstimatorPath(t *testing.T) {
	for _, est := range []scf.Estimator{
		scf.Direct{Params: scf.Params{K: 64, M: 16, Blocks: 16}},
		fam.FAM{Params: scf.Params{K: 64, M: 16}},
		fam.SSCA{Params: scf.Params{K: 64, M: 16}},
	} {
		res := senseWith(t, est, true, 71)
		if !res.Decision.Detected {
			t.Errorf("%s: BPSK user not detected: statistic %v", est.Name(), res.Decision.Statistic)
		}
		if res.Decision.Detector != "fixed" {
			t.Errorf("%s: decision names %q", est.Name(), res.Decision.Detector)
		}
		if res.Report != nil || res.Fixed != nil {
			t.Errorf("%s: hardware artefacts on the software path", est.Name())
		}
		if res.Stats == nil || res.Stats.TotalMults() <= 0 {
			t.Errorf("%s: missing estimator stats", est.Name())
		}
		if res.Surface == nil {
			t.Fatalf("%s: no surface", est.Name())
		}
		idle := senseWith(t, est, false, 72)
		if idle.Decision.Detected {
			t.Errorf("%s: false alarm on noise: statistic %v", est.Name(), idle.Decision.Statistic)
		}
	}
}

func TestPipelineEstimatorErrorsSurface(t *testing.T) {
	short := make([]complex128, 16)
	_, err := Run(short, Config{
		SoC:       soc.Config{K: 64, M: 16, Q: 4, Blocks: 4},
		Estimator: fam.FAM{Params: scf.Params{K: 64, M: 16}},
	})
	if err == nil {
		t.Fatal("short input should fail through the estimator path")
	}
}
