package detect

import (
	"math"
	"testing"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

func TestCFARDetectsUserRejectsNoise(t *testing.T) {
	const k, m, blocks = 64, 16, 32
	params := scf.Params{K: k, M: m, Blocks: blocks}
	cfar := CFAR{MinAbsA: 2, Scale: 2}

	rng := sig.NewRand(91)
	noise := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, k*blocks)
	dec, err := cfar.Examine(computeSurface(t, noise, params))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Detected {
		t.Fatalf("false alarm on noise: %+v", dec)
	}

	b := &sig.BPSK{Amp: 1, Carrier: 8.0 / k, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, k*blocks)
	y, _, err := sig.AddAWGN(x, 3, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	dec, err = cfar.Examine(computeSurface(t, y, params))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Detected {
		t.Fatalf("missed user: %+v", dec)
	}
	if dec.FeatureA != 8 && dec.FeatureA != -8 {
		t.Fatalf("feature at a=%d, want ±8", dec.FeatureA)
	}
	if dec.Floor <= 0 {
		t.Fatal("floor not populated")
	}
}

func TestCFARNoiseLevelInvariance(t *testing.T) {
	// The CFAR statistic must be (nearly) unchanged when the noise floor
	// moves by 20 dB — the property plain energy detection lacks.
	const k, m, blocks = 64, 16, 16
	params := scf.Params{K: k, M: m, Blocks: blocks}
	cfar := CFAR{MinAbsA: 2, Scale: 2}
	stats := make([]float64, 0, 2)
	for _, sigma := range []float64{0.05, 0.5} {
		rng := sig.NewRand(92) // same seed: same shaped noise, scaled
		noise := sig.Samples(&sig.WGN{Sigma: sigma, Real: true, Rng: rng}, k*blocks)
		dec, err := cfar.Examine(computeSurface(t, noise, params))
		if err != nil {
			t.Fatal(err)
		}
		stats = append(stats, dec.Statistic)
	}
	if math.Abs(stats[0]-stats[1]) > 1e-9*(1+stats[0]) {
		t.Fatalf("CFAR statistic moved with noise level: %v vs %v", stats[0], stats[1])
	}
}

func TestCFARDefaults(t *testing.T) {
	const k, m, blocks = 64, 16, 8
	rng := sig.NewRand(93)
	noise := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, k*blocks)
	dec, err := (CFAR{}).Examine(computeSurface(t, noise, scf.Params{K: k, M: m, Blocks: blocks}))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Threshold != 2 {
		t.Fatalf("default scale %v", dec.Threshold)
	}
	if dec.Detector != "cfd-cfar" {
		t.Fatalf("detector name %q", dec.Detector)
	}
}

func TestCFARErrors(t *testing.T) {
	s := scf.NewSurface(4)
	if _, err := (CFAR{MinAbsA: 9}).Examine(s); err == nil {
		t.Error("MinAbsA beyond grid should fail")
	}
	if _, err := (CFAR{MinAbsA: 1}).Examine(s); err == nil {
		t.Error("all-zero surface should fail (zero floor)")
	}
	tiny := scf.NewSurface(2)
	if _, err := (CFAR{MinAbsA: 1}).Examine(tiny); err == nil {
		t.Error("too few off-peak rows should fail")
	}
}

// computeSurface is the DSCF of x with params p.
func computeSurface(t *testing.T, x []complex128, p scf.Params) *scf.Surface {
	t.Helper()
	s, _, err := scf.Compute(x, p)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
