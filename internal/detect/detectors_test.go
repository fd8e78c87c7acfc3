package detect

import (
	"math"
	"testing"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// bpskScenario builds the E13 licensed-user scenario: real BPSK at carrier
// bin 8 of a 64-point spectrum (symbol length 8 samples), in real AWGN at
// the given SNR. noiseUncertaintyDB, when non-zero, perturbs the actual
// noise level by a uniform ±U dB per trial while detectors keep assuming
// the nominal level — the classic energy-detection killer.
func bpskScenario(blocks int, snrDB, noiseUncertaintyDB float64) Scenario {
	const k = 64
	n := k * blocks
	// Nominal noise power for BPSK power 0.5 at this SNR.
	nominal := 0.5 / math.Pow(10, snrDB/10)
	return func(rng *sig.Rand, present bool) []complex128 {
		actual := nominal
		if noiseUncertaintyDB > 0 {
			du := noiseUncertaintyDB * (2*rng.Float64() - 1)
			actual = nominal * math.Pow(10, du/10)
		}
		noise := sig.Samples(&sig.WGN{Sigma: math.Sqrt(actual), Real: true, Rng: rng}, n)
		if !present {
			return noise
		}
		b := &sig.BPSK{Amp: 1, Carrier: 8.0 / k, SymbolLen: 8, Rng: rng}
		x := sig.Samples(b, n)
		for i := range x {
			x[i] += noise[i]
		}
		return x
	}
}

func cfdParams(blocks int) scf.Params {
	return scf.Params{K: 64, M: 16, Blocks: blocks}
}

func TestEnergyDetectorPfaCalibration(t *testing.T) {
	// With exactly known noise power, the CLT threshold hits the target
	// false-alarm rate.
	const blocks, snr = 16, 0.0
	sc := bpskScenario(blocks, snr, 0)
	nominal := 0.5 / math.Pow(10, snr/10)
	d := EnergyDetector{AssumedNoisePower: nominal}
	th, err := EnergyThresholdForPfa(64*blocks, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	_, pfa, err := PdAtThreshold(d, sc, 300, th, 1)
	if err != nil {
		t.Fatal(err)
	}
	if pfa < 0.03 || pfa > 0.2 {
		t.Fatalf("measured pfa %v, want ~0.1", pfa)
	}
}

func TestEnergyDetectorDetectsStrongSignal(t *testing.T) {
	const blocks = 16
	sc := bpskScenario(blocks, 5, 0) // +5 dB SNR
	nominal := 0.5 / math.Pow(10, 5.0/10)
	d := EnergyDetector{AssumedNoisePower: nominal}
	th, _ := EnergyThresholdForPfa(64*blocks, 0.05)
	pd, _, err := PdAtThreshold(d, sc, 100, th, 2)
	if err != nil {
		t.Fatal(err)
	}
	if pd < 0.99 {
		t.Fatalf("energy Pd at +5 dB = %v, want ~1", pd)
	}
}

func TestCFDDetectorDetectsBPSK(t *testing.T) {
	const blocks = 16
	sc := bpskScenario(blocks, 3, 0)
	d := CFDDetector{Params: cfdParams(blocks), MinAbsA: 2}
	th, err := CalibrateThreshold(d, sc, 60, 0.1, 3)
	if err != nil {
		t.Fatal(err)
	}
	pd, pfa, err := PdAtThreshold(d, sc, 60, th, 4)
	if err != nil {
		t.Fatal(err)
	}
	if pd < 0.9 {
		t.Fatalf("CFD Pd at +3 dB = %v (pfa %v), want > 0.9", pd, pfa)
	}
}

func TestKnownCycleDetectorUsesDoubledCarrier(t *testing.T) {
	// The BPSK doubled-carrier feature sits at a = carrier bin = 8.
	const blocks = 16
	sc := bpskScenario(blocks, 0, 0)
	d := KnownCycleDetector{Params: cfdParams(blocks), A: 8}
	th, err := CalibrateThreshold(d, sc, 60, 0.1, 5)
	if err != nil {
		t.Fatal(err)
	}
	pd, _, err := PdAtThreshold(d, sc, 60, th, 6)
	if err != nil {
		t.Fatal(err)
	}
	if pd < 0.9 {
		t.Fatalf("known-cycle Pd at 0 dB = %v, want > 0.9", pd)
	}
}

func TestCFDBeatsEnergyUnderNoiseUncertainty(t *testing.T) {
	// E13: with ±2 dB noise-level uncertainty at -2 dB SNR, the energy
	// detector collapses towards its false-alarm rate while CFD keeps
	// detecting — the premise of the paper's introduction (refs [2], [7]).
	const blocks, trials = 16, 60
	const snr, unc, pfa = -2.0, 2.0, 0.1
	sc := bpskScenario(blocks, snr, unc)

	nominal := 0.5 / math.Pow(10, snr/10)
	energy := EnergyDetector{AssumedNoisePower: nominal}
	cfd := CFDDetector{Params: cfdParams(blocks), MinAbsA: 2}

	thE, err := CalibrateThreshold(energy, sc, trials, pfa, 7)
	if err != nil {
		t.Fatal(err)
	}
	pdE, _, err := PdAtThreshold(energy, sc, trials, thE, 8)
	if err != nil {
		t.Fatal(err)
	}
	thC, err := CalibrateThreshold(cfd, sc, trials, pfa, 9)
	if err != nil {
		t.Fatal(err)
	}
	pdC, _, err := PdAtThreshold(cfd, sc, trials, thC, 10)
	if err != nil {
		t.Fatal(err)
	}
	if pdC < pdE+0.2 {
		t.Fatalf("CFD Pd %v vs energy Pd %v: expected clear CFD advantage", pdC, pdE)
	}
	if pdC < 0.75 {
		t.Fatalf("CFD Pd %v too low", pdC)
	}
}

func TestApply(t *testing.T) {
	x := []complex128{complex(2, 0), complex(2, 0)}
	d := EnergyDetector{AssumedNoisePower: 1}
	dec, err := Apply(d, x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Detected || dec.Detector != "energy" || dec.Statistic != 4 {
		t.Fatalf("decision %+v", dec)
	}
	dec, err = Apply(d, x, 5)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Detected {
		t.Fatal("should not detect below threshold")
	}
	if _, err := Apply(d, nil, 1); err == nil {
		t.Error("empty input error should propagate")
	}
}

func TestDetectorNames(t *testing.T) {
	if (EnergyDetector{}).Name() != "energy" ||
		(CFDDetector{}).Name() != "cfd" ||
		(KnownCycleDetector{}).Name() != "known-cycle" {
		t.Error("detector names wrong")
	}
}

func TestCFDDetectorDefaultsMinAbsA(t *testing.T) {
	const blocks = 2
	sc := bpskScenario(blocks, 10, 0)
	d := CFDDetector{Params: cfdParams(blocks)} // MinAbsA defaulted to 1
	if _, err := d.Statistic(sc(sig.NewRand(1), true)); err != nil {
		t.Fatalf("default MinAbsA failed: %v", err)
	}
}

func TestROCMonotoneEndpoints(t *testing.T) {
	// Sweep the threshold through the H0 quantiles CalibrateThreshold
	// returns and score each with PdAtThreshold on the same trials.
	const blocks = 8
	sc := bpskScenario(blocks, 3, 0)
	d := CFDDetector{Params: cfdParams(blocks), MinAbsA: 2}
	var pdSum, pfaSum float64
	prevTh, prevPd, prevPfa := math.Inf(-1), 2.0, 2.0
	for i := 9; i >= 1; i-- {
		th, err := CalibrateThreshold(d, sc, 30, float64(i)/10, 11)
		if err != nil {
			t.Fatal(err)
		}
		pd, pfa, err := PdAtThreshold(d, sc, 30, th, 12)
		if err != nil {
			t.Fatal(err)
		}
		// Pfa and Pd must be non-increasing as the threshold rises, and
		// Pd must not be smaller than Pfa on average (better than chance).
		if th < prevTh {
			t.Fatalf("threshold fell at pfa=%v: %v -> %v", float64(i)/10, prevTh, th)
		}
		if pfa > prevPfa || pd > prevPd {
			t.Fatalf("Pfa/Pd not monotone at threshold %v: (%v, %v) -> (%v, %v)", th, prevPfa, prevPd, pfa, pd)
		}
		prevTh, prevPd, prevPfa = th, pd, pfa
		pdSum += pd
		pfaSum += pfa
	}
	if pdSum <= pfaSum {
		t.Fatalf("ROC not better than chance: Pd sum %v vs Pfa sum %v", pdSum, pfaSum)
	}
}

func TestMonteCarloErrors(t *testing.T) {
	sc := bpskScenario(2, 0, 0)
	d := EnergyDetector{AssumedNoisePower: 1}
	if _, _, err := PdAtThreshold(d, sc, 0, 1, 1); err == nil {
		t.Error("zero trials should fail")
	}
	if _, err := CalibrateThreshold(d, sc, 2, 0.1, 1); err == nil {
		t.Error("too few calibration trials should fail")
	}
	if _, err := CalibrateThreshold(d, sc, 10, 0, 1); err == nil {
		t.Error("pfa=0 should fail")
	}
	bad := EnergyDetector{AssumedNoisePower: 0}
	if _, _, err := PdAtThreshold(bad, sc, 2, 1, 1); err == nil {
		t.Error("detector error should propagate")
	}
	if _, err := CalibrateThreshold(bad, sc, 4, 0.1, 1); err == nil {
		t.Error("detector error should propagate in calibration")
	}
}

func TestPdVsSNRSweep(t *testing.T) {
	// The E13 sweep: calibrate the threshold at Pfa 0.1 for each SNR, then
	// measure Pd at it on fresh trials.
	const blocks = 8
	d := CFDDetector{Params: cfdParams(blocks), MinAbsA: 2}
	var pds []float64
	for i, snr := range []float64{-6, 6} {
		sc := bpskScenario(blocks, snr, 0)
		th, err := CalibrateThreshold(d, sc, 30, 0.1, 13+uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		pd, _, err := PdAtThreshold(d, sc, 30, th, 13+uint64(i)+1000)
		if err != nil {
			t.Fatal(err)
		}
		pds = append(pds, pd)
	}
	if pds[1] < pds[0] {
		t.Fatalf("Pd should improve with SNR: %v -> %v", pds[0], pds[1])
	}
	if pds[1] < 0.9 {
		t.Fatalf("Pd at +6 dB = %v, want high", pds[1])
	}
}
