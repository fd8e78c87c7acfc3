package fam

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// q15TestBand synthesises the E14 licensed-user scenario: a real BPSK
// carrier in real AWGN at 10 dB, n samples, deterministic.
func q15TestBand(t testing.TB, n int, seed uint64) []complex128 {
	t.Helper()
	rng := sig.NewRand(seed)
	b := &sig.BPSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, n)
	noisy, _, err := sig.AddAWGN(x, 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return noisy
}

// surfaceSQNR returns 10·log10(Σ|ref|² / Σ|ref-got|²) over the grid.
func surfaceSQNR(ref, got *scf.Surface) float64 {
	var sig, noise float64
	for i := range ref.Data {
		for j := range ref.Data[i] {
			r := ref.Data[i][j]
			d := r - got.Data[i][j]
			sig += real(r)*real(r) + imag(r)*imag(r)
			noise += real(d)*real(d) + imag(d)*imag(d)
		}
	}
	if noise == 0 {
		return math.Inf(1)
	}
	return 10 * math.Log10(sig/noise)
}

// TestFAMQ15TracksFloatFAM cross-checks the Q15 FAM against the float
// reference on the paper geometry: the converted surface must sit within
// a bounded SQNR of the float one and put the strongest cyclic feature in
// the same cell.
func TestFAMQ15TracksFloatFAM(t *testing.T) {
	band := q15TestBand(t, 2048, 7)
	p := scf.Params{K: 256, M: 64}
	ref, _, err := (FAM{Params: p, Workers: 1}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := (FAMQ15{Params: p, Workers: 1}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	if sqnr := surfaceSQNR(ref, got); sqnr < 40 {
		t.Errorf("FAM-Q15 surface SQNR = %.1f dB, want >= 40", sqnr)
	}
	// The real BPSK band's features come in mirrored ±f pairs of equal
	// magnitude; quantisation may break that tie the other way, so the
	// peak is compared up to the mirror.
	rf, ra, _ := ref.MaxFeature(true)
	gf, ga, _ := got.MaxFeature(true)
	if abs(rf) != abs(gf) || ra != ga {
		t.Errorf("FAM-Q15 peak feature (%d,%d), float FAM (%d,%d)", gf, ga, rf, ra)
	}
	if stats.Cycles <= 0 {
		t.Errorf("FAM-Q15 modeled cycles = %d, want > 0", stats.Cycles)
	}
	if stats.FFTMults == 0 || stats.DSCFMults == 0 {
		t.Errorf("FAM-Q15 mult counts empty: %+v", stats)
	}
}

// TestSSCAQ15TracksFloatSSCA is the SSCA cross-check on the same band.
func TestSSCAQ15TracksFloatSSCA(t *testing.T) {
	band := q15TestBand(t, 2048, 7)
	p := scf.Params{K: 256, M: 64}
	ref, _, err := (SSCA{Params: p}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	got, stats, err := (SSCAQ15{Params: p, Workers: 1}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	if sqnr := surfaceSQNR(ref, got); sqnr < 40 {
		t.Errorf("SSCA-Q15 surface SQNR = %.1f dB, want >= 40", sqnr)
	}
	rf, ra, _ := ref.MaxFeature(true)
	gf, ga, _ := got.MaxFeature(true)
	if abs(rf) != abs(gf) || ra != ga {
		t.Errorf("SSCA-Q15 peak feature (%d,%d), float SSCA (%d,%d)", gf, ga, rf, ra)
	}
	if stats.Cycles <= 0 {
		t.Errorf("SSCA-Q15 modeled cycles = %d, want > 0", stats.Cycles)
	}
}

// TestQ15BitExactAcrossWorkersAndRuns: the acceptance criterion — the
// Q15 surfaces (words, exponent, gain) are identical for any Workers
// setting and across repeated runs.
func TestQ15BitExactAcrossWorkersAndRuns(t *testing.T) {
	band := q15TestBand(t, 2048, 11)
	p := scf.Params{K: 256, M: 64}
	famRef, _, err := (FAMQ15{Params: p, Workers: 1}).EstimateQ15(band)
	if err != nil {
		t.Fatal(err)
	}
	sscaRef, _, err := (SSCAQ15{Params: p, Workers: 1}).EstimateQ15(band)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{0, 1, 2, 3, 7} {
		qf, _, err := (FAMQ15{Params: p, Workers: w}).EstimateQ15(band)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := famRef.Equal(qf); !ok {
			t.Errorf("FAM-Q15 Workers=%d differs: %s", w, diff)
		}
		qs, _, err := (SSCAQ15{Params: p, Workers: w}).EstimateQ15(band)
		if err != nil {
			t.Fatal(err)
		}
		if ok, diff := sscaRef.Equal(qs); !ok {
			t.Errorf("SSCA-Q15 Workers=%d differs: %s", w, diff)
		}
	}
}

// TestQ15FullScaleSaturation drives both backends with inputs far beyond
// the Q15 range at InputScale 1 (no backoff): the quantiser pins every
// sample at the rails, the BFP FFT must keep every stage in range
// (bin 0 of a constant rail input is the worst-case DFT growth, K·1),
// and the surfaces must come back finite and non-degenerate.
func TestQ15FullScaleSaturation(t *testing.T) {
	n := 2048
	p := scf.Params{K: 256, M: 64}
	// Constant +4: all energy at bin 0, the maximal coherent-growth FFT
	// input. Alternating ±4 (bin K/2, off-grid by construction) checks
	// the crest-heavy case for overflow-freedom only.
	constant := make([]complex128, n)
	crest := make([]complex128, n)
	for i := range constant {
		constant[i] = complex(4, 0)
		if i%2 == 1 {
			crest[i] = complex(-4, 0)
		} else {
			crest[i] = complex(4, 0)
		}
	}
	for _, est := range []scf.Estimator{
		FAMQ15{Params: p, InputScale: 1},
		SSCAQ15{Params: p, InputScale: 1},
	} {
		for name, x := range map[string][]complex128{"constant": constant, "crest": crest} {
			s, _, err := est.Estimate(x)
			if err != nil {
				t.Fatalf("%s on %s full-scale input: %v", est.Name(), name, err)
			}
			for _, row := range s.Data {
				for _, v := range row {
					if cmplx.IsNaN(v) || cmplx.IsInf(v) {
						t.Fatalf("%s produced non-finite cell %v on %s input", est.Name(), v, name)
					}
				}
			}
			if name == "constant" && s.TotalEnergy() == 0 {
				t.Errorf("%s surface all-zero on constant full-scale input", est.Name())
			}
		}
	}
}

// TestQ15UniformPolicyMatchesMontiumKernel: ScaleUniform must reproduce
// the Montium FFT kernel's unconditional halving bit-exactly — the
// FixedPlan.Forward path — and still yield a usable (if coarser) surface.
func TestQ15UniformPolicyMatchesMontiumKernel(t *testing.T) {
	band := q15TestBand(t, 2048, 3)
	p := scf.Params{K: 256, M: 64}
	ref, _, err := (FAM{Params: p, Workers: 1}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := (FAMQ15{Params: p, Workers: 1, Policy: fft.ScaleUniform}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	sqnr := surfaceSQNR(ref, got)
	if sqnr < 10 {
		t.Errorf("uniform-policy FAM-Q15 SQNR = %.1f dB, want >= 10 (coarse but usable)", sqnr)
	}
	bfp, _, err := (FAMQ15{Params: p, Workers: 1, Policy: fft.ScaleBFP}).Estimate(band)
	if err != nil {
		t.Fatal(err)
	}
	if bq := surfaceSQNR(ref, bfp); bq < sqnr {
		t.Errorf("BFP SQNR %.1f dB below uniform %.1f dB — scaling policy inverted?", bq, sqnr)
	}
}

// TestQ15ShortInputErrors mirrors the float estimators' too-short errors.
func TestQ15ShortInputErrors(t *testing.T) {
	short := make([]complex128, 100)
	if _, _, err := (FAMQ15{}).Estimate(short); err == nil {
		t.Error("FAM-Q15 accepted a 100-sample input")
	}
	if _, _, err := (SSCAQ15{}).Estimate(short); err == nil {
		t.Error("SSCA-Q15 accepted a 100-sample input")
	}
	if _, _, err := (FAMQ15{InputScale: 2}).Estimate(make([]complex128, 4096)); err == nil {
		t.Error("FAM-Q15 accepted InputScale=2")
	}
}
