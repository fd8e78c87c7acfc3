package fam

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// tone returns a complex exponential at normalised frequency f0.
func tone(n int, f0 float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = cmplx.Exp(complex(0, 2*math.Pi*f0*float64(i)))
	}
	return x
}

// realTone returns a real cosine at normalised frequency f0. Its only
// off-row spectral correlation is the conjugate doubled-carrier feature:
// bins ±f0 are coherent, so the unique cell pairing both is (f=0, a=f0).
func realTone(n int, f0 float64) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*f0*float64(i)), 0)
	}
	return x
}

func TestFAMToneConcentratesOnPSDRow(t *testing.T) {
	// A pure complex tone has spectral correlation only at α = 0: every
	// off-row cell must be negligible against the PSD row peak.
	const k, m = 64, 16
	e := FAM{Params: scf.Params{K: k, M: m}}
	s, stats, err := e.Estimate(tone(k*16, 8.0/k))
	if err != nil {
		t.Fatal(err)
	}
	fPeak, aPeak, _ := s.MaxFeature(false)
	if aPeak != 0 || fPeak != 8 {
		t.Fatalf("tone peak at (f=%d, a=%d), want (8, 0)", fPeak, aPeak)
	}
	psd := cmplx.Abs(s.At(8, 0))
	_, _, off := s.MaxFeature(true)
	if off > psd*0.05 {
		t.Fatalf("off-row leakage %g vs PSD peak %g", off, psd)
	}
	if stats.Blocks < 2 {
		t.Fatalf("smoothing length %d, want >= 2", stats.Blocks)
	}
}

func TestFAMDoubledCarrierFeature(t *testing.T) {
	// A real carrier at f0 has the classic conjugate feature at
	// α = 2·f0 — surface offset a = f0 in bins — centred at f = 0.
	const k, m = 64, 16
	const bin = 8
	x := realTone(k*16, float64(bin)/k)
	for _, w := range []fft.WindowKind{fft.Rectangular, fft.Hamming} {
		e := FAM{Params: scf.Params{K: k, M: m, Window: w}}
		s, _, err := e.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		f, a, _ := s.MaxFeature(true)
		if abs(a) != bin || f != 0 {
			t.Fatalf("window %v: doubled-carrier feature at (f=%d, a=%d), want (0, ±%d)", w, f, a, bin)
		}
	}
}

func TestFAMHermitianSymmetry(t *testing.T) {
	rng := sig.NewRand(3)
	x := sig.Samples(&sig.WGN{Sigma: 1, Real: true, Rng: rng}, 64*16)
	e := FAM{Params: scf.Params{K: 64, M: 16}}
	s, _, err := e.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	// The FAM product sequences for (f, a) and (f, -a) are exact
	// conjugates, so the surface is Hermitian to rounding.
	if herm := s.HermitianError(); herm > 1e-9*s.AlphaProfile()[s.M-1] {
		t.Fatalf("Hermitian error %g", herm)
	}
}

func TestFAMDefaultsAndStats(t *testing.T) {
	e := FAM{Params: scf.Params{K: 64, M: 16}}
	x := tone(64+3*16, 0.1) // 4 hops of 16 -> P = 4
	s, stats, err := e.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	if s.M != 16 {
		t.Fatalf("surface M = %d", s.M)
	}
	if stats.Blocks != 4 {
		t.Fatalf("P = %d hops, want 4 (default hop K/4)", stats.Blocks)
	}
	cells := 31 * 31
	wantFFT := 4*fft.ComplexMults(64) + cells*fft.ComplexMults(4)
	wantProd := 4*64 + cells*4
	if stats.FFTMults != wantFFT || stats.DSCFMults != wantProd {
		t.Fatalf("stats %+v, want FFT=%d products=%d", stats, wantFFT, wantProd)
	}
}

func TestFAMErrors(t *testing.T) {
	e := FAM{Params: scf.Params{K: 64, M: 16}}
	if _, _, err := e.Estimate(make([]complex128, 70)); err == nil {
		t.Error("input shorter than two hops should fail")
	}
	bad := FAM{Params: scf.Params{K: 63, M: 16}}
	if _, _, err := bad.Estimate(make([]complex128, 1024)); err == nil {
		t.Error("non-power-of-two K should fail")
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
