package scf

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"tiledcfd/internal/sig"
)

func TestComputeComplexToneOnlyPSDFeature(t *testing.T) {
	// A complex exponential at bin b has a single spectral line, so the
	// only non-zero DSCF cells are on the a=0 (PSD) row at f=b.
	const k, m, bin = 64, 8, 5
	x := sig.Samples(&sig.Tone{Amp: 1, Freq: float64(bin) / k}, k)
	s, _, err := Compute(x, Params{K: k, M: m})
	if err != nil {
		t.Fatal(err)
	}
	for a := -(m - 1); a <= m-1; a++ {
		for f := -(m - 1); f <= m-1; f++ {
			mag := cmplx.Abs(s.At(f, a))
			if f == bin && a == 0 {
				if mag < float64(k*k)/2 {
					t.Fatalf("PSD feature at (f=%d,a=0) magnitude %v too small", bin, mag)
				}
			} else if mag > 1e-6 {
				t.Fatalf("unexpected feature at (f=%d,a=%d): %v", f, a, mag)
			}
		}
	}
}

func TestComputeRealToneDoubledCarrierFeature(t *testing.T) {
	// A real cosine at bin b has lines at ±b, so the DSCF gains features at
	// (f=0, a=±b): the doubled-carrier cycle frequency α=2·f_c that CFD
	// detectors exploit (the paper's reference [2]).
	const k, m, bin = 64, 8, 4
	x := sig.Samples(&sig.Tone{Amp: 1, Freq: float64(bin) / k, Real: true}, k)
	s, _, err := Compute(x, Params{K: k, M: m})
	if err != nil {
		t.Fatal(err)
	}
	featPlus := cmplx.Abs(s.At(0, bin))
	featMinus := cmplx.Abs(s.At(0, -bin))
	psd := cmplx.Abs(s.At(bin, 0))
	if featPlus < psd/2-1e-9 || featMinus < psd/2-1e-9 {
		t.Fatalf("doubled-carrier features too small: %v/%v vs PSD %v", featPlus, featMinus, psd)
	}
	// Blind feature search (excluding a=0) must find exactly that offset.
	_, a, _ := s.MaxFeature(true)
	if a != bin && a != -bin {
		t.Fatalf("MaxFeature found a=%d, want ±%d", a, bin)
	}
}

func TestComputeMatchesDirectNonOverlapping(t *testing.T) {
	const k, m, blocks = 16, 4, 3
	rng := sig.NewRand(21)
	x := sig.Samples(&sig.WGN{Sigma: 0.7, Rng: rng}, k*blocks)
	p := Params{K: k, M: m, Blocks: blocks, Hop: k}
	got, _, err := Compute(x, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeDirect(x, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("fft-accumulation vs direct differ by %v", d)
	}
}

func TestComputeMatchesDirectOverlapping(t *testing.T) {
	// Hop < K engages the absolute-time phase reference; the direct form
	// has it built in. Agreement here proves the rotation is right.
	const k, m, blocks, hop = 16, 4, 4, 4
	rng := sig.NewRand(22)
	x := sig.Samples(&sig.WGN{Sigma: 0.7, Rng: rng}, k+(blocks-1)*hop)
	p := Params{K: k, M: m, Blocks: blocks, Hop: hop}
	got, _, err := Compute(x, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ComputeDirect(x, p)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(got, want); d > 1e-9 {
		t.Fatalf("overlapping-blocks phase reference wrong: diff %v", d)
	}
}

func TestComputeCoherentAccumulation(t *testing.T) {
	// The doubled-carrier feature of a real tone adds coherently across
	// blocks: after N blocks the normalised magnitude equals the 1-block
	// magnitude, while for noise it shrinks like 1/sqrt(N).
	const k, m, bin = 64, 8, 4
	one := sig.Samples(&sig.Tone{Amp: 1, Freq: float64(bin) / k, Real: true}, k)
	many := sig.Samples(&sig.Tone{Amp: 1, Freq: float64(bin) / k, Real: true}, k*8)
	s1, _, err := Compute(one, Params{K: k, M: m, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	s8, _, err := Compute(many, Params{K: k, M: m, Blocks: 8})
	if err != nil {
		t.Fatal(err)
	}
	f1 := cmplx.Abs(s1.At(0, bin))
	f8 := cmplx.Abs(s8.At(0, bin))
	if math.Abs(f1-f8)/f1 > 1e-6 {
		t.Fatalf("tone feature not coherent across blocks: %v vs %v", f1, f8)
	}
}

func TestComputeStatsCounts(t *testing.T) {
	// Paper section 2: for a 256-point spectrum the DSCF takes ~16x the
	// complex multiplications of the FFT itself.
	x := make([]complex128, 512)
	for i := range x {
		x[i] = complex(math.Sin(0.05*float64(i)), 0)
	}
	_, stats, err := Compute(x, Params{K: 256, M: 64, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if stats.FFTMults != 2*1024 {
		t.Fatalf("FFTMults = %d, want 2048", stats.FFTMults)
	}
	if stats.DSCFMults != 2*16129 {
		t.Fatalf("DSCFMults = %d, want 32258", stats.DSCFMults)
	}
	r := stats.Ratio()
	if r < 15 || r > 16 {
		t.Fatalf("DSCF/FFT mult ratio %v, want ~15.75 (paper: 16x)", r)
	}
}

func TestComputeInputValidation(t *testing.T) {
	if _, _, err := Compute(make([]complex128, 10), Params{K: 64, M: 8}); err == nil {
		t.Error("short input should fail")
	}
	if _, _, err := Compute(make([]complex128, 100), Params{K: 100, M: 8, Blocks: 1, Hop: 100}); err == nil {
		t.Error("non-pow2 K should fail")
	}
	if _, err := ComputeDirect(make([]complex128, 4), Params{K: 16, M: 4}); err == nil {
		t.Error("direct short input should fail")
	}
	if _, err := ComputeDirect(make([]complex128, 16), Params{K: 16, M: 9, Blocks: 1, Hop: 16}); err == nil {
		t.Error("direct invalid grid should fail")
	}
}

// Property: the DSCF is Hermitian in a: S_f^{-a} == conj(S_f^a).
func TestQuickHermitianSymmetry(t *testing.T) {
	f := func(seed uint64, realSig bool) bool {
		const k, m = 16, 4
		rng := sig.NewRand(seed)
		x := sig.Samples(&sig.WGN{Sigma: 0.5, Real: realSig, Rng: rng}, 3*k)
		s, _, err := Compute(x, Params{K: k, M: m, Blocks: 3})
		if err != nil {
			return false
		}
		return s.HermitianError() < 1e-10*(1+s.TotalEnergy())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: scaling the input by g scales the whole surface by g².
func TestQuickQuadraticScaling(t *testing.T) {
	f := func(seed uint64, g8 uint8) bool {
		const k, m = 16, 4
		g := 0.25 + float64(g8)/256.0
		rng := sig.NewRand(seed)
		x := sig.Samples(&sig.WGN{Sigma: 0.3, Rng: rng}, k)
		y := make([]complex128, len(x))
		for i := range x {
			y[i] = x[i] * complex(g, 0)
		}
		sx, _, err := Compute(x, Params{K: k, M: m})
		if err != nil {
			return false
		}
		sy, _, err := Compute(y, Params{K: k, M: m})
		if err != nil {
			return false
		}
		for a := -(m - 1); a <= m-1; a++ {
			for f2 := -(m - 1); f2 <= m-1; f2++ {
				want := sx.At(f2, a) * complex(g*g, 0)
				if cmplx.Abs(sy.At(f2, a)-want) > 1e-9*(1+cmplx.Abs(want)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
