package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestRealForwardMatchesDFT(t *testing.T) {
	for _, n := range []int{4, 8, 16, 64, 256} {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = math.Sin(0.37*float64(i)) + 0.5*math.Cos(1.1*float64(i)+0.2)
			cx[i] = complex(x[i], 0)
		}
		got, err := RealForward(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		want := DFT(cx)
		for v := range want {
			if cmplx.Abs(got[v]-want[v]) > 1e-9*float64(n) {
				t.Fatalf("n=%d bin %d: %v vs %v", n, v, got[v], want[v])
			}
		}
	}
}

func TestRealForwardConjugateSymmetry(t *testing.T) {
	const n = 64
	x := make([]float64, n)
	for i := range x {
		x[i] = math.Sin(float64(i) * 0.7)
	}
	X, err := RealForward(x)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < n/2; k++ {
		if cmplx.Abs(X[n-k]-cmplx.Conj(X[k])) > 1e-10 {
			t.Fatalf("symmetry broken at %d", k)
		}
	}
	if math.Abs(imag(X[0])) > 1e-12 || math.Abs(imag(X[n/2])) > 1e-12 {
		t.Fatal("DC / Nyquist bins must be real")
	}
}

func TestRealForwardErrors(t *testing.T) {
	if _, err := RealForward(make([]float64, 3)); err == nil {
		t.Error("non-pow2 should fail")
	}
	if _, err := RealForward(make([]float64, 2)); err == nil {
		t.Error("too small should fail")
	}
}

func TestRealComplexMultsHalvesWork(t *testing.T) {
	// E-ablation: real-input optimisation nearly halves the FFT work.
	full := ComplexMults(256)   // 1024
	re := RealComplexMults(256) // (128/2)·log2(128) + 128 = 448 + 128 = 576
	if re != 576 {
		t.Fatalf("RealComplexMults(256) = %d, want 576", re)
	}
	if float64(re) > 0.7*float64(full) {
		t.Fatalf("real transform not cheaper: %d vs %d", re, full)
	}
	if RealComplexMults(3) != 0 {
		t.Fatal("invalid size should count 0")
	}
}

// Property: RealForward equals the complex FFT of the same data for
// random real inputs.
func TestQuickRealForwardMatchesComplex(t *testing.T) {
	const n = 32
	f := func(vals [n]int8) bool {
		x := make([]float64, n)
		cx := make([]complex128, n)
		for i := range x {
			x[i] = float64(vals[i]) / 64
			cx[i] = complex(x[i], 0)
		}
		got, err := RealForward(x)
		if err != nil {
			return false
		}
		want := forward(t, cx)
		for v := range want {
			if cmplx.Abs(got[v]-want[v]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
