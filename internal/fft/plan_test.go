package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func approxEqualSlices(t *testing.T, got, want []complex128, tol float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d != %d", label, len(got), len(want))
	}
	for i := range got {
		if cmplx.Abs(got[i]-want[i]) > tol {
			t.Fatalf("%s: bin %d: got %v, want %v", label, i, got[i], want[i])
		}
	}
}

func TestIsPow2AndLog2(t *testing.T) {
	for _, c := range []struct {
		n    int
		pow2 bool
		log2 int
	}{
		{1, true, 0}, {2, true, 1}, {256, true, 8}, {1024, true, 10},
		{0, false, 0}, {-4, false, 0}, {3, false, 0}, {255, false, 0},
	} {
		if got := IsPow2(c.n); got != c.pow2 {
			t.Errorf("IsPow2(%d) = %v", c.n, got)
		}
		if c.pow2 {
			l, err := Log2(c.n)
			if err != nil || l != c.log2 {
				t.Errorf("Log2(%d) = %d, %v", c.n, l, err)
			}
		} else if _, err := Log2(c.n); err == nil {
			t.Errorf("Log2(%d) should fail", c.n)
		}
	}
}

func TestNewPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 6, 100} {
		if _, err := NewPlan(n); err == nil {
			t.Errorf("NewPlan(%d) should fail", n)
		}
	}
}

func TestForwardMatchesDFT(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			// Deterministic but non-trivial test data.
			x[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(7*i+2)))
		}
		got := forward(t, x)
		want := DFT(x)
		approxEqualSlices(t, got, want, 1e-9*float64(n), "fft vs dft")
	}
}

func TestImpulseHasFlatSpectrum(t *testing.T) {
	x := make([]complex128, 32)
	x[0] = 1
	X := forward(t, x)
	for v, b := range X {
		if cmplx.Abs(b-1) > 1e-12 {
			t.Fatalf("impulse spectrum bin %d = %v, want 1", v, b)
		}
	}
}

func TestToneLandsInSingleBin(t *testing.T) {
	const n, bin = 64, 5
	x := make([]complex128, n)
	for k := range x {
		x[k] = cmplx.Exp(complex(0, 2*math.Pi*bin*float64(k)/n))
	}
	X := forward(t, x)
	for v := range X {
		want := 0.0
		if v == bin {
			want = n
		}
		if math.Abs(cmplx.Abs(X[v])-want) > 1e-9 {
			t.Fatalf("tone bin %d magnitude %v, want %v", v, cmplx.Abs(X[v]), want)
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	const n = 128
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(float64(i)*0.7), math.Cos(float64(i)*1.3))
	}
	p, err := PlanFor(n)
	if err != nil {
		t.Fatal(err)
	}
	back := make([]complex128, n)
	if err := p.Inverse(back, forward(t, x)); err != nil {
		t.Fatal(err)
	}
	approxEqualSlices(t, back, x, 1e-10, "ifft(fft(x))")
}

func TestForwardInPlaceAliasing(t *testing.T) {
	const n = 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(float64(i), -float64(i))
	}
	want := DFT(x)
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(x, x); err != nil { // in place
		t.Fatal(err)
	}
	approxEqualSlices(t, x, want, 1e-10, "in-place fft")
}

func TestForwardLengthValidation(t *testing.T) {
	p, err := NewPlan(8)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Forward(make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Error("short dst should fail")
	}
	if err := p.Forward(make([]complex128, 8), make([]complex128, 4)); err == nil {
		t.Error("short src should fail")
	}
	if err := p.Inverse(make([]complex128, 8), make([]complex128, 4)); err == nil {
		t.Error("short inverse src should fail")
	}
}

func TestParseval(t *testing.T) {
	// Σ|x|² == (1/N)·Σ|X|².
	const n = 256
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(math.Sin(0.1*float64(i)), math.Sin(0.37*float64(i)+1))
	}
	X := forward(t, x)
	var et, ef float64
	for i := range x {
		et += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
		ef += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
	}
	ef /= n
	if math.Abs(et-ef) > 1e-8*et {
		t.Fatalf("Parseval: time %v vs freq %v", et, ef)
	}
}

func TestComplexMults(t *testing.T) {
	// The paper: an FFT of N=2^n points needs (1/2)N·log2(N) complex mults.
	if got := ComplexMults(256); got != 1024 {
		t.Fatalf("ComplexMults(256) = %d, want 1024", got)
	}
	if got := ComplexMults(1024); got != 5120 {
		t.Fatalf("ComplexMults(1024) = %d, want 5120", got)
	}
	if got := ComplexMults(100); got != 0 {
		t.Fatalf("ComplexMults(non-pow2) = %d, want 0", got)
	}
}

func TestBinWraparound(t *testing.T) {
	if BinIndex(4, -1) != 3 || BinIndex(4, 4) != 0 || BinIndex(4, -5) != 3 {
		t.Errorf("BinIndex(4, -1/4/-5) = %d/%d/%d, want 3/0/3", BinIndex(4, -1), BinIndex(4, 4), BinIndex(4, -5))
	}
	if BinIndex(4, 5) != 1 || BinIndex(4, 0) != 0 {
		t.Error("BinIndex wraparound broken")
	}
}

// Property: linearity — FFT(a·x + b·y) == a·FFT(x) + b·FFT(y).
func TestQuickLinearity(t *testing.T) {
	const n = 32
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(xs, ys [n]float64, ar, br float64) bool {
		if math.IsNaN(ar) || math.IsInf(ar, 0) || math.IsNaN(br) || math.IsInf(br, 0) {
			return true
		}
		ar = math.Mod(ar, 8)
		br = math.Mod(br, 8)
		x := make([]complex128, n)
		y := make([]complex128, n)
		mix := make([]complex128, n)
		for i := 0; i < n; i++ {
			xv := math.Mod(xs[i], 4)
			yv := math.Mod(ys[i], 4)
			if math.IsNaN(xv) || math.IsNaN(yv) {
				return true
			}
			x[i] = complex(xv, -yv)
			y[i] = complex(yv, xv)
			mix[i] = complex(ar, 0)*x[i] + complex(br, 0)*y[i]
		}
		X := make([]complex128, n)
		Y := make([]complex128, n)
		M := make([]complex128, n)
		if p.Forward(X, x) != nil || p.Forward(Y, y) != nil || p.Forward(M, mix) != nil {
			return false
		}
		for i := 0; i < n; i++ {
			want := complex(ar, 0)*X[i] + complex(br, 0)*Y[i]
			if cmplx.Abs(M[i]-want) > 1e-7*(1+cmplx.Abs(want)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Property: a circular shift in time multiplies the spectrum by a phase
// ramp: FFT(shift(x, s))[v] == FFT(x)[v] · e^{-j2πsv/N}.
func TestQuickShiftTheorem(t *testing.T) {
	const n = 16
	p, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals [n]int8, shift uint8) bool {
		s := int(shift) % n
		x := make([]complex128, n)
		sh := make([]complex128, n)
		for i := 0; i < n; i++ {
			x[i] = complex(float64(vals[i])/16, float64(vals[(i+3)%n])/16)
		}
		for i := 0; i < n; i++ {
			sh[i] = x[(i-s+n)%n]
		}
		X := make([]complex128, n)
		S := make([]complex128, n)
		if p.Forward(X, x) != nil || p.Forward(S, sh) != nil {
			return false
		}
		for v := 0; v < n; v++ {
			phase := cmplx.Exp(complex(0, -2*math.Pi*float64(s)*float64(v)/n))
			if cmplx.Abs(S[v]-X[v]*phase) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// forward is the unnormalised forward DFT of x through the shared plan
// cache.
func forward(t *testing.T, x []complex128) []complex128 {
	t.Helper()
	p, err := PlanFor(len(x))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]complex128, len(x))
	if err := p.Forward(out, x); err != nil {
		t.Fatal(err)
	}
	return out
}
