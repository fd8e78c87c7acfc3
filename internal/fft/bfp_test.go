package fft

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fixed"
)

// bfpInput builds a deterministic multi-tone Q15 test block.
func bfpInput(n int, amp float64) []fixed.Complex {
	out := make([]fixed.Complex, n)
	for i := range out {
		v := amp * (0.5*math.Sin(2*math.Pi*3*float64(i)/float64(n)) +
			0.3*math.Cos(2*math.Pi*17*float64(i)/float64(n)+0.4))
		out[i] = fixed.CFromFloat(complex(v, 0.25*v))
	}
	return out
}

// TestForwardScaledUniformMatchesForward: the uniform policy must be
// bit-identical to the Montium-kernel path FixedPlan.Forward, with
// exponent log2(n).
func TestForwardScaledUniformMatchesForward(t *testing.T) {
	const n = 256
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := bfpInput(n, 0.9)
	want := make([]fixed.Complex, n)
	if err := p.Forward(want, x); err != nil {
		t.Fatal(err)
	}
	got := make([]fixed.Complex, n)
	exp, err := p.ForwardScaledWith(fixed.Active(), got, x, ScaleUniform)
	if err != nil {
		t.Fatal(err)
	}
	if exp != 8 {
		t.Errorf("uniform exponent = %d, want log2(256) = 8", exp)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("bin %d: uniform %+v != Forward %+v", i, got[i], want[i])
		}
	}
}

// TestForwardScaledBFPTracksDFT: dst·2^exp must approximate the exact
// DFT of the quantised input, and for a weak input the BFP path must be
// markedly more accurate than the uniform path (that is the whole point
// of the tracked exponent).
func TestForwardScaledBFPTracksDFT(t *testing.T) {
	const n = 256
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, amp := range []float64{0.9, 0.01} {
		x := bfpInput(n, amp)
		// Exact DFT of the quantised input.
		xf := make([]complex128, n)
		for i, c := range x {
			xf[i] = c.Complex128()
		}
		ref := DFT(xf)
		refEnergy := 0.0
		for _, v := range ref {
			refEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		errEnergy := func(got []fixed.Complex, exp int) float64 {
			scale := math.Ldexp(1, exp)
			e := 0.0
			for i, c := range got {
				d := c.Complex128()*complex(scale, 0) - ref[i]
				e += real(d)*real(d) + imag(d)*imag(d)
			}
			return e
		}
		bfp := make([]fixed.Complex, n)
		expB, err := p.ForwardScaledWith(fixed.Active(), bfp, x, ScaleBFP)
		if err != nil {
			t.Fatal(err)
		}
		uni := make([]fixed.Complex, n)
		expU, err := p.ForwardScaledWith(fixed.Active(), uni, x, ScaleUniform)
		if err != nil {
			t.Fatal(err)
		}
		sqnrB := 10 * math.Log10(refEnergy/errEnergy(bfp, expB))
		sqnrU := 10 * math.Log10(refEnergy/errEnergy(uni, expU))
		if sqnrB < 55 {
			t.Errorf("amp=%v: BFP transform SQNR = %.1f dB, want >= 55", amp, sqnrB)
		}
		if amp < 0.1 && sqnrB < sqnrU+20 {
			t.Errorf("amp=%v: BFP SQNR %.1f dB not >> uniform %.1f dB", amp, sqnrB, sqnrU)
		}
		if expB > expU {
			t.Errorf("amp=%v: BFP exponent %d exceeds uniform %d", amp, expB, expU)
		}
	}
}

// TestForwardScaledBFPNoOverflow feeds the worst coherent-growth input
// (constant full-scale: DFT bin 0 = n) and checks nothing saturates to
// garbage: bin 0 must dominate and carry the right value within
// quantisation error.
func TestForwardScaledBFPNoOverflow(t *testing.T) {
	const n = 256
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]fixed.Complex, n)
	for i := range x {
		x[i] = fixed.Complex{Re: fixed.MaxQ15, Im: fixed.MinQ15}
	}
	got := make([]fixed.Complex, n)
	exp, err := p.ForwardScaledWith(fixed.Active(), got, x, ScaleBFP)
	if err != nil {
		t.Fatal(err)
	}
	scale := math.Ldexp(1, exp)
	b0 := got[0].Complex128() * complex(scale, 0)
	want := complex(float64(n)*fixed.MaxQ15.Float(), float64(n)*fixed.MinQ15.Float())
	if cmplx.Abs(b0-want)/cmplx.Abs(want) > 1e-3 {
		t.Errorf("bin 0 = %v, want %v (exp %d)", b0, want, exp)
	}
	for i := 1; i < n; i++ {
		if cmplx.Abs(got[i].Complex128()) > 0.01*cmplx.Abs(got[0].Complex128()) {
			t.Errorf("bin %d = %v: leakage beyond quantisation floor", i, got[i])
		}
	}
}

// TestForwardScaledDeterminism: same input, same words and exponent.
func TestForwardScaledDeterminism(t *testing.T) {
	const n = 128
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	x := bfpInput(n, 0.7)
	a := make([]fixed.Complex, n)
	b := make([]fixed.Complex, n)
	expA, err := p.ForwardScaledWith(fixed.Active(), a, x, ScaleBFP)
	if err != nil {
		t.Fatal(err)
	}
	expB, err := p.ForwardScaledWith(fixed.Active(), b, x, ScaleBFP)
	if err != nil {
		t.Fatal(err)
	}
	if expA != expB {
		t.Fatalf("exponents differ: %d vs %d", expA, expB)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("bin %d differs across runs", i)
		}
	}
}

// TestFixedRootsAndWindow sanity-checks the cached Q15 tables.
func TestFixedRootsAndWindow(t *testing.T) {
	r, err := FixedRoots(8)
	if err != nil {
		t.Fatal(err)
	}
	if r[0].Re != fixed.MaxQ15 || r[0].Im != 0 {
		t.Errorf("root 0 = %+v, want (MaxQ15, 0)", r[0])
	}
	if r[2].Re != 0 || r[2].Im != fixed.MinQ15 {
		t.Errorf("root 2 = %+v, want (0, -1)", r[2])
	}
	r2, err := FixedRoots(8)
	if err != nil {
		t.Fatal(err)
	}
	if &r[0] != &r2[0] {
		t.Error("FixedRoots not cached")
	}
	if w, err := FixedWindow(Rectangular, 16); err != nil || w != nil {
		t.Errorf("rectangular fixed window = %v, %v; want nil, nil", w, err)
	}
	w, err := FixedWindow(Hamming, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(w) != 16 {
		t.Fatalf("Hamming fixed window length %d", len(w))
	}
	for i, q := range w {
		if q < 0 {
			t.Errorf("window coefficient %d negative: %v", i, q)
		}
	}
	if _, err := FixedRoots(0); err == nil {
		t.Error("FixedRoots(0) accepted")
	}
}
