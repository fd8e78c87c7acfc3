package fft

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"

	"tiledcfd/internal/fixed"
)

func TestNewFixedPlanRejectsBadSizes(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := NewFixedPlan(n); err == nil {
			t.Errorf("NewFixedPlan(%d) should fail", n)
		}
	}
}

func TestFixedForwardMatchesScaledDFT(t *testing.T) {
	for _, n := range []int{4, 16, 64, 256} {
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(0.4*math.Sin(0.31*float64(i)), 0.4*math.Cos(0.17*float64(i)))
		}
		fx := fixed.FromFloatSlice(x)
		p, err := NewFixedPlan(n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]fixed.Complex, n)
		if err := p.Forward(out, fx); err != nil {
			t.Fatal(err)
		}
		want := DFT(x)
		// Output is DFT/n; quantisation noise grows ~ sqrt(stages).
		tol := 6e-4
		for v := range out {
			got := out[v].Complex128()
			ref := want[v] / complex(float64(n), 0)
			if cmplx.Abs(got-ref) > tol {
				t.Fatalf("n=%d bin %d: fixed %v, want %v (|d|=%g)", n, v, got, ref, cmplx.Abs(got-ref))
			}
		}
	}
}

func TestFixedForwardImpulse(t *testing.T) {
	const n = 16
	x := make([]fixed.Complex, n)
	x[0] = fixed.Complex{Re: fixed.MaxQ15, Im: 0}
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fixed.Complex, n)
	if err := p.Forward(out, x); err != nil {
		t.Fatal(err)
	}
	// DFT of impulse is flat at amplitude 1; scaled by 1/n -> 1/16.
	want := fixed.MaxQ15.Float() / n
	for v := range out {
		if math.Abs(out[v].Re.Float()-want) > 3e-4 || math.Abs(out[v].Im.Float()) > 3e-4 {
			t.Fatalf("bin %d = %v, want ~(%v, 0)", v, out[v].Complex128(), want)
		}
	}
}

func TestFixedForwardNeverOverflows(t *testing.T) {
	// Full-scale alternating input is the classic FFT overflow stressor;
	// with per-stage scaling every intermediate stays in range and the
	// energy lands in the Nyquist bin.
	const n = 64
	x := make([]fixed.Complex, n)
	for i := range x {
		v := fixed.MaxQ15
		if i%2 == 1 {
			v = fixed.MinQ15
		}
		x[i] = fixed.Complex{Re: v, Im: v}
	}
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]fixed.Complex, n)
	if err := p.Forward(out, x); err != nil {
		t.Fatal(err)
	}
	// All bins except n/2 must be ~0; bin n/2 must be ~full scale.
	for v := range out {
		mag := cmplx.Abs(out[v].Complex128())
		if v == n/2 {
			if mag < 1.3 { // |(1+1j)| = 1.41 scaled slightly by quantisation
				t.Fatalf("Nyquist bin magnitude %v too small", mag)
			}
		} else if mag > 0.01 {
			t.Fatalf("bin %d magnitude %v, want ~0", v, mag)
		}
	}
}

func TestFixedPlanAccessors(t *testing.T) {
	p, err := NewFixedPlan(256)
	if err != nil {
		t.Fatal(err)
	}
	if p.Stages() != 8 {
		t.Fatalf("stages = %d, want 8", p.Stages())
	}
	if len(p.StageTwiddles(0)) != 1 || len(p.StageTwiddles(7)) != 128 {
		t.Fatal("stage twiddle table sizes wrong")
	}
	if len(p.BitrevTable()) != 256 {
		t.Fatal("bitrev table size wrong")
	}
}

func TestFixedTwiddlesUnitMagnitude(t *testing.T) {
	for _, span := range []int{2, 8, 256} {
		tw := FixedTwiddles(span)
		for i, w := range tw {
			mag := cmplx.Abs(w.Complex128())
			if mag > 1.0001 || mag < 0.9995 {
				t.Fatalf("span %d twiddle %d magnitude %v", span, i, mag)
			}
		}
		// First twiddle is exactly ~1+0j.
		if tw[0].Re != fixed.MaxQ15 || tw[0].Im != 0 {
			t.Fatalf("span %d twiddle 0 = %+v", span, tw[0])
		}
	}
}

// Property: the fixed FFT tracks the scaled float FFT within quantisation
// tolerance for random half-scale inputs.
func TestQuickFixedMatchesFloat(t *testing.T) {
	const n = 32
	p, err := NewFixedPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	fp, err := NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	f := func(vals [2 * n]int16) bool {
		x := make([]complex128, n)
		fx := make([]fixed.Complex, n)
		for i := 0; i < n; i++ {
			// Half scale to stay well inside the representable range.
			re := fixed.Q15(vals[2*i] / 2)
			im := fixed.Q15(vals[2*i+1] / 2)
			fx[i] = fixed.Complex{Re: re, Im: im}
			x[i] = fx[i].Complex128()
		}
		out := make([]fixed.Complex, n)
		if p.Forward(out, fx) != nil {
			return false
		}
		X := make([]complex128, n)
		if fp.Forward(X, x) != nil {
			return false
		}
		for v := 0; v < n; v++ {
			if cmplx.Abs(out[v].Complex128()-X[v]/n) > 1.5e-3 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestWindowShapes(t *testing.T) {
	for _, kind := range []WindowKind{Rectangular, Hann, Hamming, Blackman} {
		w, err := Window(kind, 64)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if len(w) != 64 {
			t.Fatalf("%v: length %d", kind, len(w))
		}
		for i, v := range w {
			if v < -1e-12 || v > 1+1e-12 {
				t.Fatalf("%v[%d] = %v out of [0,1]", kind, i, v)
			}
		}
	}
	// Rectangular is all ones; Hann starts at 0.
	r, _ := Window(Rectangular, 8)
	if r[0] != 1 || r[7] != 1 {
		t.Error("rectangular window should be all ones")
	}
	h, _ := Window(Hann, 8)
	if h[0] != 0 {
		t.Error("hann window should start at 0")
	}
	if _, err := Window(WindowKind(99), 8); err == nil {
		t.Error("unknown window should fail")
	}
	if _, err := Window(Hann, 0); err == nil {
		t.Error("zero-size window should fail")
	}
}

func TestWindowNames(t *testing.T) {
	if Rectangular.String() != "rectangular" || Hann.String() != "hann" ||
		Hamming.String() != "hamming" || Blackman.String() != "blackman" {
		t.Error("window names wrong")
	}
	if WindowKind(42).String() == "" {
		t.Error("unknown window name empty")
	}
}

func TestApplyWindow(t *testing.T) {
	x := []complex128{1, 1, 1, 1}
	w := []float64{0, 0.5, 1, 0.5}
	out := make([]complex128, len(x))
	if err := ApplyWindowInto(out, x, w); err != nil {
		t.Fatal(err)
	}
	if out[0] != 0 || out[1] != 0.5 || out[2] != 1 {
		t.Fatalf("ApplyWindowInto: %v", out)
	}
	if err := ApplyWindowInto(out, x, w[:2]); err == nil {
		t.Error("window length mismatch should fail")
	}
	if err := ApplyWindowInto(out[:2], x, w); err == nil {
		t.Error("destination length mismatch should fail")
	}
}
