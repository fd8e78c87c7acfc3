package fixed

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestCAccMatchesFloatAccumulation(t *testing.T) {
	xs := []complex128{
		complex(0.5, 0.25), complex(-0.3, 0.7), complex(0.1, -0.9), complex(0.8, 0.1),
	}
	ys := []complex128{
		complex(0.2, -0.4), complex(0.6, 0.6), complex(-0.5, 0.5), complex(-0.1, -0.2),
	}
	var acc CAcc
	want := complex(0, 0)
	for i := range xs {
		acc.AddProdConj(CFromFloat(xs[i]), CFromFloat(ys[i]))
		want += xs[i] * cmplx.Conj(ys[i])
	}
	if cmplx.Abs(acc.Float()-want) > 1e-3 {
		t.Fatalf("CAcc = %v, want ~%v", acc.Float(), want)
	}
}

func TestCAccComplexShiftNormalises(t *testing.T) {
	// Accumulate 4 identical products, then shift by 2 == divide by 4.
	x := CFromFloat(complex(0.5, 0))
	var acc CAcc
	for i := 0; i < 4; i++ {
		acc.AddProdConj(x, x)
	}
	got := acc.Complex(2) // /4
	want := 0.25          // |0.5|^2
	if math.Abs(got.Re.Float()-want) > 2.0/scale || got.Im != 0 {
		t.Fatalf("normalised acc = %+v, want Re ~%v, Im 0", got, want)
	}
}

func TestCAccQ15Saturates(t *testing.T) {
	// Accumulating +~1.0 products must pin at MaxQ15, not wrap.
	big := Complex{Re: MaxQ15, Im: 0}
	var acc CAccQ15
	for i := 0; i < 5; i++ {
		acc.MAC(big, big) // += ~ +1.0
	}
	if acc.V.Re != MaxQ15 {
		t.Fatalf("saturating accumulator Re = %d, want %d", acc.V.Re, MaxQ15)
	}
	if acc.V.Im != 0 {
		t.Fatalf("saturating accumulator Im = %d, want 0", acc.V.Im)
	}
}

func TestGuardBitsNeeded(t *testing.T) {
	cases := []struct{ n, want int }{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {127, 7}, {128, 7}, {129, 8}, {4064, 12},
	}
	for _, c := range cases {
		if got := GuardBitsNeeded(c.n); got != c.want {
			t.Errorf("GuardBitsNeeded(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestDynamicRangeDB16(t *testing.T) {
	// 16 bits ~ 96.33 dB; the paper rounds to "dynamic ranges smaller than 96 dB".
	got := DynamicRangeDB(16)
	if got < 96 || got > 97 {
		t.Fatalf("DynamicRangeDB(16) = %v, want ~96.3", got)
	}
}

// Property: wide accumulation over k <= 64 terms equals the float sum
// within k LSB-scale slack.
func TestQuickCAccCloseToFloat(t *testing.T) {
	f := func(seeds []int16) bool {
		if len(seeds) == 0 {
			return true
		}
		if len(seeds) > 64 {
			seeds = seeds[:64]
		}
		var acc CAcc
		want := complex(0, 0)
		for i := 0; i+1 < len(seeds); i += 2 {
			x := Complex{Q15(seeds[i]), Q15(seeds[i+1])}
			y := Complex{Q15(seeds[i+1]), Q15(seeds[i])}
			acc.AddProdConj(x, y)
			want += x.Complex128() * cmplx.Conj(y.Complex128())
		}
		return cmplx.Abs(acc.Float()-want) < float64(len(seeds))*1e-4+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the Q15 accumulator never escapes the representable range.
func TestQuickCAccQ15Bounded(t *testing.T) {
	f := func(seeds []int16) bool {
		var acc CAccQ15
		for i := 0; i+3 < len(seeds); i += 4 {
			x := Complex{Q15(seeds[i]), Q15(seeds[i+1])}
			y := Complex{Q15(seeds[i+2]), Q15(seeds[i+3])}
			acc.MAC(x, y)
			if acc.V.Re > MaxQ15 || acc.V.Re < MinQ15 || acc.V.Im > MaxQ15 || acc.V.Im < MinQ15 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSliceHelpers(t *testing.T) {
	x := []complex128{complex(0.5, -0.25), complex(-0.125, 1.5)}
	fx := FromFloatSlice(x)
	if fx[0].Re != HalfQ15 || fx[1].Im != MaxQ15 {
		t.Fatalf("FromFloatSlice: %+v", fx)
	}
	back := ToFloatSlice(fx)
	if real(back[0]) != 0.5 {
		t.Fatalf("ToFloatSlice: %v", back)
	}
}

func TestScaleSliceFloat(t *testing.T) {
	x := []complex128{complex(2, 0), complex(0, -4)}
	s := ScaleSliceFloat(x, 0.5)
	if math.Abs(s-0.125) > 1e-12 {
		t.Fatalf("scale = %v, want 0.125", s)
	}
	if imag(x[1]) != -0.5 {
		t.Fatalf("scaled slice: %v", x)
	}
	// Zero slice: unchanged, scale 1.
	z := []complex128{0, 0}
	if s := ScaleSliceFloat(z, 0.5); s != 1 {
		t.Fatalf("zero-slice scale = %v", s)
	}
}
