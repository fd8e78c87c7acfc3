package fixed

import (
	"math"
	"math/cmplx"
	"testing"
	"testing/quick"
)

func TestCFromFloatAndBack(t *testing.T) {
	c := CFromFloat(complex(0.5, -0.25))
	if c.Re != HalfQ15 || c.Im != -8192 {
		t.Fatalf("CFromFloat(0.5,-0.25) = %+v", c)
	}
	got := c.Complex128()
	if real(got) != 0.5 || imag(got) != -0.25 {
		t.Fatalf("Complex128 = %v", got)
	}
}

func TestConj(t *testing.T) {
	c := Complex{Re: 100, Im: 200}
	g := Conj(c)
	if g.Re != 100 || g.Im != -200 {
		t.Fatalf("Conj = %+v", g)
	}
	// Saturating edge: conj of Im = MinQ15 is MaxQ15.
	e := Conj(Complex{Re: 0, Im: MinQ15})
	if e.Im != MaxQ15 {
		t.Fatalf("Conj(min imag) = %+v, want saturated Im", e)
	}
}

func TestCAddCSub(t *testing.T) {
	a := Complex{Re: 30000, Im: -30000}
	b := Complex{Re: 10000, Im: -10000}
	s := CAdd(a, b)
	if s.Re != MaxQ15 || s.Im != MinQ15 {
		t.Fatalf("CAdd saturation: %+v", s)
	}
}

func TestCMulAgainstFloat(t *testing.T) {
	vals := []complex128{
		0, complex(0.5, 0), complex(0, 0.5), complex(-0.5, 0.25),
		complex(0.9, -0.9), complex(-0.99, -0.99), complex(0.1, 0.2),
	}
	cl := func(f float64) float64 {
		return math.Max(-1, math.Min(f, MaxQ15.Float()))
	}
	for _, a := range vals {
		for _, b := range vals {
			fa, fb := CFromFloat(a), CFromFloat(b)
			got := CMul(fa, fb).Complex128()
			want := a * b
			// Components beyond Q15 full scale saturate by design.
			want = complex(cl(real(want)), cl(imag(want)))
			if cmplx.Abs(got-want) > 3.0/scale {
				t.Errorf("CMul(%v,%v) = %v, want ~%v", a, b, got, want)
			}
		}
	}
}

func TestCMulConjAgainstFloat(t *testing.T) {
	a := complex(0.25, 0.5)
	b := complex(-0.125, 0.75)
	got := CMulConj(CFromFloat(a), CFromFloat(b)).Complex128()
	want := a * cmplx.Conj(b)
	if cmplx.Abs(got-want) > 3.0/scale {
		t.Fatalf("CMulConj = %v, want ~%v", got, want)
	}
}

func TestCMulConjIdentity(t *testing.T) {
	// x*conj(x) must be real, non-negative, equal to |x|^2.
	x := CFromFloat(complex(0.6, -0.3))
	p := CMulConj(x, x)
	if p.Im != 0 {
		t.Fatalf("x*conj(x) has Im = %d, want 0", p.Im)
	}
	want := 0.6*0.6 + 0.3*0.3
	if math.Abs(p.Re.Float()-want) > 2.0/scale {
		t.Fatalf("x*conj(x).Re = %v, want ~%v", p.Re.Float(), want)
	}
}

func TestCScaleAndCHalf(t *testing.T) {
	c := Complex{Re: 8000, Im: -8000}
	s := CScale(c, HalfQ15)
	if s.Re != 4000 || s.Im != -4000 {
		t.Fatalf("CScale(half) = %+v", s)
	}
}

func TestBFlyMatchesFloatButterfly(t *testing.T) {
	a := complex(0.5, 0.25)
	b := complex(-0.25, 0.125)
	w := cmplx.Exp(complex(0, -2*math.Pi*3/16))
	lo, hi := BFly(CFromFloat(a), CFromFloat(b), CFromFloat(w))
	wantLo := (a + w*b) / 2
	wantHi := (a - w*b) / 2
	if cmplx.Abs(lo.Complex128()-wantLo) > 3.0/scale {
		t.Errorf("BFly lo = %v, want ~%v", lo.Complex128(), wantLo)
	}
	if cmplx.Abs(hi.Complex128()-wantHi) > 3.0/scale {
		t.Errorf("BFly hi = %v, want ~%v", hi.Complex128(), wantHi)
	}
}

func TestBFlyNeverOverflows(t *testing.T) {
	// With the /2 scaling, any inputs (including full-scale corners) stay
	// within Q15 before saturation would trigger: |(a±wb)/2| <= (|a|+|b|)/2 <= 1.
	corners := []Complex{
		{MaxQ15, MaxQ15}, {MinQ15, MinQ15}, {MaxQ15, MinQ15}, {MinQ15, MaxQ15},
	}
	ws := []Complex{
		{MaxQ15, 0}, {0, MinQ15}, {23170, -23170}, // ~e^{-jpi/4}
	}
	clamp := func(v complex128) complex128 {
		cl := func(f float64) float64 {
			if f > MaxQ15.Float() {
				return MaxQ15.Float()
			}
			if f < -1 {
				return -1
			}
			return f
		}
		return complex(cl(real(v)), cl(imag(v)))
	}
	for _, a := range corners {
		for _, b := range corners {
			for _, w := range ws {
				lo, hi := BFly(a, b, w)
				fa, fb, fw := a.Complex128(), b.Complex128(), w.Complex128()
				// Components beyond full scale saturate; compare against the
				// clamped float butterfly.
				wantLo := clamp((fa + fw*fb) / 2)
				wantHi := clamp((fa - fw*fb) / 2)
				if cmplx.Abs(lo.Complex128()-wantLo) > 2e-3 {
					t.Errorf("BFly lo corner mismatch: %v vs %v", lo.Complex128(), wantLo)
				}
				if cmplx.Abs(hi.Complex128()-wantHi) > 2e-3 {
					t.Errorf("BFly hi corner mismatch: %v vs %v", hi.Complex128(), wantHi)
				}
			}
		}
	}
}

func TestCMeanExact(t *testing.T) {
	// No intermediate saturation: mean of two near-rail values is exact.
	a := Complex{Re: 30000, Im: -30000}
	b := Complex{Re: 30000, Im: -30000}
	m := CMean(a, b)
	if m.Re != 30000 || m.Im != -30000 {
		t.Fatalf("CMean = %+v", m)
	}
	// Floor semantics on odd sums.
	o := CMean(Complex{Re: 1}, Complex{Re: 2})
	if o.Re != 1 {
		t.Fatalf("CMean(1,2).Re = %d, want 1 (floor)", o.Re)
	}
	n := CMean(Complex{Re: -1}, Complex{Re: -2})
	if n.Re != -2 {
		t.Fatalf("CMean(-1,-2).Re = %d, want -2 (floor)", n.Re)
	}
}

func TestCDiffMeanExact(t *testing.T) {
	d := CDiffMean(Complex{Re: 30000, Im: 10}, Complex{Re: -30000, Im: 4})
	if d.Re != 30000 || d.Im != 3 {
		t.Fatalf("CDiffMean = %+v", d)
	}
}

func TestMulNegJ(t *testing.T) {
	// -j·(a+bj) = b - aj.
	c := MulNegJ(Complex{Re: 100, Im: 200})
	if c.Re != 200 || c.Im != -100 {
		t.Fatalf("MulNegJ = %+v", c)
	}
	// Saturating edge at Re = MinQ15.
	e := MulNegJ(Complex{Re: MinQ15, Im: 0})
	if e.Im != MaxQ15 {
		t.Fatalf("MulNegJ(min) = %+v", e)
	}
}

// Property: CMean and CDiffMean reconstruct their inputs:
// CMean + CDiffMean == a (within the floor-rounding LSB).
func TestQuickMeanDiffReconstruct(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a := Complex{Q15(ar), Q15(ai)}
		b := Complex{Q15(br), Q15(bi)}
		m := CMean(a, b)
		d := CDiffMean(a, b)
		// m + d == a up to 1 LSB (two independent floors).
		reDiff := int(a.Re) - (int(m.Re) + int(d.Re))
		imDiff := int(a.Im) - (int(m.Im) + int(d.Im))
		return reDiff >= 0 && reDiff <= 1 && imDiff >= 0 && imDiff <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CMul is commutative.
func TestQuickCMulCommutative(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a := Complex{Q15(ar), Q15(ai)}
		b := Complex{Q15(br), Q15(bi)}
		return CMul(a, b) == CMul(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: conj(conj(x)) == x except at the saturating Im = MinQ15 edge.
func TestQuickConjInvolution(t *testing.T) {
	f := func(re, im int16) bool {
		if Q15(im) == MinQ15 {
			return true // saturation breaks the involution by design
		}
		c := Complex{Q15(re), Q15(im)}
		return Conj(Conj(c)) == c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: CMulConj(x, y) == Conj(CMulConj(y, x)) within one LSB per
// component (rounding of the two directions can differ by one).
func TestQuickCMulConjHermitian(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a := Complex{Q15(ar), Q15(ai)}
		b := Complex{Q15(br), Q15(bi)}
		p := CMulConj(a, b)
		q := Conj(CMulConj(b, a))
		dr := int(p.Re) - int(q.Re)
		di := int(p.Im) - int(q.Im)
		return dr >= -1 && dr <= 1 && di >= -1 && di <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: |CMul(a,b)| <= |a|*|b| + rounding slack.
func TestQuickCMulMagnitudeBound(t *testing.T) {
	f := func(ar, ai, br, bi int16) bool {
		a := Complex{Q15(ar), Q15(ai)}
		b := Complex{Q15(br), Q15(bi)}
		p := CMul(a, b)
		return cmplx.Abs(p.Complex128()) <= cmplx.Abs(a.Complex128())*cmplx.Abs(b.Complex128())+4.0/scale
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
