package fixed

// Complex is a complex number with Q15 real and imaginary parts, the
// natural datum of the Montium complex ALU.
type Complex struct {
	// Re and Im are the Q15 real and imaginary components.
	Re, Im Q15
}

// CFromFloat converts a complex128 to Complex with rounding and saturation
// applied independently to the real and imaginary parts.
func CFromFloat(c complex128) Complex {
	return Complex{Re: FromFloat(real(c)), Im: FromFloat(imag(c))}
}

// Complex128 converts c to its exact complex128 value.
func (c Complex) Complex128() complex128 {
	return complex(c.Re.Float(), c.Im.Float())
}

// IsZero reports whether both parts are exactly zero.
func (c Complex) IsZero() bool { return c.Re == 0 && c.Im == 0 }

// Conj returns the complex conjugate with saturation on the imaginary part.
func Conj(c Complex) Complex { return Complex{Re: c.Re, Im: Neg(c.Im)} }

// CAdd returns a+b with per-component saturation.
func CAdd(a, b Complex) Complex {
	return Complex{Re: Add(a.Re, b.Re), Im: Add(a.Im, b.Im)}
}

// CMul returns the complex product a*b.
//
// The four partial products are computed at full Q30 precision and the
// cross sums are formed before a single rounding and saturation per
// component, which models a datapath with a wide multiplier array feeding
// one saturating output stage (one complex multiplication per clock cycle,
// as the Montium ALU provides).
func CMul(a, b Complex) Complex {
	re := int64(a.Re)*int64(b.Re) - int64(a.Im)*int64(b.Im) // Q30
	im := int64(a.Re)*int64(b.Im) + int64(a.Im)*int64(b.Re) // Q30
	return Complex{Re: roundQ30(re), Im: roundQ30(im)}
}

// CMulConj returns a*conj(b), the product form used by the DSCF
// (expression 3 of the paper): S_f^a accumulates X_{n,f+a}*conj(X_{n,f-a}).
// Like CMul, each component is rounded half-up from the exact Q30
// products and saturated to [MinQ15, MaxQ15].
func CMulConj(a, b Complex) Complex {
	re := int64(a.Re)*int64(b.Re) + int64(a.Im)*int64(b.Im) // Q30
	im := int64(a.Im)*int64(b.Re) - int64(a.Re)*int64(b.Im) // Q30
	return Complex{Re: roundQ30(re), Im: roundQ30(im)}
}

// CScale returns c * s for a real Q15 scale factor s, each component
// rounded half-up and saturated to [MinQ15, MaxQ15].
func CScale(c Complex, s Q15) Complex {
	return Complex{Re: Mul(c.Re, s), Im: Mul(c.Im, s)}
}

// roundQ30 converts a Q30 intermediate to Q15 with round-half-up and
// saturation.
func roundQ30(v int64) Q15 {
	return SaturateInt((v + (1 << 14)) >> 15)
}

// CMean returns (a+b)/2 computed at full precision (no intermediate
// saturation; the result always fits). Used by the real-input FFT
// untangling stage, where e = (z1 + conj(z2))/2 must be exact.
func CMean(a, b Complex) Complex {
	return Complex{
		Re: Q15((int32(a.Re) + int32(b.Re)) >> 1),
		Im: Q15((int32(a.Im) + int32(b.Im)) >> 1),
	}
}

// CDiffMean returns (a-b)/2 at full precision: the difference is
// formed in 32-bit before halving, so it cannot overflow and needs no
// saturation.
func CDiffMean(a, b Complex) Complex {
	return Complex{
		Re: Q15((int32(a.Re) - int32(b.Re)) >> 1),
		Im: Q15((int32(a.Im) - int32(b.Im)) >> 1),
	}
}

// MulNegJ returns -j·c = (Im, -Re): a free rotation in hardware (wire
// swap plus negate). The negation saturates at the Re = MinQ15 edge.
func MulNegJ(c Complex) Complex {
	return Complex{Re: c.Im, Im: Neg(c.Re)}
}

// BFly computes one radix-2 decimation-in-time FFT butterfly with the
// per-stage 1/2 scaling used by the Montium FFT kernel:
//
//	lo = (a + w*b) / 2
//	hi = (a - w*b) / 2
//
// The twiddle product is formed at Q30, the sum/difference with a at Q30
// as well, then a single scale-round-saturate step produces the outputs.
// Scaling by 1/2 at every stage guarantees no overflow for any input and
// yields an overall FFT scaling of 1/N, i.e. the output is DFT(x)/N.
//
// This function is the single source of truth for fixed-point butterflies:
// internal/fft's fixed plan and internal/montium's FFT kernel both call it,
// so the two paths are bit-identical by construction.
func BFly(a, b, w Complex) (lo, hi Complex) {
	// w*b at Q30 without intermediate rounding.
	pre := int64(w.Re)*int64(b.Re) - int64(w.Im)*int64(b.Im)
	pim := int64(w.Re)*int64(b.Im) + int64(w.Im)*int64(b.Re)
	are := int64(a.Re) << 15 // a at Q30
	aim := int64(a.Im) << 15
	// (a ± w*b)/2, rounded once from Q30 to Q15 including the 1/2.
	lo = Complex{Re: roundQ30half(are + pre), Im: roundQ30half(aim + pim)}
	hi = Complex{Re: roundQ30half(are - pre), Im: roundQ30half(aim - pim)}
	return lo, hi
}

// roundQ30half converts a Q30 intermediate to Q15 while also dividing by
// two (shift by 16 instead of 15), with round-half-up and saturation.
func roundQ30half(v int64) Q15 {
	return SaturateInt((v + (1 << 15)) >> 16)
}

// BFlyNoScale computes one radix-2 decimation-in-time butterfly WITHOUT
// the per-stage 1/2 scaling of BFly:
//
//	lo = a + w*b
//	hi = a - w*b
//
// The twiddle product and the sum/difference are formed at Q30 and one
// round-saturate step produces each output component. It is the stage
// primitive of the block-floating-point FFT (fft.FixedPlan.ForwardScaledWith
// with fft.ScaleBFP), which pre-shifts the whole block only when its
// magnitude demands it and tracks the shifts in an exponent instead of
// unconditionally halving every stage.
func BFlyNoScale(a, b, w Complex) (lo, hi Complex) {
	pre := int64(w.Re)*int64(b.Re) - int64(w.Im)*int64(b.Im)
	pim := int64(w.Re)*int64(b.Im) + int64(w.Im)*int64(b.Re)
	are := int64(a.Re) << 15 // a at Q30
	aim := int64(a.Im) << 15
	lo = Complex{Re: roundQ30(are + pre), Im: roundQ30(aim + pim)}
	hi = Complex{Re: roundQ30(are - pre), Im: roundQ30(aim - pim)}
	return lo, hi
}

// RShiftRound returns q arithmetically shifted right by sh bits with
// round-half-up (ties toward +infinity), the deterministic renormalisation
// step of block-floating-point exponent alignment. sh = 0 returns q
// unchanged; the result cannot overflow for sh >= 1.
func RShiftRound(q Q15, sh uint) Q15 {
	if sh == 0 {
		return q
	}
	return saturate32((int32(q) + 1<<(sh-1)) >> sh)
}

// CRShiftRound applies RShiftRound to both components (round-half-up,
// no overflow possible for sh >= 1; sh == 0 is the identity).
func CRShiftRound(c Complex, sh uint) Complex {
	return Complex{Re: RShiftRound(c.Re, sh), Im: RShiftRound(c.Im, sh)}
}
