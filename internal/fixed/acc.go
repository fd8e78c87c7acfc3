package fixed

// CAcc is a wide complex accumulator with guard bits. Partial products
// enter at Q30 and accumulate in int64, so up to 2^33 products can be
// summed without any possibility of overflow. It models an ALU-side
// accumulator register; the Montium application instead accumulates in
// 16-bit memory words (see CAccQ15 in this package and the discussion of
// dynamic range in section 4.1 of the paper), and the two policies are
// compared in the E7 experiments.
type CAcc struct {
	Re, Im int64 // Q30 accumulations
}

// AddProdConj accumulates x*conj(y) at full Q30 precision — exact
// int64 arithmetic, no rounding and no saturation until the caller
// narrows the sum.
func (a *CAcc) AddProdConj(x, y Complex) {
	a.Re += int64(x.Re)*int64(y.Re) + int64(x.Im)*int64(y.Im)
	a.Im += int64(x.Im)*int64(y.Re) - int64(x.Re)*int64(y.Im)
}

// Complex returns the accumulator contents rounded to Q15 after an
// arithmetic right shift by sh additional bits (sh = 0 converts straight
// from Q30). The shift implements the 1/N normalisation of expression 3
// when N is a power of two.
func (a *CAcc) Complex(sh uint) Complex {
	return Complex{
		Re: SaturateInt((a.Re + (1 << (14 + sh))) >> (15 + sh)),
		Im: SaturateInt((a.Im + (1 << (14 + sh))) >> (15 + sh)),
	}
}

// Float returns the accumulator value as a complex128 scaled out of Q30.
func (a *CAcc) Float() complex128 {
	const q30 = 1 << 30
	return complex(float64(a.Re)/q30, float64(a.Im)/q30)
}

// CAccQ15 accumulates in saturating Q15, exactly as the Montium
// application does when it keeps running DSCF sums in the 16-bit memories
// M01..M08. Each step rounds the product to Q15 and saturates the running
// sum; this is the bit-true model against which the systolic and Montium
// simulations are verified.
type CAccQ15 struct {
	// V is the running saturating Q15 sum.
	V Complex
}

// MAC performs V += x*conj(y) in saturating Q15 arithmetic (one rounding
// of the product, one saturating add), matching a read-modify-write of a
// 16-bit memory accumulator through the complex ALU.
func (a *CAccQ15) MAC(x, y Complex) {
	a.V = CAdd(a.V, CMulConj(x, y))
}

// GuardBitsNeeded returns the number of extra integer bits required to
// accumulate n full-scale Q15 products without overflow: ceil(log2(n)).
// It quantifies the dynamic-range headroom discussion of section 4.1.
func GuardBitsNeeded(n int) int {
	if n <= 1 {
		return 0
	}
	bits := 0
	for v := n - 1; v > 0; v >>= 1 {
		bits++
	}
	return bits
}

// DynamicRangeDB returns the dynamic range, in decibel, of a signed
// fixed-point word with the given total bit width (6.02 dB per bit). The
// paper's section 4.1 invokes the 16-bit ≈ 96 dB rule.
func DynamicRangeDB(bits int) float64 {
	return 6.0205999132796239 * float64(bits)
}
