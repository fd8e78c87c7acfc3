package fft

import (
	"fmt"
	"math"

	"tiledcfd/internal/fixed"
)

// FixedPlan holds precomputed Q15 tables for the fixed-point transform.
// Its Forward pass is the bit-exact software twin of the Montium FFT
// kernel in internal/montium: same butterfly primitive (fixed.BFly), same
// stage order, same twiddle quantisation.
type FixedPlan struct {
	n   int
	rev []int
	tw  [][]fixed.Complex
}

// NewFixedPlan creates fixed-point transform tables for size n (a power of
// two, >= 2).
func NewFixedPlan(n int) (*FixedPlan, error) {
	if n < 2 {
		return nil, fmt.Errorf("fft: fixed size %d too small (need >= 2)", n)
	}
	stages, err := Log2(n)
	if err != nil {
		return nil, err
	}
	p := &FixedPlan{n: n, rev: bitrevTable(n), tw: make([][]fixed.Complex, stages)}
	for s := 0; s < stages; s++ {
		p.tw[s] = FixedTwiddles(2 << s)
	}
	return p, nil
}

// FixedTwiddles returns the Q15-quantised twiddle factors e^{-j2πi/span}
// for i in [0, span/2). Exposed so the Montium FFT kernel loads the exact
// same tables into its coefficient memory.
func FixedTwiddles(span int) []fixed.Complex {
	half := span / 2
	w := make([]fixed.Complex, half)
	for i := 0; i < half; i++ {
		ang := -2 * math.Pi * float64(i) / float64(span)
		w[i] = fixed.Complex{
			Re: fixed.FromFloat(math.Cos(ang)),
			Im: fixed.FromFloat(math.Sin(ang)),
		}
	}
	return w
}

// Stages returns the number of butterfly stages, log2 of the transform length.
func (p *FixedPlan) Stages() int { return len(p.tw) }

// StageTwiddles returns the twiddle table of stage s (span 2<<s). The
// returned slice must not be modified.
func (p *FixedPlan) StageTwiddles(s int) []fixed.Complex { return p.tw[s] }

// BitrevTable returns the bit-reversal permutation table. The returned
// slice must not be modified.
func (p *FixedPlan) BitrevTable() []int { return p.rev }

// Forward computes the scaled forward transform of src into dst:
// dst = DFT(src)/n, elementwise in saturating Q15 with one 1/2 scaling per
// stage. dst and src may alias.
func (p *FixedPlan) Forward(dst, src []fixed.Complex) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("fft: fixed Forward length %d/%d, plan size %d", len(dst), len(src), p.n)
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	permuteInPlace(dst, p.rev)
	for s := range p.tw {
		span := 2 << s
		half := span / 2
		w := p.tw[s]
		for base := 0; base < p.n; base += span {
			for i := 0; i < half; i++ {
				lo, hi := fixed.BFly(dst[base+i], dst[base+i+half], w[i])
				dst[base+i] = lo
				dst[base+i+half] = hi
			}
		}
	}
	return nil
}
