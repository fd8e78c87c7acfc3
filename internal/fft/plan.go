package fft

import (
	"fmt"
	"math/cmplx"
)

// Plan holds precomputed tables for float64 transforms of one size.
// A Plan is safe for concurrent use once created (its tables are never
// mutated after NewPlan).
type Plan struct {
	n   int
	rev []int
	// tw[s] holds the twiddles of stage s (span 2<<s): e^{-j2πi/(2<<s)}.
	tw [][]complex128
}

// NewPlan creates transform tables for size n, which must be a power of
// two not smaller than 2.
func NewPlan(n int) (*Plan, error) {
	if n < 2 {
		return nil, fmt.Errorf("fft: size %d too small (need >= 2)", n)
	}
	stages, err := Log2(n)
	if err != nil {
		return nil, err
	}
	// Every stage's twiddles are a stride through the size-n roots table:
	// stage s, index i needs e^{-j2πi/span} = Roots(n)[i·(n/span)].
	roots, err := Roots(n)
	if err != nil {
		return nil, err
	}
	p := &Plan{n: n, rev: bitrevTable(n), tw: make([][]complex128, stages)}
	for s := 0; s < stages; s++ {
		span := 2 << s
		half := span / 2
		stride := n / span
		w := make([]complex128, half)
		for i := 0; i < half; i++ {
			w[i] = roots[i*stride]
		}
		p.tw[s] = w
	}
	return p, nil
}

// Forward computes the unnormalised forward DFT of src into dst. dst and
// src must both have the plan's length; they may alias each other.
//
// The decimation-in-time pass is restructured for speed without changing
// the arithmetic: the bit-reversal is fused into the input gather when
// dst does not alias src, the first two stages (twiddles exactly 1 and
// -j, held exactly in the roots table) run multiply-free, every later
// stage replaces its w=1 and w=-j butterflies with plain moves, and the
// remaining butterflies work through capped sub-slices so they compile
// without bounds checks. Each output is produced by the same multiplies
// and adds in the same order as the textbook triple loop, so results
// match it exactly (trivial rotations can flip the sign of a zero, which
// compares equal).
func (p *Plan) Forward(dst, src []complex128) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("fft: Forward length %d/%d, plan size %d", len(dst), len(src), p.n)
	}
	// Stages 0 and 1 (spans 2 and 4) only ever rotate by 1 and -j (held
	// exactly in the roots table), so both run multiply-free — a -j
	// rotation is (im, -re) — and fused into one pass over each quad.
	// When dst does not alias src the input reordering folds in too:
	// bit-reversal is an involution, so the in-place swap pass and a
	// permuted gather produce the same ordering, and the gather feeds
	// each quad straight into its butterflies.
	if &dst[0] != &src[0] {
		rev := p.rev
		if p.n >= 4 {
			for i := 0; i < p.n; i += 4 {
				a, b := src[rev[i]], src[rev[i+1]]
				c, d := src[rev[i+2]], src[rev[i+3]]
				e0, e1 := a+b, a-b
				f0, f1 := c+d, c-d
				t := complex(imag(f1), -real(f1))
				dst[i], dst[i+2] = e0+f0, e0-f0
				dst[i+1], dst[i+3] = e1+t, e1-t
			}
		} else {
			a, b := src[rev[0]], src[rev[1]]
			dst[0], dst[1] = a+b, a-b
		}
	} else {
		permuteInPlace(dst, p.rev)
		if p.n >= 4 {
			for base := 0; base+4 <= p.n; base += 4 {
				q := dst[base : base+4 : base+4]
				a, b, c, d := q[0], q[1], q[2], q[3]
				e0, e1 := a+b, a-b
				f0, f1 := c+d, c-d
				t := complex(imag(f1), -real(f1))
				q[0], q[2] = e0+f0, e0-f0
				q[1], q[3] = e1+t, e1-t
			}
		} else {
			a, b := dst[0], dst[1]
			dst[0], dst[1] = a+b, a-b
		}
	}
	// Remaining stages run in fused pairs: stage s and s+1 handled in one
	// pass over each 4·h block (h = stage-s half-span), halving the trips
	// through memory. Within the pass every value is produced by exactly
	// the butterflies the two separate stages would apply, in the same
	// per-value order, so the fusion changes nothing numerically.
	s := 2
	for ; s+1 < len(p.tw); s += 2 {
		w1, w2 := p.tw[s], p.tw[s+1]
		h := len(w1)
		for base := 0; base < p.n; base += 4 * h {
			q0 := dst[base : base+h : base+h]
			q1 := dst[base+h : base+2*h : base+2*h]
			q2 := dst[base+2*h : base+3*h : base+3*h]
			q3 := dst[base+3*h : base+4*h : base+4*h]
			// i = 0: w1[0] = 1, w2[0] = 1, w2[h] = -j — all trivial.
			a, b := q0[0], q1[0]
			u0, u1 := a+b, a-b
			a, b = q2[0], q3[0]
			v0, v1 := a+b, a-b
			q0[0], q2[0] = u0+v0, u0-v0
			t := complex(imag(v1), -real(v1))
			q1[0], q3[0] = u1+t, u1-t
			for i := 1; i < h; i++ {
				var b1, b3 complex128
				if i == h/2 {
					// w1[h/2] = -j exactly.
					c1, c3 := q1[i], q3[i]
					b1 = complex(imag(c1), -real(c1))
					b3 = complex(imag(c3), -real(c3))
				} else {
					b1 = q1[i] * w1[i]
					b3 = q3[i] * w1[i]
				}
				a1, a3 := q0[i], q2[i]
				u0, u1 := a1+b1, a1-b1
				v0, v1 := a3+b3, a3-b3
				t0 := v0 * w2[i]
				t1 := v1 * w2[i+h]
				q0[i], q2[i] = u0+t0, u0-t0
				q1[i], q3[i] = u1+t1, u1-t1
			}
		}
	}
	// Odd stage count: one classic pass finishes the transform.
	for ; s < len(p.tw); s++ {
		w := p.tw[s]
		half := len(w)
		quarter := half / 2
		for base := 0; base < p.n; base += 2 * half {
			lo := dst[base : base+half : base+half]
			hi := dst[base+half : base+2*half : base+2*half]
			// i = 0: w[0] = 1, no multiply needed.
			a, b := lo[0], hi[0]
			lo[0], hi[0] = a+b, a-b
			// Butterflies within a stage touch disjoint cells, so the
			// two-at-a-time unroll changes no value — it only gives the
			// core independent work to overlap.
			for i := 1; i+1 < quarter; i += 2 {
				a0, a1 := lo[i], lo[i+1]
				b0 := hi[i] * w[i]
				b1 := hi[i+1] * w[i+1]
				lo[i], lo[i+1] = a0+b0, a1+b1
				hi[i], hi[i+1] = a0-b0, a1-b1
			}
			if quarter&1 == 0 && quarter > 1 {
				i := quarter - 1
				a := lo[i]
				b := hi[i] * w[i]
				lo[i] = a + b
				hi[i] = a - b
			}
			// i = half/2: w = -j exactly, another multiply-free rotation.
			a, c := lo[quarter], hi[quarter]
			b = complex(imag(c), -real(c))
			lo[quarter], hi[quarter] = a+b, a-b
			for i := quarter + 1; i+1 < half; i += 2 {
				a0, a1 := lo[i], lo[i+1]
				b0 := hi[i] * w[i]
				b1 := hi[i+1] * w[i+1]
				lo[i], lo[i+1] = a0+b0, a1+b1
				hi[i], hi[i+1] = a0-b0, a1-b1
			}
			if half&1 == 0 && half > quarter+1 {
				i := half - 1
				a := lo[i]
				b := hi[i] * w[i]
				lo[i] = a + b
				hi[i] = a - b
			}
		}
	}
	return nil
}

// Inverse computes the inverse DFT (with 1/N normalisation) of src into
// dst. dst and src may alias. It allocates nothing: the conjugation
// happens directly in dst, which then doubles as the Forward workspace.
func (p *Plan) Inverse(dst, src []complex128) error {
	if len(src) != p.n || len(dst) != p.n {
		return fmt.Errorf("fft: Inverse length %d/%d, plan size %d", len(dst), len(src), p.n)
	}
	// IDFT(x) = conj(DFT(conj(x)))/N.
	for i, v := range src {
		dst[i] = cmplx.Conj(v)
	}
	if err := p.Forward(dst, dst); err != nil {
		return err
	}
	inv := complex(1/float64(p.n), 0)
	for i, v := range dst {
		dst[i] = cmplx.Conj(v) * inv
	}
	return nil
}

// ComplexMults returns the number of complex multiplications of a radix-2
// FFT of size n: (n/2)·log2(n). This is the operation count the paper uses
// in its section 2 complexity comparison.
func ComplexMults(n int) int {
	bits, err := Log2(n)
	if err != nil {
		return 0
	}
	return n / 2 * bits
}
