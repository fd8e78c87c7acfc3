package fft

import (
	"fmt"
	"sync"

	"tiledcfd/internal/fixed"
)

// ScalingPolicy selects how a fixed-point FFT keeps its Q15 datapath from
// overflowing across stages. Both policies are fully deterministic: the
// same input always produces the same output words and exponent.
type ScalingPolicy int

const (
	// ScaleBFP is block-floating-point scaling: before each butterfly
	// stage the block's peak component is measured and the whole block is
	// pre-shifted right only as far as that stage's worst-case growth
	// demands, with the total shift returned as a tracked exponent. Small
	// signals keep their significant bits instead of losing one per stage.
	ScaleBFP ScalingPolicy = iota
	// ScaleUniform is the Montium FFT kernel's policy: an unconditional
	// 1/2 per stage (output = DFT/n, exponent = log2 n), bit-identical to
	// FixedPlan.Forward. It can never overflow but costs log2(n) bits of
	// small-signal resolution.
	ScaleUniform
)

// String implements fmt.Stringer.
func (p ScalingPolicy) String() string {
	switch p {
	case ScaleBFP:
		return "bfp"
	case ScaleUniform:
		return "uniform"
	}
	return fmt.Sprintf("ScalingPolicy(%d)", int(p))
}

// bfpSafeMax is the largest per-component block magnitude a radix-2 stage
// may see without its output overflowing Q15. One butterfly grows a
// component by at most the factor 1+sqrt(2) (|a ± w·b| with |w| <= 1), so
// the exact bound is 32767/(1+sqrt 2) ~= 13573; 13000 leaves margin for
// the rounding adders of the pre-shift and of the butterfly itself.
const bfpSafeMax = 13000

// ForwardScaled computes the forward transform of src into dst under the
// given scaling policy and returns the tracked exponent:
//
//	DFT(src) = dst · 2^exp  (elementwise)
//
// With ScaleUniform the pass is bit-identical to Forward and exp is
// log2(n). With ScaleBFP each stage is preceded by a conditional
// round-half-up pre-shift of the whole block, sized so the stage cannot
// overflow; exp sums the shifts, so weak blocks come out with small
// exponents and their precision intact — the dynamic-range behaviour the
// paper's section 4.1 argues 16-bit words need. dst and src may alias.
//
// The butterfly stages run on the process-wide fixed.Active() kernels;
// every Kernels implementation produces identical output words and
// exponent (see ForwardScaledWith).
func (p *FixedPlan) ForwardScaled(dst, src []fixed.Complex, policy ScalingPolicy) (int, error) {
	return p.ForwardScaledWith(fixed.Active(), dst, src, policy)
}

// ForwardScaledWith is ForwardScaled on an explicit kernel
// implementation instead of the process-wide selection. The output
// words and exponent are identical for every fixed.Kernels
// implementation — the differential tests in this package run scalar
// and SWAR side by side through this entry point.
//
// Both policies drive the same per-stage kernel loop: ScaleUniform runs
// scaled butterflies (fixed.BFly semantics, bit-identical to Forward),
// ScaleBFP runs unscaled butterflies with the conditional pre-shift.
// The per-stage overflow scan is fused into the butterfly pass: each
// Kernels.Stage call returns the block peak that decides the next
// stage's shift, so BFP costs no separate scan passes after the first.
func (p *FixedPlan) ForwardScaledWith(kern fixed.Kernels, dst, src []fixed.Complex, policy ScalingPolicy) (int, error) {
	if len(src) != p.n || len(dst) != p.n {
		return 0, fmt.Errorf("fft: fixed ForwardScaled length %d/%d, plan size %d", len(dst), len(src), p.n)
	}
	if policy != ScaleBFP && policy != ScaleUniform {
		return 0, fmt.Errorf("fft: unknown scaling policy %d", int(policy))
	}
	if &dst[0] != &src[0] {
		copy(dst, src)
	}
	permuteInPlace(dst, p.rev)
	if policy == ScaleUniform {
		for s := range p.tw {
			kern.Stage(dst, p.tw[s], 2<<s, true)
		}
		return p.Stages(), nil
	}
	exp := 0
	mx := kern.AbsMax(dst)
	for s := range p.tw {
		// Pre-shift the block so this stage's worst-case growth fits Q15.
		sh := uint(0)
		for m := mx; m > bfpSafeMax; m >>= 1 {
			sh++
		}
		if sh > 0 {
			kern.ShiftRound(dst, sh)
			exp += int(sh)
		}
		mx = kern.Stage(dst, p.tw[s], 2<<s, false)
	}
	return exp, nil
}

// ForwardScaledBatch transforms every block in place under one policy
// and returns the per-block exponents. It resolves the kernel selection
// and reuses the plan tables across the whole batch: many channelizer
// hops or demodulate strips through one plan invocation.
func (p *FixedPlan) ForwardScaledBatch(blocks [][]fixed.Complex, policy ScalingPolicy) ([]int, error) {
	return p.ForwardScaledBatchWith(fixed.Active(), blocks, policy)
}

// ForwardScaledBatchWith is ForwardScaledBatch on an explicit kernel
// implementation. Each block is transformed in place; block i's tracked
// exponent lands in element i of the returned slice.
func (p *FixedPlan) ForwardScaledBatchWith(kern fixed.Kernels, blocks [][]fixed.Complex, policy ScalingPolicy) ([]int, error) {
	exps := make([]int, len(blocks))
	for i, b := range blocks {
		e, err := p.ForwardScaledWith(kern, b, b, policy)
		if err != nil {
			return nil, fmt.Errorf("fft: batch block %d: %w", i, err)
		}
		exps[i] = e
	}
	return exps, nil
}

// fixedRootsCache memoises FixedRoots tables per size, mirroring the
// float Roots cache.
var fixedRootsCache sync.Map // int -> []fixed.Complex

// FixedRoots returns the Q15-quantised roots-of-unity table of size n:
// entry i is e^{-j2πi/n} rounded to Q15. The fixed-point channelizer
// downconversion and SSCA derotation index it exactly like the float
// paths index Roots. The returned slice is shared and must not be
// modified.
func FixedRoots(n int) ([]fixed.Complex, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: FixedRoots size %d too small", n)
	}
	if v, ok := fixedRootsCache.Load(n); ok {
		return v.([]fixed.Complex), nil
	}
	roots, err := Roots(n)
	if err != nil {
		return nil, err
	}
	w := make([]fixed.Complex, n)
	for i, r := range roots {
		w[i] = fixed.CFromFloat(r)
	}
	actual, _ := fixedRootsCache.LoadOrStore(n, w)
	return actual.([]fixed.Complex), nil
}

// FixedWindow returns the analysis window of the given kind quantised to
// Q15 (window coefficients lie in [0, 1], so the quantisation is exact at
// the rails). Rectangular returns nil: no multiply is needed.
func FixedWindow(kind WindowKind, n int) ([]fixed.Q15, error) {
	if kind == Rectangular {
		return nil, nil
	}
	w, err := Window(kind, n)
	if err != nil {
		return nil, err
	}
	q := make([]fixed.Q15, n)
	for i, v := range w {
		q[i] = fixed.FromFloat(v)
	}
	return q, nil
}
