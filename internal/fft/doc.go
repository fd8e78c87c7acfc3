// Package fft provides the discrete Fourier transforms used throughout the
// reproduction: a float64 radix-2 FFT for reference computations, a slow
// reference DFT for testing, and a Q15 fixed-point FFT that is
// bit-identical to the FFT kernel executed by the Montium core model.
//
// # Conventions
//
// The forward transform uses the engineering sign convention
//
//	X[v] = Σ_{k=0}^{K-1} x[k] · e^{-j2πkv/K}
//
// and applies no normalisation; the inverse applies 1/K. The paper's
// expression 2 uses e^{+j…}, which is the global complex conjugate of this
// convention; the Discrete Spectral Correlation Function magnitudes are
// unaffected (see docs/PAPER_MAPPING.md).
//
// # Caching
//
// All float64 transform state is cached process-wide and shared:
//
//   - Roots(n) returns the e^{-j2πi/n} roots-of-unity table for size n,
//     computed once. It doubles as the derotation/downconversion table the
//     estimator hot paths index (Roots(n)[p mod n] = e^{-j2πp/n} for any
//     integer p, reduced exactly in integer arithmetic) instead of calling
//     cmplx.Exp per sample. RootIdx reduces negative exponents.
//   - PlanFor(n) returns the shared immutable Plan for size n; the
//     estimators' float transforms route through it. Plans are safe for
//     concurrent use.
//   - GetScratch/PutScratch pool length-n work buffers, keeping repeated
//     estimator calls at zero steady-state scratch allocation.
//
// NewPlan remains available for callers that want a private plan.
//
// The fixed-point transform (FixedPlan) scales by 1/2 after every
// butterfly stage, so its output is DFT(x)/K. This is the unconditional
// block-scaling policy used by 16-bit DSP FFT kernels to make overflow
// impossible, and it is the policy assumed by the paper's 1040-cycle
// 256-point Montium FFT. The same fixed.BFly primitive is used here and in
// internal/montium so the two implementations agree bit for bit.
package fft
