// Package scf implements the Discrete Spectral Correlation Function
// (DSCF) of the paper — the computational heart of Cyclostationary Feature
// Detection — in three mutually validating forms:
//
//   - Compute: the FFT-accumulation reference in float64, implementing
//     expressions 1–3 of the paper: per block n an FFT of K samples with
//     the absolute-time phase reference, then accumulation of
//     S_f^a += X_{n,f+a}·conj(X_{n,f-a}) over N blocks, normalised by 1/N.
//   - ComputeDirect: a brute-force evaluation of expression 2 (direct DFT
//     with the (n+k) absolute-time exponent) used as ground truth in tests.
//   - ComputeFixed: a bit-true Q15 version using the same fixed-point FFT
//     and the same saturating in-memory accumulation as the Montium
//     hardware model; the systolic-array and tiled-SoC simulations are
//     verified to match it bit for bit.
//
// Grid conventions follow the paper: for a K-point spectrum the frequency
// f and frequency offset a each range over [-(M-1), +(M-1)] with
// M = K/4 (so K = 256 gives f, a in [-63, +63] and a 127x127 surface).
// The cycle frequency associated with offset a is alpha = 2a (in bin
// units), i.e. alpha_Hz = 2a·fs/K. Note the paper's section 3.3 states
// "P = 2M+1" but its own numbers (127 processors for ±63) correspond to
// P = 2M-1; we follow the numbers (see docs/PAPER_MAPPING.md).
//
// The surface satisfies the Hermitian symmetry S_f^{-a} = conj(S_f^a),
// which the property tests assert for all three implementations.
//
// # Estimator taxonomy
//
// Compute is one member of a family: the Estimator interface abstracts
// over every way of estimating the spectral-correlation surface, and the
// rest of the system (detectors, scanners, the core pipeline) consumes
// estimators rather than this package's functions directly.
//
//   - Direct (this package) wraps Compute: a K-point FFT per
//     integration block plus one complex product per grid cell per
//     block, always serial. Cheapest on the paper's fixed (2M-1)² grid; cycle-frequency
//     resolution is the grid's own 2/K.
//   - fam.FAM (package fam) is the FFT Accumulation Method: overlapping
//     windowed channelizer hops, downconversion, and a P-point second
//     FFT across hops per cell. Trades extra FFT work for α-resolution
//     1/(P·L) and the smoothing behaviour preferred on short records.
//   - fam.SSCA (package fam) is the Strip Spectral Correlation Analyzer:
//     a sliding channelizer multiplied against the conjugate full-rate
//     signal, one N-point strip FFT per channel, α-resolution 1/N.
//
// Use Direct when only the grid matters, FAM/SSCA when cycle-frequency
// resolution or classical time-smoothing estimates do. All three agree
// on feature locations (cross-checked in package fam's tests), and the
// CFD detection statistic is self-normalising, so estimators can be
// swapped without recalibrating for scale.
package scf
