package fam

import "tiledcfd/internal/scf"

// SSCA is the Strip Spectral Correlation Analyzer estimator: a K-point
// channelizer sliding one sample at a time, each channel demodulate
// multiplied against the conjugate full-rate input, and one N-point
// strip FFT per channel. Channel k, strip bin q estimates the SCF at
// frequency f = k/(2K) - q/(2N) and cycle frequency α = k/K + q/N;
// surface cell (f, a) reads channel k = f+a at bin q = N·(a-f)/K.
//
// The implementation runs no K-point FFT per sample hop: the unit-hop
// channelizer is a sliding DFT, one complex multiply-add per channel per
// hop, re-anchored by one exact K-point FFT every K hops, and an analysis
// window is applied as its cosine-sum combination of neighbouring
// channels. The grid reads only every (N/K)-th strip bin, so each strip
// is folded modulo K and a K-point FFT replaces the N-point one (see
// sscaKernel). The estimate is the canonical one up to floating-point
// rounding.
//
// The strip length N must be a power of two and a multiple of K so that
// every grid cell lands exactly on a strip bin; both hold automatically
// for any power of two N >= K. The zero value estimates with the paper's
// geometry (K=256, M=64) and picks the largest N the input affords.
type SSCA struct {
	// Params configures the channelizer and grid. K is the channelizer
	// size, M the surface half-extent, Window the channelizer analysis
	// window. Hop and Blocks are ignored: the SSCA channelizer advances
	// one sample per hop and smooths over the whole strip.
	Params scf.Params
	// N is the strip FFT length (power of two >= K). Zero selects the
	// largest power of two with N+K-1 <= len(x).
	N int
}

// Name implements scf.Estimator.
func (SSCA) Name() string { return "ssca" }

// Estimate implements scf.Estimator: the span fold of the window-bound
// accumulator run straight over x, in scratch borrowed for the call, so
// batch and windowed streaming estimates are one code path and an
// estimate allocates only its surface and stats. With N zero it picks
// the largest N the input affords.
func (e SSCA) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	c, err := newSSCAKernel(e)
	if err != nil {
		return nil, nil, err
	}
	return c.Estimate(x)
}

// WithAlphaCandidates implements scf.CandidateEstimator.
func (e SSCA) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	p, err := withCandidates(e.Params, 1, alphas)
	if err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var (
	_ scf.Estimator          = SSCA{}
	_ scf.CandidateEstimator = SSCA{}
)
