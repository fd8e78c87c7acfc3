package fam

import "tiledcfd/internal/scf"

// SSCA is the Strip Spectral Correlation Analyzer estimator: a K-point
// channelizer sliding one sample at a time, each channel demodulate
// multiplied against the conjugate full-rate input, and one N-point
// strip FFT per channel. Channel k, strip bin q estimates the SCF at
// frequency f = k/(2K) - q/(2N) and cycle frequency α = k/K + q/N;
// surface cell (f, a) reads channel k = f+a at bin q = N·(a-f)/K.
//
// The grid reads only every (N/K)-th strip bin, so the implementation
// folds each strip modulo K and runs a K-point FFT in place of the
// N-point one (see sscaAccumulator); the estimate is the same up to
// floating-point summation order.
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

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: a K-length strip needs 2K-1 samples.
func (e SSCA) MinSamples() int {
	p := famDefaults(e.Params, 1)
	n := e.N
	if n < p.K {
		n = p.K
	}
	return n + p.K - 1
}

// Estimate implements scf.Estimator: the accumulator bound to len(x)
// run over x, so batch and streaming estimates are one code path. With N
// zero it picks the largest N the input affords.
func (e SSCA) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	acc, err := e.NewWindowAccumulator(len(x))
	if err != nil {
		return nil, nil, err
	}
	if err := acc.Push(x); err != nil {
		return nil, nil, err
	}
	return acc.Snapshot()
}

// WithAlphaCandidates implements scf.CandidateEstimator.
func (e SSCA) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	if len(alphas) == 0 {
		return e, nil
	}
	p := famDefaults(e.Params, 1)
	p.AlphaCandidates = append([]int(nil), alphas...)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var _ scf.Estimator = SSCA{}
