package fam

import (
	"errors"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
)

// SSCAQ15 is the Q15 fixed-point Strip Spectral Correlation Analyzer:
// the same strip geometry as SSCA on the 16-bit saturating datapath —
// quantised input with backoff, a block-floating-point sliding
// channelizer with tracked per-hop exponents, Q15 strip products against
// the conjugate full-rate input, block-floating-point N-point strip FFTs
// with per-strip exponents, and a lossless (left-shift) exponent merge
// into one int64 grid reduced to a Q15 surface by a single surface-level
// rounding. Bit-exact deterministic across runs, Workers settings and
// fixed.Kernels implementations; Stats.Kernel records which kernels ran.
type SSCAQ15 struct {
	// Params configures the channelizer and grid exactly as for SSCA
	// (K=256, M=K/4, rectangular window by default; Hop and Blocks are
	// ignored — the SSCA channelizer advances one sample per hop).
	Params scf.Params
	// N is the strip FFT length (power of two >= K). Zero selects the
	// largest power of two with N+K-1 <= len(x).
	N int
	// Workers bounds the goroutines computing strips concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path. Strips
	// are independent integer computations, so every worker count
	// produces bit-identical surfaces. Accumulators always run serially.
	Workers int
	// InputScale is the peak amplitude the input is conditioned to
	// before Q15 quantisation, as for FAMQ15 (0 = 0.5).
	InputScale float64
	// InputPeak, when positive, fixes the conditioning full-scale
	// reference instead of measuring the batch peak, as for
	// FAMQ15.InputPeak; required (non-zero) by NewAccumulator.
	InputPeak float64
	// Policy selects the per-stage FFT scaling, as for FAMQ15.
	Policy fft.ScalingPolicy
}

// Name implements scf.Estimator.
func (SSCAQ15) Name() string { return "ssca-q15" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: a K-length strip needs 2K-1 samples.
func (e SSCAQ15) MinSamples() int {
	p := famDefaults(e.Params, 1)
	n := e.N
	if n < p.K {
		n = p.K
	}
	return n + p.K - 1
}

// Estimate implements scf.Estimator: the Q15 surface converted exactly
// into float-SSCA units.
func (e SSCAQ15) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	q, stats, err := e.EstimateQ15(x)
	if err != nil {
		return nil, nil, err
	}
	return q.Float(), stats, nil
}

// EstimateQ15 computes the surface in its native Q15-plus-exponent form:
// the accumulator bound to len(x) run over x.
func (e SSCAQ15) EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
	acc, err := e.newAccumulator(len(x), e.Workers)
	if err != nil {
		return nil, nil, err
	}
	if e.InputPeak == 0 {
		acc.front.measure(x)
	}
	if err := acc.Push(x); err != nil {
		return nil, nil, err
	}
	return acc.SnapshotQ15()
}

// sscaQ15Finish runs the second stage of the Q15 SSCA on a channelized
// snapshot: the aligned gather, the per-channel strip FFTs shared across
// the workers, derotation, the lossless exponent merge into the int64 grid, and the single-rounding
// surface reduction. xq must hold at least n + K/2 quantised samples
// (the conjugate factor's span).
func sscaQ15Finish(p scf.Params, kern fixed.Kernels, ch *q15Channelizer, xq []fixed.Complex, gain float64, workers, need int, policy fft.ScalingPolicy) (*scf.QSurface, *scf.Stats, error) {
	n := len(ch.hops)
	emax, aligned := ch.emax, ch.aligned
	// The conjugate input factor is centre-aligned with the channelizer
	// window (same group-delay argument as the float path) and shared by
	// every strip. It is plain quantised input: exponent zero.
	centre := p.K / 2
	xc := make([]fixed.Complex, n)
	for i := range xc {
		xc[i] = fixed.Conj(xq[i+centre])
	}
	m := p.M - 1
	// The held rows (full plane, or the candidate set under alpha
	// pruning) determine which channels need strips: residues f+a mod K
	// per row a — exactly as the float SSCA prunes.
	rowAlphas := p.SurfaceAlphas()
	if rowAlphas == nil {
		rowAlphas = make([]int, 2*m+1)
		for i := range rowAlphas {
			rowAlphas[i] = i - m
		}
	}
	needed := neededChannels(p.K, m, rowAlphas, false)
	planN, err := fft.NewFixedPlan(n)
	if err != nil {
		return nil, nil, err
	}
	rootsN, err := fft.FixedRoots(n)
	if err != nil {
		return nil, nil, err
	}
	// The channel-major series become the strips in place: the Q15
	// product against xc, the N-point block-floating-point FFT, and the
	// per-bin derotation by e^{-j2πq·centre/N} through the Q15 roots.
	strips := ch.transpose(needed)
	stripExp := make([]int, p.K)
	errs := make([]error, len(needed))
	forEach(len(needed), workers, func(i int) {
		k := needed[i]
		kern.MulElems(strips[k], strips[k], xc)
		stripExp[k], errs[i] = planN.ForwardScaledWith(kern, strips[k], strips[k], policy)
		kern.MulRoots(strips[k], strips[k], rootsN, 0, centre, n-1)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, nil, err
	}
	// Merge the per-strip exponents losslessly: every cell value is
	// widened to int64 and left-shifted up to the common scale 2^Emin
	// (strip k's true value is q15·2^(emax+e_k), so the strip with the
	// smallest exponent defines the finest grid). The surface-level
	// reduction then rounds once.
	eMin := 0
	for i, k := range needed {
		ek := emax + stripExp[k]
		if i == 0 || ek < eMin {
			eMin = ek
		}
	}
	grid := newAccGridFor(p)
	for i, a := range rowAlphas {
		row := grid.data[i]
		for f := -m; f <= m; f++ {
			k := fft.BinIndex(p.K, f+a)
			u := strips[k][fft.BinIndex(n, n/p.K*(a-f))]
			sh := uint(emax + stripExp[k] - eMin)
			row[f+m] = fixed.CAcc{
				Re: int64(u.Re) << sh,
				Im: int64(u.Im) << sh,
			}
		}
	}
	// Cell int64 = float·(n·gain²)·2^(15-Emin); reduce expects
	// 2^(30-accExp), so accExp = 15+Emin.
	s := grid.reduce(15+eMin, surfaceGain(n, gain))
	cells := int64(p.DSCFMults())
	stats := &scf.Stats{
		Blocks:    n,
		FFTMults:  n*fft.ComplexMults(p.K) + len(needed)*fft.ComplexMults(n),
		DSCFMults: n*p.K + len(needed)*n,
		Cycles: ch.fftCy +
			int64(len(needed))*montiumFFTCycles(n) +
			montium.MACKernelCycles(ch.macCy+2*int64(len(needed))*int64(n)) +
			montium.ReadDataCycles(int64(need)) +
			montium.AlignCycles(aligned+cells),
		Kernel: kern.Name(),
	}
	// The batch backend runs the whole pipeline on one modeled tile;
	// internal/tile schedules fill multi-tile breakdowns.
	stats.PerTile = []scf.TileCycles{{Tile: 0, Compute: stats.Cycles}}
	return s, stats, nil
}

var _ scf.Estimator = SSCAQ15{}
