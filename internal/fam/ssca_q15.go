package fam

import (
	"errors"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/freelist"
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
	// reference instead of measuring the peak, as for FAMQ15.InputPeak.
	InputPeak float64
	// Policy selects the per-stage FFT scaling, as for FAMQ15.
	Policy fft.ScalingPolicy
}

// Name implements scf.Estimator.
func (SSCAQ15) Name() string { return "ssca-q15" }

// Estimate implements scf.Estimator: the Q15 surface converted exactly
// into float-SSCA units, every intermediate borrowed as for FAMQ15.
func (e SSCAQ15) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	c, err := e.kernel(e.Workers)
	if err != nil {
		return nil, nil, err
	}
	return c.Estimate(x)
}

// EstimateQ15 computes the surface in its native Q15-plus-exponent form:
// the window-bound accumulator's span fold run straight over x.
func (e SSCAQ15) EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
	c, err := e.kernel(e.Workers)
	if err != nil {
		return nil, nil, err
	}
	return c.estimateQ15(x)
}

// kernel builds the fold kernel with the given strip worker count
// (0 = GOMAXPROCS).
func (e SSCAQ15) kernel(workers int) (*q15Kernel, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkStrip("ssca-q15", p.K, e.N); err != nil {
		return nil, err
	}
	return newQ15Kernel(p, true, e.N, e.InputScale, e.InputPeak, e.Policy, workers)
}

// sscaFinish runs the second stage of the Q15 SSCA over aligned hops:
// the aligned gather, the per-channel strip FFTs shared across the
// workers, derotation, the lossless exponent merge into the int64 grid,
// and the single-rounding reduction into out. xq must hold at least
// n + K/2 quantised samples from sample 0 (the conjugate factor's span).
func (c *q15Kernel) sscaFinish(sc *q15Scratch, ch *q15Channelizer, xq []fixed.Complex, gain float64, out *scf.QSurface) (scf.Stats, error) {
	p, n := c.p, len(ch.exps)
	// The conjugate input factor is centre-aligned with the channelizer
	// window (same group-delay argument as the float path) and shared by
	// every strip. It is plain quantised input: exponent zero.
	centre := p.K / 2
	sc.xc = freelist.Grow(sc.xc, n)
	for i := range sc.xc {
		sc.xc[i] = fixed.Conj(xq[i+centre])
	}
	m := p.M - 1
	planN, err := fft.FixedPlanFor(n)
	if err != nil {
		return scf.Stats{}, err
	}
	rootsN, err := fft.FixedRoots(n)
	if err != nil {
		return scf.Stats{}, err
	}
	// The channel-major series become the strips in place: the Q15
	// product against xc, the N-point block-floating-point FFT, and the
	// per-bin derotation by e^{-j2πq·centre/N} through the Q15 roots.
	// Only the channels the held rows address get strips.
	strips := ch.transpose(sc, c.needed)
	sc.stripExp = freelist.Grow(sc.stripExp, p.K)
	sc.errs = freelist.Grow(sc.errs, len(c.needed))
	if c.workers == 1 {
		// Accumulators: no goroutines, and no closure to allocate.
		for i := range c.needed {
			c.strip(sc, planN, rootsN, strips, i)
		}
	} else {
		forEach(len(c.needed), c.workers, func(i int) { c.strip(sc, planN, rootsN, strips, i) })
	}
	if err := errors.Join(sc.errs...); err != nil {
		return scf.Stats{}, err
	}
	// Merge the per-strip exponents losslessly: every cell value is
	// widened to int64 and left-shifted up to the common scale 2^Emin
	// (strip k's true value is q15·2^(emax+e_k), so the strip with the
	// smallest exponent defines the finest grid). The surface-level
	// reduction then rounds once.
	emax, stripExp := ch.emax, sc.stripExp
	eMin := 0
	for i, k := range c.needed {
		ek := emax + stripExp[k]
		if i == 0 || ek < eMin {
			eMin = ek
		}
	}
	grid := sc.gridFor(c)
	for i, a := range c.rowAlphas {
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
	grid.reduce(15+eMin, surfaceGain(n, gain), out)
	cells := int64(p.DSCFMults())
	nn := len(c.needed)
	return scf.Stats{
		Blocks:    n,
		FFTMults:  n*fft.ComplexMults(p.K) + nn*fft.ComplexMults(n),
		DSCFMults: n*p.K + nn*n,
		Cycles: ch.fftCy +
			int64(nn)*montiumFFTCycles(n) +
			montium.MACKernelCycles(ch.macCy+2*int64(nn)*int64(n)) +
			montium.ReadDataCycles(int64(c.rule().span(n))) +
			montium.AlignCycles(ch.aligned+cells),
		Kernel: c.kern.Name(),
	}, nil
}

// strip turns gathered channel needed[i] into its strip in place: the
// product against the conjugate factor, the N-point FFT (its exponent
// into sc.stripExp) and the derotation.
func (c *q15Kernel) strip(sc *q15Scratch, planN *fft.FixedPlan, rootsN []fixed.Complex, strips [][]fixed.Complex, i int) {
	k, n := c.needed[i], len(sc.xc)
	c.kern.MulElems(strips[k], strips[k], sc.xc)
	sc.stripExp[k], sc.errs[i] = planN.ForwardScaledWith(c.kern, strips[k], strips[k], c.policy)
	c.kern.MulRoots(strips[k], strips[k], rootsN, 0, c.p.K/2, n-1)
}

var _ scf.Estimator = SSCAQ15{}
