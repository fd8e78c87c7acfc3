package fam

import (
	"sort"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
)

// FAMQ15 is the Q15 fixed-point FFT Accumulation Method: the same
// channelizer geometry as FAM, but every arithmetic step runs on the
// 16-bit saturating datapath of internal/fixed — input quantisation with
// backoff, a block-floating-point channelizer FFT with tracked per-hop
// exponents, Q15 downconversion, and wide (int64) cell accumulation
// reduced to a Q15 surface by one surface-level rounding. The result is
// bit-exact deterministic: identical across runs, across any Workers
// setting, and across every fixed.Kernels implementation (the SWAR and
// scalar kernels agree to the bit by contract).
//
// Estimate returns the surface converted exactly into float-FAM units
// (so detectors and cross-checks are drop-in); EstimateQ15 exposes the
// underlying Q15 words and exponent. Stats charge the Montium Table-1
// kernel cycle model on top of the canonical mult counts and record the
// kernel implementation that ran in Stats.Kernel.
type FAMQ15 struct {
	// Params configures the channelizer and grid exactly as for FAM
	// (K=256, M=K/4, Hop=K/4, rectangular window by default; Blocks is
	// ignored — the smoothing length is derived from the input).
	Params scf.Params
	// Workers bounds the goroutines evaluating surface rows concurrently.
	// 0 means runtime.GOMAXPROCS(0); 1 forces the serial path. All
	// arithmetic is integer and each cell is written exactly once, so
	// every worker count produces bit-identical surfaces. Accumulators
	// always run serially.
	Workers int
	// InputScale is the peak amplitude the input is conditioned to
	// before Q15 quantisation — the word-level backoff of the paper's
	// section 4.1 dynamic-range argument, with the same semantics (and
	// the same 0.5 default, 6 dB of headroom) as core.Config.InputScale
	// on the platform path. Must lie in (0, 1]. The conditioning gain is
	// divided back out of the returned surface.
	InputScale float64
	// InputPeak, when positive, fixes the amplitude the conditioning
	// treats as full scale instead of measuring the peak of the samples
	// an estimate reads — the deterministic front end a fixed-gain ADC
	// presents. Samples beyond InputPeak saturate at the Q15 rails. Zero
	// measures the peak, in batch estimates and accumulator snapshots
	// alike.
	InputPeak float64
	// Policy selects the per-stage FFT scaling: fft.ScaleBFP (default,
	// block-floating-point with tracked exponents) or fft.ScaleUniform
	// (the Montium kernel's unconditional 1/2 per stage).
	Policy fft.ScalingPolicy
}

// Name implements scf.Estimator.
func (FAMQ15) Name() string { return "fam-q15" }

// Estimate implements scf.Estimator: the Q15 surface converted exactly
// into float-FAM units. Every intermediate, the QSurface included, is
// borrowed, so an estimate allocates little more than the float surface
// it returns.
func (e FAMQ15) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	c, err := e.kernel(e.Workers)
	if err != nil {
		return nil, nil, err
	}
	return c.Estimate(x)
}

// EstimateQ15 computes the surface in its native Q15-plus-exponent form:
// the window-bound accumulator's span fold run straight over x, so batch
// and windowed streaming estimates are one code path.
func (e FAMQ15) EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
	c, err := e.kernel(e.Workers)
	if err != nil {
		return nil, nil, err
	}
	return c.estimateQ15(x)
}

// kernel builds the fold kernel with the given second-stage worker count
// (0 = GOMAXPROCS).
func (e FAMQ15) kernel(workers int) (*q15Kernel, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return newQ15Kernel(p, false, 0, e.InputScale, e.InputPeak, e.Policy, workers)
}

// famFinish runs the second stage of the Q15 FAM over aligned hops: the
// aligned gather, the bin-0 dot products for the non-negative cycle rows,
// the exact Hermitian mirror into the negative rows, and the
// single-rounding reduction into out.
func (c *q15Kernel) famFinish(sc *q15Scratch, ch *q15Channelizer, gain float64, out *scf.QSurface) scf.Stats {
	p, np := c.p, len(ch.exps)
	// Every cell (f, a) is the full-precision sum over hops of
	// ch[f+a](n)·conj(ch[f-a](n)) — the bin-0 dot product of the second
	// FFT, like the float path — accumulated int64 at Q30. Only the
	// rows a >= 0 are evaluated; row -a is the exact termwise conjugate
	// of row +a, so mirrorHermitian fills it at accumulator precision.
	grid := sc.gridFor(c)
	// The rows are sorted by offset, so the a >= 0 rows are a suffix;
	// the ± row pairs read the same channels.
	first := sort.SearchInts(c.rowAlphas, 0)
	chv := ch.transposeWide(sc, c.needed)
	if c.workers == 1 {
		// Accumulators: no goroutines, and no closure to allocate.
		for i := first; i < len(c.rowAlphas); i++ {
			c.famRow(grid, chv, i)
		}
	} else {
		forEach(len(c.rowAlphas)-first, c.workers, func(i int) { c.famRow(grid, chv, first+i) })
	}
	grid.mirrorHermitian(c.rowAlphas)
	// Products of two aligned channels carry 2^(2·emax); 1/np and the
	// squared input conditioning gain are the residual gain.
	grid.reduce(2*ch.emax, surfaceGain(np, gain), out)
	cells := p.DSCFMults()
	return scf.Stats{
		Blocks: np,
		// The canonical operation model matches float FAM: a full P-point
		// second FFT charged per cell even though only bin 0 is evaluated
		// (and the mirror halves the evaluated rows — a measured, not
		// modeled, saving).
		FFTMults:  np*fft.ComplexMults(p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*p.K + cells*np,
		Cycles: ch.fftCy +
			montium.MACKernelCycles(ch.macCy+int64(cells)*int64(np)) +
			montium.ReadDataCycles(int64(c.rule().span(np))) +
			montium.AlignCycles(ch.aligned+int64(cells)),
		Kernel: c.kern.Name(),
	}
}

// famRow fills grid row i (offset a = rowAlphas[i] >= 0) with its dot
// products over the widened channels chv.
func (c *q15Kernel) famRow(grid *accGrid, chv [][]float64, i int) {
	m, mask := c.p.M-1, c.p.K-1
	a, row := c.rowAlphas[i], grid.data[i]
	pi := (a - m) & mask
	qi := (-a - m) & mask
	for fi := range row {
		re, im := c.kern.DotConjQ30(chv[pi], chv[qi])
		row[fi] = fixed.CAcc{Re: re, Im: im}
		pi = (pi + 1) & mask
		qi = (qi + 1) & mask
	}
}

var _ scf.Estimator = FAMQ15{}
