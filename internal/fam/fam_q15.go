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
	// treats as full scale instead of measuring the batch peak — the
	// deterministic front end a fixed-gain ADC presents, and the setting
	// NewAccumulator requires (a streaming path cannot know the future
	// peak). Samples beyond InputPeak saturate at the Q15 rails. Zero
	// keeps the measured-peak batch behaviour.
	InputPeak float64
	// Policy selects the per-stage FFT scaling: fft.ScaleBFP (default,
	// block-floating-point with tracked exponents) or fft.ScaleUniform
	// (the Montium kernel's unconditional 1/2 per stage).
	Policy fft.ScalingPolicy
}

// Name implements scf.Estimator.
func (FAMQ15) Name() string { return "fam-q15" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: two channelizer hops.
func (e FAMQ15) MinSamples() int {
	p := famDefaults(e.Params, 0)
	return p.K + p.Hop
}

// Estimate implements scf.Estimator: the Q15 surface converted exactly
// into float-FAM units.
func (e FAMQ15) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	q, stats, err := e.EstimateQ15(x)
	if err != nil {
		return nil, nil, err
	}
	return q.Float(), stats, nil
}

// EstimateQ15 computes the surface in its native Q15-plus-exponent form:
// the accumulator bound to len(x) run over x.
func (e FAMQ15) EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
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

// famQ15Finish runs the second stage of the Q15 FAM on a channelized
// snapshot: the aligned gather, the bin-0 dot products for the
// non-negative cycle rows, the exact Hermitian mirror into the negative
// rows, and the single-rounding surface reduction.
func famQ15Finish(p scf.Params, kern fixed.Kernels, ch *q15Channelizer, gain float64, workers, need int) (*scf.QSurface, *scf.Stats, error) {
	np := len(ch.hops)
	emax, aligned := ch.emax, ch.aligned
	// Every cell (f, a) is the full-precision sum over hops of
	// ch[f+a](n)·conj(ch[f-a](n)) — the bin-0 dot product of the second
	// FFT, like the float path — accumulated int64 at Q30. Only the
	// rows a >= 0 are evaluated; row -a is the exact termwise conjugate
	// of row +a, so mirrorHermitian fills it at accumulator precision.
	m := p.M - 1
	grid := newAccGridFor(p)
	rowAlphas := grid.rowAlphas()
	// The rows are sorted by offset, so the a >= 0 rows are a suffix;
	// the ± row pairs read the same channels.
	first := sort.SearchInts(rowAlphas, 0)
	chv := ch.transposeWide(neededChannels(p.K, m, rowAlphas, true))
	mask := p.K - 1
	forEach(len(rowAlphas)-first, workers, func(i int) {
		a, row := rowAlphas[first+i], grid.data[first+i]
		pi := (a - m) & mask
		qi := (-a - m) & mask
		for fi := range row {
			re, im := kern.DotConjQ30(chv[pi], chv[qi])
			row[fi] = fixed.CAcc{Re: re, Im: im}
			pi = (pi + 1) & mask
			qi = (qi + 1) & mask
		}
	})
	grid.mirrorHermitian(rowAlphas)
	// Products of two aligned channels carry 2^(2·emax); 1/np and the
	// squared input conditioning gain are the residual gain.
	s := grid.reduce(2*emax, surfaceGain(np, gain))
	cells := p.DSCFMults()
	stats := &scf.Stats{
		Blocks: np,
		// The canonical operation model matches float FAM: a full P-point
		// second FFT charged per cell even though only bin 0 is evaluated
		// (and the mirror halves the evaluated rows — a measured, not
		// modeled, saving).
		FFTMults:  np*fft.ComplexMults(p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*p.K + cells*np,
		Cycles: ch.fftCy +
			montium.MACKernelCycles(ch.macCy+int64(cells)*int64(np)) +
			montium.ReadDataCycles(int64(need)) +
			montium.AlignCycles(aligned+int64(cells)),
		Kernel: kern.Name(),
	}
	// The batch backend runs the whole pipeline on one modeled tile;
	// internal/tile schedules fill multi-tile breakdowns.
	stats.PerTile = []scf.TileCycles{{Tile: 0, Compute: stats.Cycles}}
	return s, stats, nil
}

var _ scf.Estimator = FAMQ15{}
