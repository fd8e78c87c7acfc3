package fam

import (
	"fmt"
	"slices"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/freelist"
	"tiledcfd/internal/scf"
)

// This file implements scf.Accumulator for FAMQ15 and SSCAQ15, and the
// span fold batch EstimateQ15 runs: the Q15 twins of accumulator.go's
// float shapes.
//
// The fixed-point front door is the obstacle the float accumulators do
// not have: a batch estimate with InputPeak zero conditions the input
// against the peak of the samples it reads, which an incremental path
// cannot know. Streaming accumulators therefore require InputPeak, the
// fixed full-scale reference a real ADC front end presents, so
// quantisation is a pure per-sample map. NewAccumulator rejects
// estimators without it.
//
// The second obstacle is block floating point: every hop carries its
// own exponent, and the common scale emax is a function of ALL hops an
// estimate reads, so per-cell running sums cannot be kept (a new hop
// with a larger exponent would retroactively re-scale every earlier
// product). Alignment and the second stage therefore run once the last
// hop's exponent is known.
//
// An accumulator quantises and buffers samples and folds nothing until
// Snapshot. A window-bound accumulator (NewWindowAccumulator, which the
// windowed stream engine uses) knows its smoothing up front, so it knows
// the span its window's estimate reads: (P-1)·Hop + K samples for the
// FAM-Q15's P hops, N + K - 1 for the SSCA-Q15's N-point strips. It
// buffers that span quantised, at 4 bytes a sample, and nothing past it,
// so until Reset it holds exactly its quantised span and no result.
// NewAccumulator returns the same accumulator uncapped (an SSCA-Q15 with
// N set is capped at its N + K - 1 samples): it buffers every quantised
// sample since Reset. Snapshot folds the smoothing the buffered hops
// afford, the window's once its span is complete: it channelizes every
// hop into a bank borrowed from a free list shared by every channel,
// aligns the exponents, runs the second stage into borrowed scratch and
// reduces it into the surface it returns. Batch Estimate and EstimateQ15
// run the same span fold straight over their input, every intermediate
// borrowed. A hop's block-floating-point FFT does not depend on when it
// runs, and alignment, the second stage and the single-rounding reduce
// read the hops in one order, so every chunking gives the same bits.

// q15Kernel is the geometry, tables and front end every Q15 fold runs
// with: the fixed-gain quantiser, the K-point channelizer and the grid
// rows the second stage fills. The kernel implementation is captured
// once (fixed.Active() at construction), so a process-wide fixed.Use
// switch mid-stream cannot mix kernels within one accumulator's
// lifetime.
type q15Kernel struct {
	p       scf.Params
	ssca    bool // SSCA-Q15: unit hop, strip second stage; FAM-Q15 otherwise
	nFixed  int  // SSCA-Q15's N; 0 derives the strip length from the input
	kern    fixed.Kernels
	plan    *fft.FixedPlan
	roots   []fixed.Complex
	win     []fixed.Q15
	policy  fft.ScalingPolicy
	backoff float64
	peak    float64 // InputPeak; 0 conditions each batch on its measured peak
	workers int     // goroutines the second stage runs on (0 = GOMAXPROCS)

	gridAlphas []int // the pruned grid's rows; nil when dense
	rowAlphas  []int // the grid's rows, ascending: gridAlphas or all of [-(M-1), M-1]
	needed     []int // the channels the second stage gathers, ascending
}

// newQ15Kernel builds the kernel for a defaulted, validated geometry.
func newQ15Kernel(p scf.Params, ssca bool, nFixed int, scale, peak float64, policy fft.ScalingPolicy, workers int) (*q15Kernel, error) {
	backoff, err := q15Backoff(scale)
	if err != nil {
		return nil, err
	}
	if peak, err = q15InputPeak(peak); err != nil {
		return nil, err
	}
	win, err := fft.FixedWindow(p.Window, p.K)
	if err != nil {
		return nil, err
	}
	plan, err := fft.FixedPlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.FixedRoots(p.K)
	if err != nil {
		return nil, err
	}
	c := &q15Kernel{
		p:       p,
		ssca:    ssca,
		nFixed:  nFixed,
		kern:    fixed.Active(),
		plan:    plan,
		roots:   roots,
		win:     win,
		policy:  policy,
		backoff: backoff,
		peak:    peak,
		workers: workers,
	}
	m := p.M - 1
	c.gridAlphas = p.SurfaceAlphas()
	c.rowAlphas = c.gridAlphas
	if c.rowAlphas == nil {
		c.rowAlphas = make([]int, 2*m+1)
		for i := range c.rowAlphas {
			c.rowAlphas[i] = i - m
		}
	}
	c.needed = neededChannels(p.K, m, c.rowAlphas, !ssca)
	return c, nil
}

// requireInputPeak rejects a streaming accumulator without InputPeak.
func requireInputPeak(peak float64, name string) error {
	if peak == 0 {
		return fmt.Errorf("fam: %s streaming requires InputPeak: the batch path conditions against the measured input peak, which an incremental path cannot know", name)
	}
	return nil
}

// Name implements scf.Accumulator for both Q15 accumulators.
func (c *q15Kernel) Name() string {
	if c.ssca {
		return "ssca-q15"
	}
	return "fam-q15"
}

// hopsIn returns the complete channelizer hops n samples hold.
func (c *q15Kernel) hopsIn(n int) int {
	if n < c.p.K {
		return 0
	}
	return (n-c.p.K)/c.p.Hop + 1
}

// smoothing returns the hops an estimate over the first hops channelizer
// hops folds — the FAM-Q15's largest power of two of at least two, the
// SSCA-Q15's N or largest power of two of at least K — or 0 when they
// afford no estimate.
func (c *q15Kernel) smoothing(hops int) int {
	if c.nFixed != 0 {
		if hops >= c.nFixed {
			return c.nFixed
		}
		return 0
	}
	least := 2
	if c.ssca {
		least = c.p.K
	}
	if n := pow2Floor(hops); n >= least {
		return n
	}
	return 0
}

// spanOf returns the samples np hops read.
func (c *q15Kernel) spanOf(np int) int { return (np-1)*c.p.Hop + c.p.K }

// needErr is the error of a snapshot or estimate over too few samples.
func (c *q15Kernel) needErr(have int) error {
	if !c.ssca {
		return needSamples("FAM-Q15", c.p.K+c.p.Hop, have)
	}
	need := 2*c.p.K - 1
	if c.nFixed != 0 {
		need = c.nFixed + c.p.K - 1
	}
	return needSamples("SSCA-Q15", need, have)
}

// gainFor returns the conditioning gain that brings full scale peak to
// the backoff, or 0 for a zero peak (every word then quantises to 0, and
// the surface is exactly zero).
func (c *q15Kernel) gainFor(peak float64) float64 {
	if peak == 0 {
		return 0
	}
	return c.backoff / peak
}

// quantise writes src conditioned by gain and rounded to Q15 into dst.
func quantise(dst []fixed.Complex, src []complex128, gain float64) {
	g := complex(gain, 0)
	for i, s := range src {
		dst[i] = fixed.CFromFloat(s * g)
	}
}

// channelize computes the hop starting at sample start from its K
// quantised samples block into row and returns its exponent: window, FFT
// under the policy, and downconversion with the absolute-time reference
// e^{-j2π·start·v/K}, exactly as the float channelizer but through the
// Q15 roots.
func (c *q15Kernel) channelize(row, block []fixed.Complex, start int) (int, error) {
	if c.win != nil {
		c.kern.ScaleReal(row, block, c.win)
	} else {
		copy(row, block)
	}
	exp, err := c.plan.ForwardScaledWith(c.kern, row, row, c.policy)
	if err != nil {
		return 0, err
	}
	c.kern.MulRoots(row, row, c.roots, 0, start&(c.p.K-1), c.p.K-1)
	return exp, nil
}

// q15Scratch is one running Q15 fold's working memory, borrowed from
// q15Scratches for the fold's duration, so no channel and no batch call
// keeps any.
type q15Scratch struct {
	xq       []fixed.Complex   // a batch estimate's quantised span
	bank     []fixed.Complex   // the span's channelized hops, hop-major
	exps     []int             // their exponents
	rows     [][]fixed.Complex // transpose's channel rows (the SSCA strips)
	cells    []fixed.Complex
	wideRows [][]float64 // transposeWide's channel rows (the FAM)
	wide     []float64
	xc       []fixed.Complex // the SSCA conjugate factor
	stripExp []int
	errs     []error
	accRows  [][]fixed.CAcc
	acc      []fixed.CAcc
	grid     accGrid
	surf     *scf.QSurface // Estimate's surface before Float
}

var q15Scratches freelist.List[q15Scratch]

// gridFor lays the accumulator grid of c's rows out over the scratch.
func (sc *q15Scratch) gridFor(c *q15Kernel) *accGrid {
	cols, rows := 2*c.p.M-1, len(c.rowAlphas)
	sc.acc = freelist.Grow(sc.acc, rows*cols)
	sc.accRows = freelist.Grow(sc.accRows, rows)
	for i := range sc.accRows {
		sc.accRows[i] = sc.acc[i*cols : (i+1)*cols : (i+1)*cols]
	}
	sc.grid = accGrid{m: c.p.M, alphas: c.gridAlphas, data: sc.accRows}
	return &sc.grid
}

// newQSurface allocates a QSurface of the kernel's grid rows.
func (c *q15Kernel) newQSurface() *scf.QSurface {
	if c.gridAlphas == nil {
		return scf.NewQSurface(c.p.M)
	}
	return scf.NewSparseQSurface(c.p.M, c.gridAlphas)
}

// scratchSurface returns the scratch's QSurface, reallocated when it was
// laid out for another geometry.
func (c *q15Kernel) scratchSurface(sc *q15Scratch) *scf.QSurface {
	if sc.surf == nil || sc.surf.M != c.p.M || !slices.Equal(sc.surf.Alphas, c.gridAlphas) {
		sc.surf = c.newQSurface()
	}
	return sc.surf
}

// fold sets out to the surface over the smoothing the quantised xq
// affords (xq[0] is sample 0) and returns its stats, or the too-short
// error: it channelizes the hops into a bank borrowed from sc, aligns
// their exponents, runs the estimator's second stage into scratch
// borrowed from sc and reduces it into out. The SSCA's conjugate factor
// reads xq too.
func (c *q15Kernel) fold(sc *q15Scratch, xq []fixed.Complex, gain float64, out *scf.QSurface) (*scf.Stats, error) {
	np := c.smoothing(c.hopsIn(len(xq)))
	if np == 0 {
		return nil, c.needErr(len(xq))
	}
	k, hop := c.p.K, c.p.Hop
	sc.bank = freelist.Grow(sc.bank, np*k)
	sc.exps = freelist.Grow(sc.exps, np)
	for h := range np {
		start := h * hop
		exp, err := c.channelize(sc.bank[h*k:(h+1)*k], xq[start:start+k], start)
		if err != nil {
			return nil, err
		}
		sc.exps[h] = exp
	}
	ch := q15Channelizer{
		k:     k,
		bank:  sc.bank,
		exps:  sc.exps,
		fftCy: int64(np) * montiumFFTCycles(k),
		macCy: int64(np) * int64(k),
	}
	if c.win != nil {
		ch.macCy *= 2
	}
	for _, e := range ch.exps {
		ch.emax = max(ch.emax, e)
	}
	for _, e := range ch.exps {
		if e != ch.emax {
			ch.aligned += int64(k)
		}
	}
	if !c.ssca {
		return q15Stats(c.famFinish(sc, &ch, gain, out)), nil
	}
	st, err := c.sscaFinish(sc, &ch, xq, gain, out)
	if err != nil {
		return nil, err
	}
	return q15Stats(st), nil
}

// q15Stats returns st with its whole cost charged to tile 0: the batch
// backend runs the pipeline on one modeled tile (internal/tile schedules
// fill multi-tile breakdowns).
func q15Stats(st scf.Stats) *scf.Stats {
	st.PerTile = []scf.TileCycles{{Tile: 0, Compute: st.Cycles}}
	return &st
}

// estimateQ15 is batch EstimateQ15: the span fold over x in borrowed
// scratch, into a QSurface the caller keeps.
func (c *q15Kernel) estimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error) {
	sc := q15Scratches.Get()
	defer q15Scratches.Put(sc)
	out := c.newQSurface()
	stats, err := c.estimateInto(sc, x, out)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// estimate is batch Estimate: estimateQ15 into a borrowed QSurface, so
// only its float conversion is allocated.
func (c *q15Kernel) estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	sc := q15Scratches.Get()
	defer q15Scratches.Put(sc)
	out := c.scratchSurface(sc)
	stats, err := c.estimateInto(sc, x, out)
	if err != nil {
		return nil, nil, err
	}
	return out.Float(), stats, nil
}

// estimateInto quantises the span the estimate over x reads into sc,
// conditioned against InputPeak or, when that is zero, the span's
// measured peak, and folds it into out.
func (c *q15Kernel) estimateInto(sc *q15Scratch, x []complex128, out *scf.QSurface) (*scf.Stats, error) {
	np := c.smoothing(c.hopsIn(len(x)))
	if np == 0 {
		return nil, c.needErr(len(x))
	}
	span := x[:c.spanOf(np)]
	peak := c.peak
	if peak == 0 {
		peak = peakOf(span)
	}
	gain := c.gainFor(peak)
	sc.xq = freelist.Grow(sc.xq, len(span))
	quantise(sc.xq, span, gain)
	return c.fold(sc, sc.xq, gain, out)
}

// newAccumulator returns the accumulator capped at the span of window
// samples' smoothing (an SSCA-Q15 with N set: at N hops' span), or
// uncapped when the window affords no estimate.
func (c *q15Kernel) newAccumulator(window int) scf.Accumulator {
	np := c.nFixed
	if np == 0 {
		np = c.smoothing(c.hopsIn(window))
	}
	return &q15Window{q15Kernel: c, gain: c.gainFor(c.peak), np: np}
}

// NewAccumulator implements scf.StreamingEstimator: the accumulator of
// NewWindowAccumulator uncapped. It requires InputPeak > 0 (see the file
// comment: batch quantisation conditions against the measured peak,
// which a stream cannot know; set the same InputPeak on the batch
// estimator to compare the two bit for bit). Workers is ignored:
// snapshots run serially on the caller's goroutine. Memory grows by 4
// bytes per sample pushed since Reset.
func (e FAMQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// quantised span the window's famHopCap hops read, and Snapshot folds
// it. A window shorter than two hops gets the uncapped accumulator.
func (e FAMQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	if err := requireInputPeak(e.InputPeak, "FAM-Q15"); err != nil {
		return nil, err
	}
	c, err := e.kernel(1)
	if err != nil {
		return nil, err
	}
	return c.newAccumulator(window), nil
}

var (
	_ scf.StreamingEstimator = FAMQ15{}
	_ scf.WindowEstimator    = FAMQ15{}
)

// NewAccumulator implements scf.StreamingEstimator, with the same
// InputPeak requirement as FAMQ15.NewAccumulator: the accumulator of
// NewWindowAccumulator uncapped, growing by 4 bytes per sample pushed
// since Reset. With N set it is capped at the N+K-1 samples the fixed-N
// estimate reads, and later samples are dropped.
func (e SSCAQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// quantised span of the window's strip length (N, or sscaStripCap with N
// zero), and Snapshot folds it. With N zero, a window shorter than 2K-1
// samples gets the uncapped accumulator.
func (e SSCAQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	if err := requireInputPeak(e.InputPeak, "SSCA-Q15"); err != nil {
		return nil, err
	}
	c, err := e.kernel(1)
	if err != nil {
		return nil, err
	}
	return c.newAccumulator(window), nil
}

var (
	_ scf.StreamingEstimator = SSCAQ15{}
	_ scf.WindowEstimator    = SSCAQ15{}
)

// q15Window is the Q15 accumulator: the quantised span its window's np
// hops read, or, uncapped (np 0), every sample since Reset.
type q15Window struct {
	*q15Kernel
	gain  float64
	np    int             // the window's smoothing: FAM-Q15 hops, SSCA-Q15 strip length
	span  []fixed.Complex // the quantised samples so far; cap spanOf(np) when capped
	total int
}

// Samples implements scf.Accumulator.
func (w *q15Window) Samples() int { return w.total }

// HeldBytes returns the bytes the accumulator holds: its quantised
// span's capacity, 4 B (two Q15 words) a sample. The stream engine
// counts it into a channel's held memory.
func (w *q15Window) HeldBytes() int { return 4 * cap(w.span) }

// Ready implements scf.Accumulator.
func (w *q15Window) Ready() bool { return w.smoothing(w.hopsIn(len(w.span))) != 0 }

// Push implements scf.Accumulator: it quantises the chunk's share of the
// span; samples past the span are counted and dropped. Uncapped, it
// quantises the whole chunk.
func (w *q15Window) Push(samples []complex128) error {
	w.total += len(samples)
	if w.np != 0 {
		if w.span == nil {
			w.span = make([]fixed.Complex, 0, w.spanOf(w.np))
		}
		samples = samples[:min(len(samples), cap(w.span)-len(w.span))]
	}
	n := len(w.span)
	w.span = slices.Grow(w.span, len(samples))[:n+len(samples)]
	quantise(w.span[n:], samples, w.gain)
	return nil
}

// SnapshotQ15 returns the surface in its native Q15-plus-exponent form:
// the smoothing the buffered hops afford, the window's np once its span
// is complete, folded on demand.
func (w *q15Window) SnapshotQ15() (*scf.QSurface, *scf.Stats, error) {
	sc := q15Scratches.Get()
	defer q15Scratches.Put(sc)
	out := w.newQSurface()
	stats, err := w.fold(sc, w.span, w.gain, out)
	if err != nil {
		return nil, nil, err
	}
	return out, stats, nil
}

// Snapshot implements scf.Accumulator: SnapshotQ15 folded into a
// borrowed QSurface and converted exactly into float units, allocating
// only the float surface and its stats.
func (w *q15Window) Snapshot() (*scf.Surface, *scf.Stats, error) {
	sc := q15Scratches.Get()
	defer q15Scratches.Put(sc)
	out := w.scratchSurface(sc)
	stats, err := w.fold(sc, w.span, w.gain, out)
	if err != nil {
		return nil, nil, err
	}
	return out.Float(), stats, nil
}

// Reset implements scf.Accumulator: the span buffer stays allocated for
// the next window.
func (w *q15Window) Reset() {
	w.span = w.span[:0]
	w.total = 0
}
