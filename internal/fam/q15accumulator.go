package fam

import (
	"slices"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/freelist"
	"tiledcfd/internal/scf"
)

// This file holds the span fold batch Estimate and EstimateQ15 run for
// FAMQ15 and SSCAQ15, which their accumulators run too: the Q15 twin of
// accumulator.go's float folds, under the same smoothing rule.
//
// The fold quantises inside, so a Q15 accumulator buffers float samples
// like the float ones and streams with InputPeak zero too: each
// snapshot conditions the span it folds against its own measured peak,
// exactly as Estimate(x[:W]) does, and with InputPeak set against that
// fixed full scale.
//
// Block floating point is why the fold runs once per estimate: every hop
// carries its own exponent, and the common scale emax is a function of
// ALL hops an estimate reads, so per-cell running sums cannot be kept (a
// new hop with a larger exponent would retroactively re-scale every
// earlier product). The fold quantises the span into a buffer borrowed
// from a free list shared by every channel, channelizes every hop into a
// borrowed bank, aligns the exponents, runs the second stage into
// borrowed scratch and reduces it into the surface it returns. A hop's
// block-floating-point FFT does not depend on when it runs, and
// alignment, the second stage and the single-rounding reduce read the
// hops in one order, so every chunking gives the same bits.

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
	peak    float64 // InputPeak; 0 conditions each estimate on its span's measured peak
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

// Name implements scf.Estimator: the kernel is its accumulator's fold.
func (c *q15Kernel) Name() string {
	if c.ssca {
		return "ssca-q15"
	}
	return "fam-q15"
}

// rule returns the kernel's smoothing rule: the float twin's.
func (c *q15Kernel) rule() smoothing {
	if c.ssca {
		return sscaSmoothing(c.Name(), c.p.K, c.nFixed)
	}
	return famSmoothing(c.Name(), c.p)
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

// Estimate implements scf.Estimator: estimateQ15 into a borrowed
// QSurface, so only its float conversion is allocated. It is what batch
// Estimate and a Q15 accumulator's Snapshot return.
func (c *q15Kernel) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
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
// measured peak, and folds it into out: it channelizes the hops into a
// bank borrowed from sc, aligns their exponents, runs the estimator's
// second stage into scratch borrowed from sc and reduces it into out.
// The SSCA's conjugate factor reads the quantised span too.
func (c *q15Kernel) estimateInto(sc *q15Scratch, x []complex128, out *scf.QSurface) (*scf.Stats, error) {
	rule := c.rule()
	np, err := rule.hops(len(x))
	if err != nil {
		return nil, err
	}
	span := x[:rule.span(np)]
	peak := c.peak
	if peak == 0 {
		peak = peakOf(span)
	}
	gain := c.gainFor(peak)
	sc.xq = freelist.Grow(sc.xq, len(span))
	xq := sc.xq
	quantise(xq, span, gain)
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

// NewAccumulator implements scf.StreamingEstimator: the accumulator of
// NewWindowAccumulator uncapped, buffering every sample since Reset at
// 16 bytes a sample. Each Snapshot conditions the samples it folds as
// Estimate would (see the file comment), so a snapshot equals Estimate
// over the samples pushed, with InputPeak zero too. Workers is ignored:
// snapshots run serially on the caller's goroutine.
func (e FAMQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// span the window's smoothing hops read, and Snapshot quantises and
// folds it. A window shorter than two hops gets the uncapped
// accumulator.
func (e FAMQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	c, err := e.kernel(1)
	if err != nil {
		return nil, err
	}
	return c.rule().accumulator(c, window), nil
}

// WithAlphaCandidates implements scf.CandidateEstimator as for FAM.
func (e FAMQ15) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	p, err := withCandidates(e.Params, 0, alphas)
	if err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var (
	_ scf.StreamingEstimator = FAMQ15{}
	_ scf.WindowEstimator    = FAMQ15{}
	_ scf.CandidateEstimator = FAMQ15{}
)

// NewAccumulator implements scf.StreamingEstimator as for FAMQ15: the
// accumulator of NewWindowAccumulator uncapped. With N set it is capped
// at the N+K-1 samples the fixed-N estimate reads, and later samples are
// dropped.
func (e SSCAQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// span of the window's strip length (N, or the smoothing's with N zero),
// and Snapshot quantises and folds it. With N zero, a window shorter
// than 2K-1 samples gets the uncapped accumulator.
func (e SSCAQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	c, err := e.kernel(1)
	if err != nil {
		return nil, err
	}
	return c.rule().accumulator(c, window), nil
}

// WithAlphaCandidates implements scf.CandidateEstimator as for SSCA.
func (e SSCAQ15) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	p, err := withCandidates(e.Params, 1, alphas)
	if err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var (
	_ scf.StreamingEstimator = SSCAQ15{}
	_ scf.WindowEstimator    = SSCAQ15{}
	_ scf.CandidateEstimator = SSCAQ15{}
)
