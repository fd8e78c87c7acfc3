package fam

import (
	"fmt"
	"math/cmplx"
	"strings"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/freelist"
	"tiledcfd/internal/scf"
)

// This file holds the span folds batch FAM.Estimate and SSCA.Estimate
// run, which their accumulators run too (FAMQ15 and SSCAQ15 have their
// twins in q15accumulator.go), and the smoothing rule all four share.
// Chunking tests in accumulator_test.go and window_test.go hold every
// push pattern to the one-shot bits.
//
// Every estimate, batch or streaming, is one span fold: the samples an
// estimate reads, folded in one pass. The smoothing length is a function
// of the input length (see smoothing), so the span is known once the
// input is. Each estimator streams through scf.NewSpanAccumulator with
// its kernel as the fold: the accumulator buffers samples and folds
// nothing until Snapshot, which runs Estimate's fold over the buffer. A
// window-bound accumulator (NewWindowAccumulator, which the windowed
// stream engine uses) knows its smoothing length up front, so it buffers
// only the span its window's estimate reads: (P-1)·Hop + K samples for
// the FAM's P hops, N + K - 1 for the SSCA's N-point strips.
// NewAccumulator returns the same accumulator uncapped (a fixed-N SSCA's
// is capped at its N + K - 1 samples). Either way Snapshot is Estimate
// over the buffer, so after n samples in any chunking a window-bound
// snapshot equals Estimate(x[:min(n, W)]) bit for bit. The fold's
// working set — the channel-major block and the sums of the FAM; the
// anchor spectra, difference and conjugate arrays and one fold column of
// the SSCA — is borrowed from a free list shared by every channel, so
// serving memory follows the folds running at once, not the channel
// count.
//
// The fold adds each cell's terms in one order — FAM parity sums by
// absolute hop, SSCA residue rows in hop order — so every path, in every
// chunking, gives the same bits. The float folds also reduce straight
// into the α-profile a served decision reads (EstimateProfile, which an
// accumulator's SnapshotProfile runs), with the profile's bits and no
// surface.
//
//   - FAM channelizes each block of up to foldBlockHops hops into one
//     channel-major block and sums each surface cell's channel-pair
//     products over the block.
//   - The SSCA channelizer is a sliding DFT re-anchored by one K-point
//     FFT every K hops. The span fold slides one channel at a time
//     through the span and sums its products folded modulo K into one
//     K-cell column, and one K-point FFT of that column writes the strip
//     bins the grid reads.

// smoothing is the rule every FAM and SSCA estimate, float or Q15,
// smooths by. Over n samples an estimate folds the largest power of two
// of the complete channelizer hops they hold (FAM hops; the SSCA's unit
// hops as its strip length), or an SSCA's fixed strip length N, and
// fails below least hops: two for the FAM, K for the SSCA. Kernels build
// it on demand from their geometry rather than hold it, so a channel's
// kernel stays as small as its geometry.
type smoothing struct {
	name   string // the estimator's name: "fam", "ssca-q15", ...
	k, hop int
	least  int // the fewest hops an estimate folds
	fixed  int // the SSCA's N; 0 derives the strip length from the input
}

// famSmoothing is the FAM's rule, for the geometry of a validated p.
func famSmoothing(name string, p scf.Params) smoothing {
	return smoothing{name: name, k: p.K, hop: p.Hop, least: 2}
}

// sscaSmoothing is the SSCA's rule for channelizer size k and strip
// length n (0 derives it; see checkStrip).
func sscaSmoothing(name string, k, n int) smoothing {
	return smoothing{name: name, k: k, hop: 1, least: k, fixed: n}
}

// checkStrip rejects an SSCA strip length n that is not 0 (derived) or a
// power of two >= k.
func checkStrip(name string, k, n int) error {
	if n != 0 && n < k {
		return fmt.Errorf("fam: %s strip length N=%d must be >= K=%d", strings.ToUpper(name), n, k)
	}
	if n != 0 && !fft.IsPow2(n) {
		return fmt.Errorf("fam: %s strip length N=%d must be a power of two", strings.ToUpper(name), n)
	}
	return nil
}

// hops returns the hops an estimate over n samples folds, or the
// too-short error.
func (s smoothing) hops(n int) (int, error) {
	if n < s.need() {
		return 0, needSamples(strings.ToUpper(s.name), s.need(), n)
	}
	if s.fixed != 0 {
		return s.fixed, nil
	}
	return pow2Floor((n-s.k)/s.hop + 1), nil
}

// span returns the samples np hops read.
func (s smoothing) span(np int) int { return (np-1)*s.hop + s.k }

// need returns the fewest samples an estimate reads.
func (s smoothing) need() int { return s.span(max(s.least, s.fixed)) }

// accumulator returns the span accumulator that folds with fold, capped
// at the span the window's estimate reads: N hops' span with N fixed,
// whatever the window, and uncapped when the window affords no estimate.
func (s smoothing) accumulator(fold scf.Estimator, window int) scf.Accumulator {
	span := 0
	if s.fixed != 0 {
		span = s.span(s.fixed)
	} else if np, err := s.hops(window); err == nil {
		span = s.span(np)
	}
	return scf.NewSpanAccumulator(fold, span, s.need())
}

// channelizer returns the K-point plan, twiddle table and analysis window
// (nil when rectangular) of a validated FAM geometry.
func channelizer(p scf.Params) (*fft.Plan, []complex128, []float64, error) {
	var win []float64
	if p.Window != fft.Rectangular {
		var err error
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, nil, nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, nil, nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, nil, nil, err
	}
	return plan, roots, win, nil
}

// NewAccumulator implements scf.StreamingEstimator: the accumulator of
// NewWindowAccumulator uncapped. It buffers every sample since Reset, so
// its memory grows with them, and each Snapshot folds pow2floor(hops)
// of them. Workers is ignored: accumulators fold on the caller's
// goroutine (streaming parallelism lives across channels, in the stream
// engine's worker pool).
func (e FAM) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// span the window's smoothing hops read, and Snapshot folds it. A window
// shorter than two hops gets the uncapped accumulator.
func (e FAM) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	c, err := newFAMKernel(e.Params, 1)
	if err != nil {
		return nil, err
	}
	return c.rule().accumulator(c, window), nil
}

var (
	_ scf.StreamingEstimator = FAM{}
	_ scf.WindowEstimator    = FAM{}
	_ scf.ProfileEstimator   = (*famKernel)(nil)
)

// famKernel is the geometry every FAM fold runs with. A fold channelizes
// a block of hops into one channel-major block (window, FFT and
// downconversion with the absolute-time reference), then adds the block
// to per-cell sums, cell by cell. Each cell is bin 0 of the P-point
// second FFT of its channel-pair product sequence, which is the plain
// sum Σ_n x_{f+a}(n)·conj(x_{f-a}(n)): an O(P) dot product in place of
// the O(P·logP) per-cell FFT (the neighbouring bins refine α between
// grid rows, so only bin 0 lands on the surface).
//
// The sums are split by hop parity (even hops in one sum, odd in the
// other): the two interleaved accumulators halve the floating-point add
// dependency chain the fold is latency-bound on, and fixing the split by
// absolute hop parity keeps the addition order, hence every surface bit,
// independent of how the hops were split into blocks. Only the a >= 0
// rows are summed; the surface mirrors the rest.
type famKernel struct {
	p       scf.Params
	workers int // goroutines sharing each block's rows (0 = GOMAXPROCS)
	plan    *fft.Plan
	roots   []complex128
	win     []float64
	// rowSet lists the a >= 0 rows the sums hold: 0..M-1, or only the
	// candidate rows under alpha pruning. Sums are row-major over it,
	// 2M-1 cells a row.
	rowSet []int
}

func newFAMKernel(params scf.Params, workers int) (*famKernel, error) {
	p := famDefaults(params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan, roots, win, err := channelizer(p)
	if err != nil {
		return nil, err
	}
	rowSet := p.CandidateRows()
	if rowSet == nil {
		rowSet = make([]int, p.M)
		for a := range rowSet {
			rowSet[a] = a
		}
	}
	return &famKernel{p: p, workers: workers, plan: plan, roots: roots, win: win, rowSet: rowSet}, nil
}

// Name implements scf.Estimator: the kernel is its accumulator's fold.
func (c *famKernel) Name() string { return "fam" }

// rule returns the kernel's smoothing rule.
func (c *famKernel) rule() smoothing { return famSmoothing(c.Name(), c.p) }

// cells returns the number of sums a fold keeps per parity.
func (c *famKernel) cells() int { return len(c.rowSet) * (2*c.p.M - 1) }

// foldBlockHops caps the hops one fold channelizes. Every window the
// benchmarks serve (at most 64 hops at the paper geometry) folds in one
// block; longer spans fold in 64-hop blocks, one grid pass each.
const foldBlockHops = 64

// famScratch is one running FAM fold's working memory, borrowed from
// famScratches for the fold's duration, so no channel keeps any.
type famScratch struct {
	blk  []complex128 // a block's channel-major cells, then K each for the FFT and the window
	odd  []complex128 // the odd-hop sums of a span longer than one block
	sums []complex128 // the sums of a span fold
}

var famScratches freelist.List[famScratch]

// fold channelizes hops [h0, h1), at most foldBlockHops of them, from
// src (src[0] is sample 0) into a channel-major block and adds every
// cell's products to its parity sums, rows shared across the workers.
// h0 is even. odd may be nil when last is set and the sums start at
// zero. Each cell is written by one worker only, so every worker count
// gives the same bits.
func (c *famKernel) fold(sc *famScratch, src []complex128, h0, h1 int, even, odd []complex128, last bool) error {
	k, hop, nb := c.p.K, c.p.Hop, h1-h0
	sc.blk = freelist.Grow(sc.blk, k*(nb+2))
	blk, spec, winbuf := sc.blk[:k*nb], sc.blk[k*nb:k*(nb+1)], sc.blk[k*(nb+1):]
	mask := k - 1
	for n := 0; n < nb; n++ {
		start := (h0 + n) * hop
		block := src[start : start+k]
		if c.win != nil {
			if err := fft.ApplyWindowInto(winbuf, block, c.win); err != nil {
				return err
			}
			block = winbuf
		}
		if err := c.plan.Forward(spec, block); err != nil {
			return err
		}
		// Downconvert with the absolute-time reference: the exponent
		// (start·v) mod k advances by start per channel, reduced with a
		// masked add (k is a power of two), exact for large start·v.
		step := start & mask
		idx := 0
		for v := 0; v < k; v++ {
			blk[v*nb+n] = spec[v] * c.roots[idx]
			idx = (idx + step) & mask
		}
	}
	if c.workers == 1 {
		// Accumulators: no goroutines, and no closure to allocate.
		for i := range c.rowSet {
			c.foldRow(i, blk, nb, even, odd, last)
		}
		return nil
	}
	forEach(len(c.rowSet), c.workers, func(i int) { c.foldRow(i, blk, nb, even, odd, last) })
	return nil
}

// foldRow adds one block's products to row i's parity sums: cell (f, a)
// gains x_{f+a}(n)·conj(x_{f-a}(n)) for each of the block's nb hops, even
// hops into even and odd hops into odd, each in arrival order. The
// block's first hop is even (blocks start foldBlockHops apart); last
// stores the two sums added in even. The loop allocates nothing.
func (c *famKernel) foldRow(i int, blk []complex128, nb int, even, odd []complex128, last bool) {
	a, m := c.rowSet[i], c.p.M-1
	// K is a power of two (Params.Validate), so the f±a bin wrap-around is
	// a masked increment instead of a per-cell modulo.
	mask := c.p.K - 1
	pi := (a - m) & mask
	qi := (-a - m) & mask
	cols := 2*m + 1
	c0 := even[i*cols : (i+1)*cols]
	var c1 []complex128 // nil: the odd sums start at zero
	if odd != nil {
		c1 = odd[i*cols : (i+1)*cols]
	}
	for fi := range c0 {
		cp := blk[pi*nb : pi*nb+nb]
		// Slicing cq to len(cp) lets the compiler drop its bounds checks.
		cq := blk[qi*nb : qi*nb+nb][:len(cp)]
		s0, s1 := c0[fi], complex128(0)
		if c1 != nil {
			s1 = c1[fi]
		}
		n := 0
		for ; n+1 < len(cp); n += 2 {
			s0 += cp[n] * cmplx.Conj(cq[n])
			s1 += cp[n+1] * cmplx.Conj(cq[n+1])
		}
		if n < len(cp) {
			s0 += cp[n] * cmplx.Conj(cq[n])
		}
		if last {
			c0[fi] = s0 + s1
		} else {
			c0[fi], c1[fi] = s0, s1
		}
		pi = (pi + 1) & mask
		qi = (qi + 1) & mask
	}
}

// foldSpan sets sums to the fold of hops [0, np) of src (src[0] is sample
// 0), in blocks of at most foldBlockHops hops, each cell's two parity
// sums added. A span of more than one block borrows its odd-hop sums
// from sc.
func (c *famKernel) foldSpan(sc *famScratch, sums, src []complex128, np int) error {
	clear(sums)
	var odd []complex128
	if np > foldBlockHops {
		sc.odd = freelist.Grow(sc.odd, len(sums))
		odd = sc.odd
		clear(odd)
	}
	for h0 := 0; h0 < np; h0 += foldBlockHops {
		h1 := min(np, h0+foldBlockHops)
		if err := c.fold(sc, src, h0, h1, sums, odd, h1 == np); err != nil {
			return err
		}
	}
	return nil
}

// Estimate implements scf.Estimator: the surface over the smoothing hops
// of x (x[0] is sample 0), folded in borrowed scratch. It is what
// FAM.Estimate and a FAM accumulator's Snapshot return.
func (c *famKernel) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	np, err := c.rule().hops(len(x))
	if err != nil {
		return nil, nil, err
	}
	sc := famScratches.Get()
	defer famScratches.Put(sc)
	sc.sums = freelist.Grow(sc.sums, c.cells())
	if err := c.foldSpan(sc, sc.sums, x, np); err != nil {
		return nil, nil, err
	}
	s, stats := c.surface(sc.sums, np)
	return s, stats, nil
}

// EstimateProfile implements scf.ProfileEstimator: the profile of
// Estimate's surface, taken from the sums with no surface built.
func (c *famKernel) EstimateProfile(x []complex128, dst *scf.Profile) error {
	np, err := c.rule().hops(len(x))
	if err != nil {
		return err
	}
	sc := famScratches.Get()
	defer famScratches.Put(sc)
	sc.sums = freelist.Grow(sc.sums, c.cells())
	if err := c.foldSpan(sc, sc.sums, x, np); err != nil {
		return err
	}
	c.profile(dst, sc.sums, np)
	return nil
}

// profile sets dst to the profile of surface(sums, np). The surface
// rows are the mirrors of rowSet, descending, then rowSet, so row i of
// the sums is profile row base+i and its mirror base-i. Each cell is
// the surface's v·(1/np), and a mirror row's conjugate cells have the
// same magnitudes exactly.
func (c *famKernel) profile(dst *scf.Profile, sums []complex128, np int) {
	inv := complex(1/float64(np), 0)
	dst.Reset(c.p.M, c.p.SurfaceAlphas())
	m := c.p.M - 1
	cols := 2*m + 1
	base := len(c.rowSet) - 1
	for i := range c.rowSet {
		for fi, v := range sums[i*cols : (i+1)*cols] {
			dst.Add(base+i, fi-m, v*inv)
		}
		dst.CopyRow(base-i, base+i)
	}
}

// surface normalises the sums of np hops by 1/np and mirrors the a < 0
// rows: the FAM surface is exactly Hermitian in α, since cell (f, -a)
// sums the termwise conjugates of cell (f, a)'s terms in the same order,
// and conjugation is exact.
func (c *famKernel) surface(sums []complex128, np int) (*scf.Surface, *scf.Stats) {
	inv := complex(1/float64(np), 0)
	s := scf.NewSurfaceFor(c.p)
	cols := 2*c.p.M - 1
	for i, a := range c.rowSet {
		row := s.Row(a)
		for fi, v := range sums[i*cols : (i+1)*cols] {
			row[fi] = v * inv
		}
	}
	s.MirrorHermitian()
	// Stats charge the canonical per-cell P-point second FFT, the
	// operation-count model of the paper's complexity comparison, even
	// though only its bin 0 is evaluated (model vs measured; see the
	// README). With alpha pruning the count covers only the held rows.
	cells := c.p.DSCFMults()
	stats := &scf.Stats{
		Blocks:    np,
		FFTMults:  np*fft.ComplexMults(c.p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*c.p.K + cells*np,
	}
	return s, stats
}

// NewAccumulator implements scf.StreamingEstimator: the accumulator of
// NewWindowAccumulator uncapped. It buffers every sample since Reset, so
// its memory grows with them, and each Snapshot folds the strip length
// they afford. With N set it is capped at the N+K-1 samples the fixed-N
// estimate reads, and later samples are dropped.
func (e SSCA) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it buffers the
// span of the window's strip length (N, or the smoothing's with N zero),
// and Snapshot folds it. With N zero, a window shorter than 2K-1 samples
// gets the uncapped accumulator.
func (e SSCA) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	c, err := newSSCAKernel(e)
	if err != nil {
		return nil, err
	}
	return c.rule().accumulator(c, window), nil
}

var (
	_ scf.StreamingEstimator = SSCA{}
	_ scf.WindowEstimator    = SSCA{}
	_ scf.ProfileEstimator   = (*sscaKernel)(nil)
)

// cosineTerms holds the analysis windows fft.Window builds in their
// periodic cosine-sum form w[n] = Σ_{t=-T..T} c_|t|·e^{j2πtn/K}, listed
// c_0..c_T: rectangular is c_0 = 1 alone, and each cosine of fft.Window
// contributes half its amplitude at ±t.
var cosineTerms = map[fft.WindowKind][]float64{
	fft.Rectangular: {1},
	fft.Hann:        {0.5, -0.25},
	fft.Hamming:     {0.54, -0.23},
	fft.Blackman:    {0.42, -0.25, 0.04},
}

// maxTaps bounds the taps of one windowed channel: 2T+1 for the widest
// window in cosineTerms.
const maxTaps = 5

// taps is one channel's sliding state at hop h: the modulated unwindowed
// neighbours z_t = e^{-j2πth/K}·Y_h[v-t], t in [-T, T], whose
// c_|t|-weighted sum is the windowed channel. z_0 comes first, then z_t
// and z_-t for t = 1..T.
type taps [maxTaps]complex128

// sscaKernel is the geometry every SSCA fold runs with. Hop h of the
// unit-hop channelizer reads samples [h, h+K). Channel v at hop h,
// downconverted with the absolute-time reference, is
//
//	Y_h[v] = Σ_{s=h}^{h+K-1} x[s]·e^{-j2πvs/K},
//
// a sliding DFT: Y_{h+1}[v] = Y_h[v] + (x[h+K] - x[h])·e^{-j2πvh/K}. An
// analysis window in cosine-sum form makes the windowed channel
// Σ_t c_|t|·e^{-j2πth/K}·Y_h[v-t], and each modulated neighbour slides
// as z_t ← e^{-j2πt/K}·(z_t + (x[h+K] - x[h])·e^{-j2πvh/K}): one shared
// increment per hop, one rotation per tap beyond the centre, and under
// the rectangular window (T = 0) one complex multiply-add per channel.
// At every hop h ≡ 0 (mod K) each modulation is 1, so the taps are
// exactly bins of the K-point FFT of x[h, h+K): the fold re-anchors
// there, which bounds the slide's rounding to K hops and makes every
// value a function of the absolute hop alone, whatever the chunking.
// Each channel's value multiplies the conjugate centre-aligned input
// sample, giving strip product p_v[h] = Y_h[v]·conj(x[h+K/2]).
//
// Cell (f, a) reads only strip bin q = (N/K)·j, j = (a-f) mod K, of the
// N-point strip FFT, and that bin equals bin j of the K-point DFT of the
// strip folded modulo K, y_v[r] = Σ_{h ≡ r mod K} p_v[h], because
// e^{-j2π·h·q/N} depends only on h mod K. At those bins the centre-shift
// derotation e^{-j2π·q·(K/2)/N} is (-1)^j. So a fold keeps only the
// residue fold, and one K-point FFT per strip turns it into cells.
type sscaKernel struct {
	p      scf.Params
	nFixed int // N; 0 derives the strip length from the input
	plan   *fft.Plan
	roots  []complex128
	terms  []float64 // the window's cosine-sum coefficients c_0..c_T

	rowAlphas []int // surface rows to fill: all of [-m, m], or the candidate set
	needed    []int // addressed channel indices
}

func newSSCAKernel(e SSCA) (*sscaKernel, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := checkStrip("ssca", p.K, e.N); err != nil {
		return nil, err
	}
	terms, ok := cosineTerms[p.Window]
	if !ok {
		return nil, fmt.Errorf("fam: SSCA has no cosine-sum form of window %v", p.Window)
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, err
	}
	c := &sscaKernel{p: p, nFixed: e.N, plan: plan, roots: roots, terms: terms, needed: make([]int, 0, p.K)}
	m := p.M - 1
	c.rowAlphas = p.SurfaceAlphas()
	if c.rowAlphas == nil {
		c.rowAlphas = make([]int, 2*m+1)
		for i := range c.rowAlphas {
			c.rowAlphas[i] = i - m
		}
	}
	// Only the channels the held rows address get strips: the residues
	// f+a mod K per row a — the full [-2m, 2m] band, or the candidate
	// strips under alpha pruning. rowAlphas ascends, so walking the union
	// of the rows' [a-m, a+m] once, in ascending order, meets each
	// residue first where a row-by-row scan over f would.
	seen := make([]bool, p.K)
	next := c.rowAlphas[0] - m // the lowest f+a not yet walked
	for _, a := range c.rowAlphas {
		for v := max(next, a-m); v <= a+m; v++ {
			if k := v & (p.K - 1); !seen[k] {
				seen[k] = true
				c.needed = append(c.needed, k)
			}
		}
		next = a + m + 1
	}
	return c, nil
}

// Name implements scf.Estimator: the kernel is its accumulator's fold.
func (c *sscaKernel) Name() string { return "ssca" }

// rule returns the kernel's smoothing rule.
func (c *sscaKernel) rule() smoothing { return sscaSmoothing(c.Name(), c.p.K, c.nFixed) }

// open sets channel v's taps at an anchor hop from the K-point FFT of
// the hop's samples: there every modulation is 1, so z_t = spec[v-t].
func (c *sscaKernel) open(z *taps, spec []complex128, v int) {
	mask := c.p.K - 1
	z[0] = spec[v]
	for t := 1; t < len(c.terms); t++ {
		z[2*t-1], z[2*t] = spec[(v-t)&mask], spec[(v+t)&mask]
	}
}

// value returns the windowed channel c_0·z_0 + Σ_{t>0} c_t·(z_t + z_-t).
// Under the rectangular window (c_0 = 1) it is z_0 exactly.
func (c *sscaKernel) value(z *taps) complex128 {
	w := c.terms
	y := complex(w[0]*real(z[0]), w[0]*imag(z[0]))
	for i, wi := range w[1:] {
		s := z[2*i+1] + z[2*i+2]
		y += complex(wi*real(s), wi*imag(s))
	}
	return y
}

// slide advances a channel's taps one hop, e being the hop's increment
// (x[h+K] - x[h])·e^{-j2πvh/K}: z_t ← e^{-j2πt/K}·(z_t + e).
func (c *sscaKernel) slide(z *taps, e complex128) {
	k := c.p.K
	z[0] += e
	for t := 1; t < len(c.terms); t++ {
		z[2*t-1] = c.roots[t] * (z[2*t-1] + e)
		z[2*t] = c.roots[k-t] * (z[2*t] + e)
	}
}

// run carries channel v through the K hops of one anchor block, adding
// hop r's product to col[r]: it opens the taps from the block's anchor
// spectrum spec and slides them through the block. At block hop r
// (absolute hop h), d[r] is x[h+K] - x[h] and xc[r] is conj(x[h+K/2]).
// Every value is a function of the block's anchor and samples alone, so
// the bits do not depend on the chunking.
func (c *sscaKernel) run(col, spec, d, xc []complex128, v int) {
	var z taps
	c.open(&z, spec, v)
	col[0] += c.value(&z) * xc[0]
	k, mask := c.p.K, c.p.K-1
	roots := c.roots
	idx := 0 // v·(r-1) mod K: the rotation of hop r's increment
	// Slicing to len(col) lets the compiler drop the bounds checks.
	col = col[1:k]
	d, x := d[:k-1][:len(col)], xc[1:k][:len(col)]
	// The rectangular and 3-term cases run slide and value inlined, on
	// taps held in registers: the same operations on the same operands.
	switch len(c.terms) {
	case 1:
		y := z[0]
		for r := range col {
			y += d[r] * roots[idx]
			col[r] += y * x[r]
			idx = (idx + v) & mask
		}
	case 2: // Hann, Hamming
		w0, w1, rp, rm := c.terms[0], c.terms[1], roots[1], roots[k-1]
		z0, zp, zm := z[0], z[1], z[2]
		for r := range col {
			e := d[r] * roots[idx]
			z0 += e
			zp = rp * (zp + e)
			zm = rm * (zm + e)
			y := complex(w0*real(z0), w0*imag(z0))
			s := zp + zm
			y += complex(w1*real(s), w1*imag(s))
			col[r] += y * x[r]
			idx = (idx + v) & mask
		}
	default:
		for r := range col {
			c.slide(&z, d[r]*roots[idx])
			col[r] += c.value(&z) * x[r]
			idx = (idx + v) & mask
		}
	}
}

// sscaCells is where a span fold writes its cells: the surface sf, or,
// with sf nil, the rows of prof. A profile row takes its cells in
// ascending f. The strips walk the residues f+a in ascending order from
// the lowest row's a-m, which gives every row its cells in order but
// one: at the 4(M-1) = K edge, residue -2(M-1) is also the top row's
// f+a = 2(M-1), so that row's last cell (f = a = M-1) comes first. That
// cell therefore waits in top and joins its row after every strip.
type sscaCells struct {
	sf   *scf.Surface
	prof *scf.Profile
	top  complex128
}

// strip writes channel v's cells into dst from its residue fold col (K
// cells, transformed in place by one K-point FFT): cell (f, a) reads bin
// j = (a-f) mod K of strip f+a, derotated by (-1)^j and scaled by 1/N.
func (c *sscaKernel) strip(dst *sscaCells, col []complex128, v, n int) error {
	if err := c.plan.Forward(col, col); err != nil {
		return err
	}
	k, mask, m := c.p.K, c.p.K-1, c.p.M-1
	inv := complex(1/float64(n), 0)
	// Row a reads strip v at column f ≡ v-a (mod K), when |f| <= m; 2m <
	// K, so there is at most one such column.
	for ri, a := range c.rowAlphas {
		f := (v - a) & mask
		if f > m {
			if f -= k; f < -m {
				continue
			}
		}
		j := (a - f) & mask
		cell := col[j]
		if j&1 == 1 {
			cell = -cell
		}
		cell *= inv
		switch {
		case dst.sf != nil:
			dst.sf.Data[ri][f+m] = cell
		case f == m && a == m:
			dst.top = cell
		default:
			dst.prof.Add(ri, f, cell)
		}
	}
	return nil
}

// stats reports the canonical N-point strip model (see doc.go).
func (c *sscaKernel) stats(n int) *scf.Stats {
	k, nn := c.p.K, len(c.needed)
	return &scf.Stats{
		Blocks:    n,
		FFTMults:  n*fft.ComplexMults(k) + nn*fft.ComplexMults(n),
		DSCFMults: n*k + nn*n,
	}
}

// sscaScratch is one running SSCA span fold's working memory, borrowed
// from sscaScratches for the fold's duration, so no channel keeps any:
// 3N + K cells, about 52 KB at K=256, N=1024.
type sscaScratch struct {
	anchors []complex128 // the N/K anchor spectra, K cells each
	diff    []complex128 // x[h+K] - x[h] per hop: what a slide adds
	xc      []complex128 // conj(x[h+K/2]) per hop: each product's factor
	col     []complex128 // one channel's K-cell residue fold
}

var sscaScratches freelist.List[sscaScratch]

// Estimate implements scf.Estimator: the surface over the strip length
// x affords (N, or the smoothing's with N zero) and its stats. It is
// what SSCA.Estimate and an SSCA accumulator's Snapshot return, and the
// surface and stats are all it allocates.
func (c *sscaKernel) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	n, err := c.rule().hops(len(x))
	if err != nil {
		return nil, nil, err
	}
	sf := scf.NewSurfaceFor(c.p)
	if err := c.spanFold(&sscaCells{sf: sf}, x, n); err != nil {
		return nil, nil, err
	}
	return sf, c.stats(n), nil
}

// EstimateProfile implements scf.ProfileEstimator: the profile of
// Estimate's surface, each cell added to its row as a strip writes it,
// with no surface built. It allocates nothing.
func (c *sscaKernel) EstimateProfile(x []complex128, dst *scf.Profile) error {
	n, err := c.rule().hops(len(x))
	if err != nil {
		return err
	}
	var held []int // the full plane's rows: nil
	if c.p.Pruned() {
		held = c.rowAlphas
	}
	dst.Reset(c.p.M, held)
	cells := sscaCells{prof: dst}
	if err := c.spanFold(&cells, x, n); err != nil {
		return err
	}
	if top := len(c.rowAlphas) - 1; c.rowAlphas[top] == c.p.M-1 {
		dst.Add(top, c.p.M-1, cells.top)
	}
	return nil
}

// spanFold writes the cells over the first n >= K hops of src (src[0]
// is sample 0; n a power of two) into dst, one channel at a time,
// folding in borrowed scratch.
func (c *sscaKernel) spanFold(dst *sscaCells, src []complex128, n int) error {
	sc := sscaScratches.Get()
	defer sscaScratches.Put(sc)
	k := c.p.K
	sc.anchors = freelist.Grow(sc.anchors, n)
	sc.diff = freelist.Grow(sc.diff, n)
	sc.xc = freelist.Grow(sc.xc, n)
	sc.col = freelist.Grow(sc.col, k)
	for h0 := 0; h0 < n; h0 += k {
		if err := c.plan.Forward(sc.anchors[h0:h0+k], src[h0:h0+k]); err != nil {
			return err
		}
	}
	for h := range sc.xc {
		sc.xc[h] = cmplx.Conj(src[h+k/2])
	}
	// No block slides past its last hop (the next one re-anchors), so the
	// difference at hop n-1, past the span's end, is never read.
	for h := range n - 1 {
		sc.diff[h] = src[h+k] - src[h]
	}
	col := sc.col
	for _, v := range c.needed {
		clear(col)
		for h0 := 0; h0 < n; h0 += k {
			c.run(col, sc.anchors[h0:h0+k], sc.diff[h0:h0+k], sc.xc[h0:h0+k], v)
		}
		if err := c.strip(dst, col, v, n); err != nil {
			return err
		}
	}
	return nil
}
