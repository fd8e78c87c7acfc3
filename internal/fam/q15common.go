package fam

import (
	"fmt"
	"math"
	"math/bits"

	"tiledcfd/internal/fixed"
	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
)

// defaultBackoff is the input conditioning applied before Q15
// quantisation when the estimator's InputScale is zero: half scale,
// leaving 6 dB of headroom — the same default core.Run applies on the
// platform path.
const defaultBackoff = 0.5

// q15Backoff validates and defaults an InputScale field.
func q15Backoff(scale float64) (float64, error) {
	if scale == 0 {
		return defaultBackoff, nil
	}
	if scale < 0 || scale > 1 || math.IsNaN(scale) {
		return 0, fmt.Errorf("fam: InputScale %v outside (0, 1]", scale)
	}
	return scale, nil
}

// q15InputPeak validates an InputPeak field: zero means "measure the
// peak from the batch input"; a positive finite value fixes the
// conditioning reference (required for streaming).
func q15InputPeak(peak float64) (float64, error) {
	if peak < 0 || math.IsNaN(peak) || math.IsInf(peak, 0) {
		return 0, fmt.Errorf("fam: InputPeak %v must be finite and >= 0", peak)
	}
	return peak, nil
}

// peakOf returns the largest real or imaginary magnitude in x: the full
// scale a batch Q15 estimate conditions its input against when
// InputPeak is zero.
func peakOf(x []complex128) float64 {
	var peak float64
	for _, c := range x {
		if v := math.Abs(real(c)); v > peak {
			peak = v
		}
		if v := math.Abs(imag(c)); v > peak {
			peak = v
		}
	}
	return peak
}

// surfaceGain folds the input conditioning gain and the smoothing-length
// normalisation into the QSurface residual gain: 1/(smooth·gain²), or 0
// for an all-zero input (gain 0).
func surfaceGain(smooth int, gain float64) float64 {
	if gain == 0 {
		return 0
	}
	return 1 / (float64(smooth) * gain * gain)
}

// q15Channelizer is a snapshot's view of the banked fixed-point
// channelizer: hops K-point windowed block-floating-point FFTs, each
// channel downconverted by the Q15 roots table. Storage is hop-major and
// read-only: hops[n][v] is channel v of hop n, valued DFT_channel/
// 2^exps[n] (each hop carries its own tracked exponent). The gathers
// (transpose, transposeWide) renormalise every value to the common
// exponent emax = max(exps) as they read it, so the bank is never
// copied or shifted in place.
type q15Channelizer struct {
	k       int
	hops    [][]fixed.Complex
	exps    []int
	emax    int
	aligned int64 // values renormalised (the alignment pass's cycle cost)
	fftCy   int64 // modeled FFT kernel cycles spent
	macCy   int64 // modeled complex-MAC cycles spent (window + downconversion)
}

// transpose gathers the listed channels into channel-major series,
// aligning as it reads: out[v][n] = hops[n][v] >> (emax-exps[n]), with
// the round-half-up shift of fixed.CRShiftRound (kern.ShiftRound's
// semantics). Only channels in
// needed are materialised (out keeps nil rows elsewhere), so pruned runs
// pay for exactly the channels their rows read. needed must be sorted
// ascending for cache-friendly reads; duplicates are not allowed.
func (c *q15Channelizer) transpose(needed []int) [][]fixed.Complex {
	blocks := len(c.hops)
	out := make([][]fixed.Complex, c.k)
	cells := make([]fixed.Complex, len(needed)*blocks)
	for _, v := range needed {
		out[v], cells = cells[:blocks:blocks], cells[blocks:]
	}
	// Blocked over hops so each pass reuses the same small set of source
	// cache lines across the whole channel list instead of streaming the
	// full hop-major array once per channel (or thrashing writes the
	// other way around).
	const tile = 32
	for n0 := 0; n0 < blocks; n0 += tile {
		n1 := min(n0+tile, blocks)
		for _, v := range needed {
			row := out[v]
			for n := n0; n < n1; n++ {
				row[n] = fixed.CRShiftRound(c.hops[n][v], uint(c.emax-c.exps[n]))
			}
		}
	}
	return out
}

// transposeWide is transpose with the output rows pre-widened into the
// fixed.WidenRow float64 layout fixed.Kernels.DotConjQ30 consumes:
// out[v][2n], out[v][2n+1] = re, im of aligned channel v at hop n,
// exact. The FAM second stage runs thousands of dots over a few hundred
// channel rows, so widening once here amortises the integer-to-float
// conversion to nothing.
func (c *q15Channelizer) transposeWide(needed []int) [][]float64 {
	blocks := len(c.hops)
	out := make([][]float64, c.k)
	cells := make([]float64, 2*len(needed)*blocks)
	for _, v := range needed {
		out[v], cells = cells[:2*blocks:2*blocks], cells[2*blocks:]
	}
	const tile = 32
	for n0 := 0; n0 < blocks; n0 += tile {
		n1 := min(n0+tile, blocks)
		for _, v := range needed {
			row := out[v]
			for n := n0; n < n1; n++ {
				h := fixed.CRShiftRound(c.hops[n][v], uint(c.emax-c.exps[n]))
				row[2*n] = float64(h.Re)
				row[2*n+1] = float64(h.Im)
			}
		}
	}
	return out
}

// neededChannels returns the sorted set of channelizer bins the given
// grid rows read: residues (f+a) mod k for every row a and f in
// [-m, m], plus the (f-a) residues when mirror is set (the FAM dot
// products read both factors; SSCA strips only read f+a).
func neededChannels(k, m int, rows []int, mirror bool) []int {
	seen := make([]bool, k)
	mask := k - 1
	for _, a := range rows {
		for f := -m; f <= m; f++ {
			seen[(f+a)&mask] = true
			if mirror {
				seen[(f-a)&mask] = true
			}
		}
	}
	needed := make([]int, 0, k)
	for v, ok := range seen {
		if ok {
			needed = append(needed, v)
		}
	}
	return needed
}

// accGrid is a full-precision int64 accumulator grid (Q30 units), the
// wide intermediate both fixed backends reduce to a QSurface with one
// surface-level block-floating-point rounding. Under alpha pruning the
// grid holds only the candidate rows (alphas non-nil, data[i] the row
// for a = alphas[i]); the reduction then derives the surface exponent
// from the computed cells alone, so a pruned QSurface is bit-exact
// deterministic and converts exactly, but its raw words need not match
// a full-plane run whose peak lives on an uncomputed row.
type accGrid struct {
	m      int
	alphas []int          // nil = dense rows a in [-(m-1), m-1]
	data   [][]fixed.CAcc // data[rowIndex][f+m-1]
}

func newAccGrid(m int) *accGrid {
	n := 2*m - 1
	data := make([][]fixed.CAcc, n)
	cells := make([]fixed.CAcc, n*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &accGrid{m: m, data: data}
}

// newAccGridFor sizes the grid for p: dense, or pruned to p's candidate
// row set.
func newAccGridFor(p scf.Params) *accGrid {
	alphas := p.SurfaceAlphas()
	if alphas == nil {
		return newAccGrid(p.M)
	}
	n := 2*p.M - 1
	data := make([][]fixed.CAcc, len(alphas))
	cells := make([]fixed.CAcc, len(alphas)*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &accGrid{m: p.M, alphas: alphas, data: data}
}

// rowAlphas returns the offsets a of the grid's rows, in row order.
func (g *accGrid) rowAlphas() []int {
	if g.alphas != nil {
		return g.alphas
	}
	out := make([]int, 2*g.m-1)
	for i := range out {
		out[i] = i - (g.m - 1)
	}
	return out
}

// rowIndex returns the grid row holding offset a, or -1 when the grid
// does not hold it.
func (g *accGrid) rowIndex(a int) int {
	if g.alphas == nil {
		i := a + g.m - 1
		if i < 0 || i >= len(g.data) {
			return -1
		}
		return i
	}
	lo, hi := 0, len(g.alphas)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.alphas[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(g.alphas) && g.alphas[lo] == a {
		return lo
	}
	return -1
}

// mirrorHermitian fills every negative-offset row from its positive
// counterpart at full accumulator precision: the DSCF term for (f, -a)
// is X_{f-a}·conj(X_{f+a}), the termwise conjugate of the (f, a) term,
// so the int64 accumulator for row -a is exactly (Re, -Im) of row +a —
// integer sums make the identity exact, not approximate. Mirroring
// before the single-rounding reduce is therefore bit-identical to
// accumulating the negative rows directly, at half the dot-product
// work. (SSCA must not use this: its strips are FFTs of distinct
// product sequences, not termwise conjugates.) rowAlphas is
// g.rowAlphas(), which the caller already holds.
func (g *accGrid) mirrorHermitian(rowAlphas []int) {
	for i, a := range rowAlphas {
		if a >= 0 {
			continue
		}
		j := g.rowIndex(-a)
		if j < 0 {
			continue
		}
		src, dst := g.data[j], g.data[i]
		for fi := range dst {
			dst[fi] = fixed.CAcc{Re: src[fi].Re, Im: -src[fi].Im}
		}
	}
}

// reduce converts the grid to a QSurface: the peak component picks the
// smallest right-shift landing it in the top half of the Q15 range
// (left-shifting weak surfaces up instead), every cell is rounded once at
// that scale, and the net exponent is folded into QSurface.Exp so that
//
//	float cell = q15 cell · 2^Exp · gain
//
// where the accumulators hold float·2^(30-accExp)/gain (accExp the
// exponent the caller's products carry, e.g. 2·emax for FAM). The single
// rounding point keeps the reduction bit-exact regardless of how the
// accumulators were filled in parallel.
func (g *accGrid) reduce(accExp int, gain float64) *scf.QSurface {
	var amax int64
	for _, row := range g.data {
		for _, a := range row {
			if v := a.Re; v > amax {
				amax = v
			} else if -v > amax {
				amax = -v
			}
			if v := a.Im; v > amax {
				amax = v
			} else if -v > amax {
				amax = -v
			}
		}
	}
	var out *scf.QSurface
	if g.alphas != nil {
		out = scf.NewSparseQSurface(g.m, g.alphas)
	} else {
		out = scf.NewQSurface(g.m)
	}
	out.Gain = gain
	if amax == 0 {
		out.Exp = accExp - 30
		return out
	}
	// sh (may be negative) brings amax into [2^14, 2^15): bitlen-15.
	sh := bits.Len64(uint64(amax)) - 15
	for ai, row := range g.data {
		for fi, a := range row {
			out.Data[ai][fi] = fixed.Complex{
				Re: shiftToQ15(a.Re, sh),
				Im: shiftToQ15(a.Im, sh),
			}
		}
	}
	// Cell integer c represents acc/2^sh; acc = float·2^(30-accExp)/gain,
	// and the Q15 value is c/2^15, so float = q15 · 2^(sh+15-30+accExp) · gain.
	out.Exp = sh + accExp - 15
	return out
}

// shiftToQ15 rounds v/2^sh into Q15 with round-half-up and saturation;
// negative sh left-shifts exactly.
func shiftToQ15(v int64, sh int) fixed.Q15 {
	if sh <= 0 {
		return fixed.SaturateInt(v << uint(-sh))
	}
	return fixed.SaturateInt((v + 1<<(uint(sh)-1)) >> uint(sh))
}

// montiumFFTCycles charges one FFT kernel run plus the reshuffling pass
// that feeds it, the two per-transform rows of the paper's Table 1.
func montiumFFTCycles(n int) int64 {
	return montium.FFTKernelCycles(n) + montium.ReshuffleCycles(int64(n))
}
