package scf

import (
	"fmt"
	"math"
	"math/cmplx"

	"tiledcfd/internal/fft"
)

// Stats reports the work a DSCF computation performed, for the paper's
// section 2 complexity comparison (experiment E1).
type Stats struct {
	// Blocks is the number of integration steps executed.
	Blocks int
	// FFTMults is the number of complex multiplications spent in FFTs.
	FFTMults int
	// DSCFMults is the number of complex multiplications spent in the
	// spectral-correlation products.
	DSCFMults int
	// Cycles is the modeled Montium datapath cycle cost of the surface,
	// charged via the paper's Table-1-style accounting (montium package
	// kernel models). Only the fixed-point backends fill it — float
	// estimators have no hardware cost model and report zero — so
	// cfdbench can put float mult counts and Q15 cycle counts side by
	// side per surface.
	Cycles int64
	// PerTile breaks Cycles down per modeled tile when the work was
	// mapped onto a fabric (internal/tile schedules fill it; the Q15
	// backends report their whole cost as tile 0). Empty when no tile
	// model applies. Summed Compute equals Cycles when both are set.
	PerTile []TileCycles
	// Kernel names the fixed-point kernel implementation the surface was
	// computed with (fixed.Kernels.Name(), e.g. "swar" or "scalar").
	// Empty for float estimators, which have no kernel seam. The choice
	// never changes surface bits — it is recorded so benchmark output can
	// attribute timings to the datapath that produced them.
	Kernel string
}

// TileCycles is one modeled tile's share of a multi-tile schedule: the
// datapath cycles it computes and the cycles its NoC ports spend moving
// operands on and off the tile.
type TileCycles struct {
	// Tile is the tile index within the fabric.
	Tile int
	// Compute is the tile's modeled datapath cycle count.
	Compute int64
	// Transfer is the tile's modeled NoC port occupancy in cycles
	// (sent plus received words over the link bandwidth).
	Transfer int64
}

// Ratio returns DSCFMults/FFTMults, the paper's "16 times as many complex
// multiplications" figure for K = 256.
func (s Stats) Ratio() float64 {
	if s.FFTMults == 0 {
		return math.Inf(1)
	}
	return float64(s.DSCFMults) / float64(s.FFTMults)
}

// Compute evaluates the DSCF of x (float64 reference implementation).
//
// Per integration step n it computes the K-point FFT of the block starting
// at sample n·Hop, applies the absolute-time phase reference of
// expression 2 (a no-op when Hop == K, because e^{-j2π·mK·v/K} = 1), and
// accumulates X_{n,f+a}·conj(X_{n,f-a}) for every grid cell. The result is
// normalised by 1/Blocks per expression 3.
func Compute(x []complex128, p Params) (*Surface, *Stats, error) {
	p = p.WithDefaults()
	if err := p.Validate(); err != nil {
		return nil, nil, err
	}
	if len(x) < p.SamplesNeeded() {
		return nil, nil, fmt.Errorf("scf: need %d samples, have %d", p.SamplesNeeded(), len(x))
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, nil, err
	}
	var win []float64
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, nil, err
		}
	}
	s := NewSurfaceFor(p)
	rows := p.CandidateRows()
	stats := &Stats{Blocks: p.Blocks}
	// Per-block work counts are invariant across blocks; DSCFMults in
	// particular rebuilds the sorted candidate row set on every call, so
	// compute both once outside the integration loop.
	fftMults, dscfMults := fft.ComplexMults(p.K), p.DSCFMults()
	specBuf := fft.GetScratch(p.K)
	defer fft.PutScratch(specBuf)
	spec := *specBuf
	var specc []complex128
	if rows == nil {
		speccBuf := fft.GetScratch(p.K)
		defer fft.PutScratch(speccBuf)
		specc = *speccBuf
	}
	var winbuf []complex128
	if win != nil {
		winbufBuf := fft.GetScratch(p.K)
		defer fft.PutScratch(winbufBuf)
		winbuf = *winbufBuf
	}
	for n := 0; n < p.Blocks; n++ {
		start := n * p.Hop
		block := x[start : start+p.K]
		if win != nil {
			if err := fft.ApplyWindowInto(winbuf, block, win); err != nil {
				return nil, nil, err
			}
			block = winbuf
		}
		if err := plan.Forward(spec, block); err != nil {
			return nil, nil, err
		}
		stats.FFTMults += fftMults
		phaseReference(spec, start, p.K)
		if rows == nil {
			// The full plane reads every conjugated bin ~2M times, so one
			// conjugation pass per block is cheaper than conjugating at
			// every cell.
			conjInto(specc, spec)
			accumulate(s, spec, specc, p.M, rows)
		} else {
			// A pruned snapshot touches few rows; conjugating inline in
			// the accumulation (exact, so cell values are unchanged)
			// beats a full K-bin pass.
			accumulateConj(s, spec, rows, p.M)
		}
		stats.DSCFMults += dscfMults
	}
	s.Scale(1 / float64(p.Blocks))
	s.MirrorHermitian()
	return s, stats, nil
}

// phaseReference rotates each bin by e^{-j2π·start·v/K}, converting the
// window-relative FFT into the absolute-time-referenced X_{n,v} of
// expression 2. When start is a multiple of K the rotation is identity and
// is skipped, matching the hardware (which performs no extra rotation
// because it advances by whole blocks). The rotation indexes the cached
// roots table with the exponent reduced mod K in integer arithmetic, so
// it stays exact for large start·v and allocates nothing.
func phaseReference(spec []complex128, start, k int) {
	if start%k == 0 {
		return
	}
	// Roots only fails for k < 1, which every caller has already
	// validated away — reaching it is a programming error.
	roots, err := fft.Roots(k)
	if err != nil {
		panic("scf: phaseReference with unvalidated size: " + err.Error())
	}
	// (start·v) mod k advances by start per bin; k is a power of two
	// (validated upstream), so the reduction is a masked add.
	step := start & (k - 1)
	idx := 0
	for v := range spec {
		spec[v] *= roots[idx]
		idx = (idx + step) & (k - 1)
	}
}

// conjInto writes the elementwise conjugate of spec into specc, hoisting
// the per-cell conjugation of the accumulate loop to one pass per block.
func conjInto(specc, spec []complex128) {
	for v, c := range spec {
		specc[v] = cmplx.Conj(c)
	}
}

// accumulate adds the cyclic periodogram of one block to the a >= 0 rows
// of the surface. The DSCF is exactly Hermitian in a — the (f, -a) term
// X_{f-a}·conj(X_{f+a}) is the termwise conjugate of the (f, a) term — so
// the a < 0 rows are not touched here; callers fill them once at the end
// with Surface.MirrorHermitian, bit-identical to accumulating them
// directly. specc must hold the conjugate of spec (conjInto). K is a
// power of two (validated upstream), so the f±a bin wrap-around is a
// masked increment instead of a per-cell modulo; the loop allocates
// nothing.
//
// rows, when non-nil, restricts accumulation to the listed a >= 0 rows
// (alpha-candidate pruning); nil means every row 0..m-1. The per-cell
// arithmetic is unchanged, so pruned rows stay bit-identical to the
// full-plane computation.
func accumulate(s *Surface, spec, specc []complex128, m int, rows []int) {
	k := len(spec)
	mask := k - 1
	if rows == nil {
		for a := 0; a <= m-1; a++ {
			accumulateRow(s.Data[a+m-1], spec, specc, a, m, mask)
		}
		return
	}
	for _, a := range rows {
		accumulateRow(s.Row(a), spec, specc, a, m, mask)
	}
}

// accumulateRow adds one block's contribution to the row for offset a.
// The f±a bin indices wrap around the spectrum at most once each across
// the row, so instead of masking both indices every cell the loop runs
// over contiguous segments between wrap points: each segment is a plain
// three-slice multiply-accumulate that compiles without bounds checks.
// Cells are visited in the same order with the same arithmetic as the
// per-cell masked walk, so the accumulated values are unchanged.
func accumulateRow(row, spec, specc []complex128, a, m, mask int) {
	k := mask + 1
	pi := (a - (m - 1)) & mask
	qi := (-a - (m - 1)) & mask
	for fi := 0; fi < len(row); {
		n := len(row) - fi
		if r := k - pi; r < n {
			n = r
		}
		if r := k - qi; r < n {
			n = r
		}
		rs := row[fi : fi+n : fi+n]
		ps := spec[pi : pi+n : pi+n]
		qs := specc[qi : qi+n : qi+n]
		for i := range rs {
			rs[i] += ps[i] * qs[i]
		}
		fi += n
		pi = (pi + n) & mask
		qi = (qi + n) & mask
	}
}

// accumulateConj is the pruned-path variant of accumulate: it conjugates
// the f-a operand inline instead of reading a precomputed conjugate
// spectrum, saving the K-bin conjInto pass per block when only a few
// candidate rows are held. Conjugation is exact, so every cell receives
// contributions bit-identical to the conjInto-based full-plane path.
func accumulateConj(s *Surface, spec []complex128, rows []int, m int) {
	mask := len(spec) - 1
	for _, a := range rows {
		accumulateRowConj(s.Row(a), spec, a, m, mask)
	}
}

// accumulateRowConj mirrors accumulateRow with the conjugation fused
// into the product (same segment walk, same cell order).
func accumulateRowConj(row, spec []complex128, a, m, mask int) {
	k := mask + 1
	pi := (a - (m - 1)) & mask
	qi := (-a - (m - 1)) & mask
	for fi := 0; fi < len(row); {
		n := len(row) - fi
		if r := k - pi; r < n {
			n = r
		}
		if r := k - qi; r < n {
			n = r
		}
		rs := row[fi : fi+n : fi+n]
		ps := spec[pi : pi+n : pi+n]
		qs := spec[qi : qi+n : qi+n]
		// The conjugate is folded into the product algebraically —
		// p·conj(q) = (pr·qr + pi·qi) + j(pi·qr - pr·qi) — the same four
		// multiplies and adds the compiler emits for p·q, with the sign
		// flips absorbed for free. Four cells at a time: iterations touch
		// disjoint cells, so the unroll only exposes independent work.
		i := 0
		for ; i+3 < n; i += 4 {
			p0, q0 := ps[i], qs[i]
			p1, q1 := ps[i+1], qs[i+1]
			p2, q2 := ps[i+2], qs[i+2]
			p3, q3 := ps[i+3], qs[i+3]
			rs[i] += complex(real(p0)*real(q0)+imag(p0)*imag(q0),
				imag(p0)*real(q0)-real(p0)*imag(q0))
			rs[i+1] += complex(real(p1)*real(q1)+imag(p1)*imag(q1),
				imag(p1)*real(q1)-real(p1)*imag(q1))
			rs[i+2] += complex(real(p2)*real(q2)+imag(p2)*imag(q2),
				imag(p2)*real(q2)-real(p2)*imag(q2))
			rs[i+3] += complex(real(p3)*real(q3)+imag(p3)*imag(q3),
				imag(p3)*real(q3)-real(p3)*imag(q3))
		}
		for ; i < n; i++ {
			p, q := ps[i], qs[i]
			rs[i] += complex(real(p)*real(q)+imag(p)*imag(q),
				imag(p)*real(q)-real(p)*imag(q))
		}
		fi += n
		pi = (pi + n) & mask
		qi = (qi + n) & mask
	}
}
