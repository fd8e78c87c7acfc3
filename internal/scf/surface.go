package scf

import (
	"fmt"
	"math/cmplx"
)

// Surface is a computed DSCF: a (2M-1)×(2M-1) grid indexed by frequency
// offset a (rows) and frequency f (columns), each spanning [-(M-1), M-1].
//
// A surface may be alpha-pruned: when Alphas is non-nil the surface
// holds only the listed rows (Data[i] is the row for a = Alphas[i]) and
// snapshot cost scales with the candidate count instead of M. Pruned
// cells are bit-identical to their full-plane values; absent rows do
// not exist — At panics on them, and detectors restrict themselves to
// AlphaValues.
type Surface struct {
	// M is the grid half-extent.
	M int
	// Alphas, when non-nil, lists the row offsets the surface holds,
	// strictly ascending; Data[i] is the row for a = Alphas[i]. Nil
	// means dense: Data[a+M-1].
	Alphas []int
	// Data holds the cells, one row per held offset, indexed
	// Data[rowIndex][f+M-1].
	Data [][]complex128
}

// NewSurface allocates a zeroed surface for half-extent M.
func NewSurface(m int) *Surface {
	n := 2*m - 1
	data := make([][]complex128, n)
	cells := make([]complex128, n*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &Surface{M: m, Data: data}
}

// NewSparseSurface allocates a zeroed alpha-pruned surface holding only
// the rows in alphas, which must be strictly ascending within
// [-(M-1), M-1]. It panics on a malformed row set (programming error —
// Params.SurfaceAlphas builds well-formed ones).
func NewSparseSurface(m int, alphas []int) *Surface {
	n := 2*m - 1
	for i, a := range alphas {
		if a < -(m-1) || a > m-1 {
			panic(fmt.Sprintf("scf: sparse row a=%d outside ±%d", a, m-1))
		}
		if i > 0 && alphas[i-1] >= a {
			panic(fmt.Sprintf("scf: sparse rows not strictly ascending at a=%d", a))
		}
	}
	held := append([]int(nil), alphas...)
	data := make([][]complex128, len(held))
	cells := make([]complex128, len(held)*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &Surface{M: m, Alphas: held, Data: data}
}

// NewSurfaceFor allocates the surface shape p's estimation produces:
// dense, or alpha-pruned to p.SurfaceAlphas when candidates are set.
func NewSurfaceFor(p Params) *Surface {
	if !p.Pruned() {
		return NewSurface(p.M)
	}
	return NewSparseSurface(p.M, p.SurfaceAlphas())
}

// Pruned reports whether the surface is alpha-pruned.
func (s *Surface) Pruned() bool { return s.Alphas != nil }

// rowIndex returns the Data index of row a, or -1 when the surface does
// not hold it.
func (s *Surface) rowIndex(a int) int {
	if s.Alphas == nil {
		if a < -(s.M-1) || a > s.M-1 {
			return -1
		}
		return a + s.M - 1
	}
	lo, hi := 0, len(s.Alphas)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.Alphas[mid] < a {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(s.Alphas) && s.Alphas[lo] == a {
		return lo
	}
	return -1
}

// alphaOf returns the offset a of Data row i.
func (s *Surface) alphaOf(i int) int {
	if s.Alphas == nil {
		return i - (s.M - 1)
	}
	return s.Alphas[i]
}

// HasRow reports whether the surface holds row a.
func (s *Surface) HasRow(a int) bool { return s.rowIndex(a) >= 0 }

// Row returns the cells of row a (indexed f+M-1), or nil when the
// surface does not hold it.
func (s *Surface) Row(a int) []complex128 {
	i := s.rowIndex(a)
	if i < 0 {
		return nil
	}
	return s.Data[i]
}

// AlphaValues returns the row offsets the surface holds, ascending —
// every a in [-(M-1), M-1] for a dense surface, the candidate set for a
// pruned one. Data[i] and AlphaProfile()[i] correspond to the returned
// slice's element i.
func (s *Surface) AlphaValues() []int {
	if s.Alphas != nil {
		return append([]int(nil), s.Alphas...)
	}
	out := make([]int, s.Extent())
	for i := range out {
		out[i] = i - (s.M - 1)
	}
	return out
}

// Extent returns the grid side length 2M-1.
func (s *Surface) Extent() int { return 2*s.M - 1 }

// At returns S_f^a. It panics if (f, a) is off the grid or on a row a
// pruned surface does not hold (programming error).
func (s *Surface) At(f, a int) complex128 {
	i := s.rowIndex(a)
	if i < 0 || f < -(s.M-1) || f > s.M-1 {
		panic(fmt.Sprintf("scf: At(%d,%d) outside ±%d or pruned away", f, a, s.M-1))
	}
	return s.Data[i][f+s.M-1]
}

// Add accumulates v into S_f^a.
func (s *Surface) Add(f, a int, v complex128) {
	i := s.rowIndex(a)
	if i < 0 || f < -(s.M-1) || f > s.M-1 {
		panic(fmt.Sprintf("scf: Add(%d,%d) outside ±%d or pruned away", f, a, s.M-1))
	}
	s.Data[i][f+s.M-1] += v
}

// Scale multiplies every cell by the real factor g (used for the 1/N
// normalisation of expression 3).
func (s *Surface) Scale(g float64) {
	for _, row := range s.Data {
		for i := range row {
			row[i] *= complex(g, 0)
		}
	}
}

// AlphaProfile returns, for each held offset a, the summed magnitude
// Σ_f |S_f^a|. This "cycle-frequency profile" is the statistic
// cyclostationary detectors threshold: peaks away from a=0 reveal hidden
// periodicity. Index i corresponds to AlphaValues()[i] — for a dense
// surface that is a = i-(M-1); a pruned surface yields only candidate
// rows, so the profile cost scales with the candidate count.
func (s *Surface) AlphaProfile() []float64 {
	prof := make([]float64, len(s.Data))
	for ai, row := range s.Data {
		prof[ai] = rowSum(row)
	}
	return prof
}

// MaxFeature returns the grid point of largest magnitude. With excludeA0
// true the a=0 row (the ordinary power spectral density, which always
// dominates) is skipped — this is how a blind detector searches for
// cyclic features.
func (s *Surface) MaxFeature(excludeA0 bool) (f, a int, mag float64) {
	mag = -1
	for ai, row := range s.Data {
		av := s.alphaOf(ai)
		if excludeA0 && av == 0 {
			continue
		}
		for fi, v := range row {
			if m := cmplx.Abs(v); m > mag {
				mag, f, a = m, fi-(s.M-1), av
			}
		}
	}
	return f, a, mag
}

// MirrorHermitian fills the a < 0 rows from the completed a >= 0 rows:
// S_f^{-a} = conj(S_f^a). For estimators whose cell algebra is exactly
// Hermitian in a (the direct DSCF and FAM — each (f, -a) term is the
// termwise conjugate of the (f, a) term, and conjugation and real scaling
// commute with summation exactly in floating point), the mirrored cells
// are bit-identical to accumulating them directly, at half the work.
func (s *Surface) MirrorHermitian() {
	m := s.M
	if s.Alphas != nil {
		for si, a := range s.Alphas {
			if a <= 0 {
				continue
			}
			di := s.rowIndex(-a)
			if di < 0 {
				continue
			}
			src, dst := s.Data[si], s.Data[di]
			for i, v := range src {
				dst[i] = cmplx.Conj(v)
			}
		}
		return
	}
	for a := 1; a <= m-1; a++ {
		src, dst := s.Data[a+m-1], s.Data[m-1-a]
		for i, v := range src {
			dst[i] = cmplx.Conj(v)
		}
	}
}

// HermitianError returns the maximum magnitude of S_f^{-a} - conj(S_f^a)
// over the grid: an exact DSCF has zero; float and fixed implementations
// should be at rounding level. Used by invariant tests.
func (s *Surface) HermitianError() float64 {
	worst := 0.0
	for _, a := range s.AlphaValues() {
		if !s.HasRow(-a) {
			continue
		}
		for f := -(s.M - 1); f <= s.M-1; f++ {
			d := cmplx.Abs(s.At(f, -a) - cmplx.Conj(s.At(f, a)))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

// MaxAbsDiff returns the largest cellwise magnitude difference between two
// surfaces of equal extent and row set; it panics on shape mismatch.
func MaxAbsDiff(a, b *Surface) float64 {
	if a.M != b.M || len(a.Data) != len(b.Data) {
		panic(fmt.Sprintf("scf: MaxAbsDiff shapes M=%d/%d rows=%d/%d", a.M, b.M, len(a.Data), len(b.Data)))
	}
	worst := 0.0
	for i := range a.Data {
		for j := range a.Data[i] {
			if d := cmplx.Abs(a.Data[i][j] - b.Data[i][j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TotalEnergy returns Σ |S_f^a|² over the grid.
func (s *Surface) TotalEnergy() float64 {
	var e float64
	for _, row := range s.Data {
		for _, v := range row {
			e += real(v)*real(v) + imag(v)*imag(v)
		}
	}
	return e
}
