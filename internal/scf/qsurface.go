package scf

import (
	"fmt"
	"math"

	"tiledcfd/internal/fixed"
)

// QSurface is a spectral-correlation surface held in Q15 words with one
// block-floating-point exponent and an exact residual gain — the output
// format of the fam-q15/ssca-q15 backends. The float-path value of a cell
// is
//
//	Data[...].Complex128() · 2^Exp · Gain
//
// so Float() converts exactly into the units of the corresponding float
// estimator. Data and Exp are the bit-exact part (identical across runs
// and Workers settings); Gain is a deterministic power-of-two-and-integer
// factor (1/smoothing-length, 1/backoff²).
type QSurface struct {
	// M is the grid half-extent.
	M int
	// Exp is the power-of-two exponent every cell carries.
	Exp int
	// Gain is the residual scalar factor (exactly representable).
	Gain float64
	// Alphas, when non-nil, lists the row offsets the surface holds
	// (alpha-candidate pruning), strictly ascending; Data[i] is the row
	// for a = Alphas[i]. Nil means dense: Data[a+M-1]. Note the
	// surface-level exponent is derived from the computed cells, so a
	// pruned Q15 surface is bit-exact deterministic and converts exactly
	// via Float, but its raw words need not match a full-plane run's
	// (whose peak may live on a row the pruned run never computes).
	Alphas []int
	// Data holds the Q15 cells, one row per held offset (see Alphas),
	// indexed Data[row][f+M-1].
	Data [][]fixed.Complex
}

// NewQSurface allocates a zeroed Q15 surface for half-extent M with unit
// gain.
func NewQSurface(m int) *QSurface {
	n := 2*m - 1
	data := make([][]fixed.Complex, n)
	cells := make([]fixed.Complex, n*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &QSurface{M: m, Gain: 1, Data: data}
}

// NewSparseQSurface allocates a zeroed alpha-pruned Q15 surface holding
// only the rows in alphas (NewSparseSurface semantics), with unit gain.
func NewSparseQSurface(m int, alphas []int) *QSurface {
	n := 2*m - 1
	held := append([]int(nil), alphas...)
	data := make([][]fixed.Complex, len(held))
	cells := make([]fixed.Complex, len(held)*n)
	for i := range data {
		data[i], cells = cells[:n], cells[n:]
	}
	return &QSurface{M: m, Gain: 1, Alphas: held, Data: data}
}

// alphaOf returns the offset a of Data row i.
func (s *QSurface) alphaOf(i int) int {
	if s.Alphas == nil {
		return i - (s.M - 1)
	}
	return s.Alphas[i]
}

// Float converts the surface into float-path units: every cell becomes
// Complex128()·2^Exp·Gain. The conversion is exact (powers of two and the
// Gain factor carry no rounding of their own). A pruned Q15 surface
// converts into an equally pruned float Surface.
func (s *QSurface) Float() *Surface {
	var out *Surface
	if s.Alphas != nil {
		out = NewSparseSurface(s.M, s.Alphas)
	} else {
		out = NewSurface(s.M)
	}
	g := complex(math.Ldexp(s.Gain, s.Exp), 0)
	for ai, row := range s.Data {
		for fi, c := range row {
			out.Data[ai][fi] = c.Complex128() * g
		}
	}
	return out
}

// Equal reports whether two Q15 surfaces are bit-identical (cells and
// exponent; Gain compared exactly), returning the first difference for
// diagnostics. It is the check the determinism tests apply across runs
// and Workers settings.
func (s *QSurface) Equal(o *QSurface) (bool, string) {
	if s.M != o.M {
		return false, fmt.Sprintf("extent %d vs %d", s.M, o.M)
	}
	if s.Exp != o.Exp {
		return false, fmt.Sprintf("exponent %d vs %d", s.Exp, o.Exp)
	}
	if s.Gain != o.Gain {
		return false, fmt.Sprintf("gain %v vs %v", s.Gain, o.Gain)
	}
	if len(s.Data) != len(o.Data) {
		return false, fmt.Sprintf("row count %d vs %d", len(s.Data), len(o.Data))
	}
	for ai := range s.Data {
		if s.alphaOf(ai) != o.alphaOf(ai) {
			return false, fmt.Sprintf("row %d holds a=%d vs a=%d", ai, s.alphaOf(ai), o.alphaOf(ai))
		}
		for fi := range s.Data[ai] {
			if s.Data[ai][fi] != o.Data[ai][fi] {
				return false, fmt.Sprintf("cell a=%d f=%d: %+v vs %+v",
					s.alphaOf(ai), fi-(s.M-1), s.Data[ai][fi], o.Data[ai][fi])
			}
		}
	}
	return true, ""
}

// Saturated counts cells pinned at the positive or negative rail in
// either component — after the surface-level renormalisation at most the
// peak cell should ever sit there.
func (s *QSurface) Saturated() int {
	n := 0
	for _, row := range s.Data {
		for _, c := range row {
			if c.Re == fixed.MaxQ15 || c.Re == fixed.MinQ15 ||
				c.Im == fixed.MaxQ15 || c.Im == fixed.MinQ15 {
				n++
			}
		}
	}
	return n
}

// QuantiseSurface converts a float surface into the Q15+exponent form:
// the peak component picks a power-of-two exponent that lands it in the
// top half of the Q15 range, and every cell is rounded at that scale.
// It is the float→fixed direction of the conversion pair (Float is the
// other), used to push float reference surfaces through fixed-point
// post-processing paths.
func QuantiseSurface(s *Surface) *QSurface {
	var out *QSurface
	if s.Alphas != nil {
		out = NewSparseQSurface(s.M, s.Alphas)
	} else {
		out = NewQSurface(s.M)
	}
	peak := 0.0
	for _, row := range s.Data {
		for _, v := range row {
			if r := math.Abs(real(v)); r > peak {
				peak = r
			}
			if im := math.Abs(imag(v)); im > peak {
				peak = im
			}
		}
	}
	if peak == 0 {
		return out
	}
	// Choose exp so peak/2^exp lies in [0.5, 1): full use of the Q15 word.
	_, e := math.Frexp(peak)
	out.Exp = e
	inv := math.Ldexp(1, -e)
	for ai, row := range s.Data {
		for fi, v := range row {
			out.Data[ai][fi] = fixed.CFromFloat(complex(real(v)*inv, imag(v)*inv))
		}
	}
	return out
}
