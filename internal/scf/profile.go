package scf

import (
	"math/cmplx"

	"tiledcfd/internal/freelist"
)

// Profile is what a decision reads of a surface: per held row a, the
// summed magnitude Σ_f |S_f^a| (the cycle-frequency profile the
// detectors threshold) and the row's strongest cell (which locates a
// feature). A fold that reduces straight into a Profile decides without
// the (2M-1)² surface, as the Montium tile reduces its DSCF into the
// profile inside a fixed memory.
//
// Row i is the surface's Data[i]. Sum[i] adds cmplx.Abs of the row's
// cells in ascending f, the bits of AlphaProfile. Peak[i] is the row's
// largest |S_f^a|², the first in ascending f on ties, at f = PeakF[i],
// so a scan of the rows with a strict > finds the cell a row-major scan
// of the surface finds.
type Profile struct {
	// M is the grid half-extent.
	M int
	// Alphas lists the held rows as Surface.Alphas does: nil for the
	// full plane. It aliases the row set of whatever filled the profile.
	Alphas []int
	// Sum holds each row's Σ_f |S_f^a|.
	Sum []float64
	// Peak holds each row's largest |S_f^a|², -1 while none is added.
	Peak []float64
	// PeakF holds the f of each row's Peak.
	PeakF []int
}

// Reset empties p for a surface of half-extent m holding the rows in
// alphas (nil: all 2m-1), reusing its memory. Each row's cells must then
// be added in ascending f.
func (p *Profile) Reset(m int, alphas []int) {
	rows := len(alphas)
	if alphas == nil {
		rows = 2*m - 1
	}
	p.M, p.Alphas = m, alphas
	p.Sum = freelist.Grow(p.Sum, rows)
	p.Peak = freelist.Grow(p.Peak, rows)
	p.PeakF = freelist.Grow(p.PeakF, rows)
	clear(p.Sum)
	clear(p.PeakF)
	for i := range p.Peak {
		p.Peak[i] = -1
	}
}

// Add adds cell (f, v) to row i. Cells of a row must come in ascending f.
func (p *Profile) Add(i, f int, v complex128) {
	p.Sum[i] += cmplx.Abs(v)
	if mag := real(v)*real(v) + imag(v)*imag(v); mag > p.Peak[i] {
		p.Peak[i], p.PeakF[i] = mag, f
	}
}

// CopyRow sets row dst to row src: a Hermitian mirror's row, since
// |conj(v)| = |v| exactly.
func (p *Profile) CopyRow(dst, src int) {
	p.Sum[dst], p.Peak[dst], p.PeakF[dst] = p.Sum[src], p.Peak[src], p.PeakF[src]
}

// FromSurface sets p to the sums of s's profile, with each row's peak
// unset (-1): all a decision reads. SetPeaks adds the peaks.
func (p *Profile) FromSurface(s *Surface) {
	p.Reset(s.M, s.Alphas)
	for i, row := range s.Data {
		p.Sum[i] = rowSum(row)
	}
}

// SetPeaks sets each row's Peak and PeakF from s, whose rows p holds, as
// Add would: all the feature search reads.
func (p *Profile) SetPeaks(s *Surface) {
	for i, row := range s.Data {
		peak, at := -1.0, 0
		for fi, v := range row {
			if mag := real(v)*real(v) + imag(v)*imag(v); mag > peak {
				peak, at = mag, fi-(s.M-1)
			}
		}
		p.Peak[i], p.PeakF[i] = peak, at
	}
}

// rowSum returns Σ|v| over row, added in order as Add adds.
func rowSum(row []complex128) float64 {
	var sum float64
	for _, v := range row {
		sum += cmplx.Abs(v)
	}
	return sum
}

// Alpha returns the offset a of row i.
func (p *Profile) Alpha(i int) int {
	if p.Alphas == nil {
		return i - (p.M - 1)
	}
	return p.Alphas[i]
}

// Feature locates the strongest cell over the rows with |a| >= minAbsA,
// the first in row-major order on ties: the search region of the CFD
// statistic and the CFAR profile.
func (p *Profile) Feature(minAbsA int) (f, a int) {
	best := -1.0
	for i, mag := range p.Peak {
		av := p.Alpha(i)
		if av > -minAbsA && av < minAbsA {
			continue
		}
		if mag > best {
			best, f, a = mag, p.PeakF[i], av
		}
	}
	return f, a
}

// PrunedCellsSkipped returns the cells of the full plane the profile's
// surface does not hold: zero for the full plane.
func (p *Profile) PrunedCellsSkipped() int64 {
	if p.Alphas == nil {
		return 0
	}
	extent := int64(2*p.M - 1)
	return (extent - int64(len(p.Alphas))) * extent
}

// ProfileEstimator is an Estimator whose fold reduces straight into the
// profile of the surface Estimate returns, bit for bit, without building
// that surface.
type ProfileEstimator interface {
	Estimator
	// EstimateProfile sets dst to the profile of Estimate(x)'s surface,
	// or fails where Estimate fails.
	EstimateProfile(x []complex128, dst *Profile) error
}
