package scf

import (
	"fmt"
	"math"
	"sort"

	"tiledcfd/internal/fft"
)

// Params configures a DSCF computation.
type Params struct {
	// K is the FFT size (a power of two). The paper uses 256.
	K int
	// M sets the grid half-extent: f and a range over [-(M-1), +(M-1)],
	// giving a (2M-1)x(2M-1) surface. The paper uses M = 64 (127x127).
	// The extreme bins addressed are f±a in [-2(M-1), +2(M-1)], which must
	// stay within half the FFT range to remain unambiguous: 2(M-1) <= K/2.
	M int
	// Blocks is N, the number of K-sample integration steps accumulated.
	Blocks int
	// Hop is the block advance in samples; 0 means K (non-overlapping,
	// as in the paper's section 4.1).
	Hop int
	// Window is the analysis window; the paper's expression 2 implies
	// Rectangular, the default.
	Window fft.WindowKind
	// AlphaCandidates, when non-empty, restricts estimation to a set of
	// candidate cycle-frequency rows — directed sensing for a known
	// modulation, where the caller knows which α it cares about (symbol
	// rate, 2·carrier). Each entry is a non-negative row offset a in
	// [0, M-1]; the Hermitian mirror row -a is implied, and the a=0 PSD
	// row is always computed (detectors normalise against it). Estimators
	// honouring the set produce a sparse Surface holding only those rows,
	// bit-identical on them to the full-plane computation. Empty means
	// the full (α, f) plane. Use AlphaBinForHz to build entries from
	// physical cycle frequencies.
	AlphaCandidates []int
}

// WithDefaults returns a copy of p with zero fields replaced by the
// paper's defaults (K=256, M=K/4, Blocks=1, Hop=K).
func (p Params) WithDefaults() Params {
	if p.K == 0 {
		p.K = 256
	}
	if p.M == 0 {
		p.M = p.K / 4
	}
	if p.Blocks == 0 {
		p.Blocks = 1
	}
	if p.Hop == 0 {
		p.Hop = p.K
	}
	return p
}

// Validate checks the parameter set for consistency.
func (p Params) Validate() error {
	if !fft.IsPow2(p.K) || p.K < 4 {
		return fmt.Errorf("scf: K=%d must be a power of two >= 4", p.K)
	}
	if p.M < 1 {
		return fmt.Errorf("scf: M=%d must be >= 1", p.M)
	}
	if 2*(p.M-1) > p.K/2 {
		return fmt.Errorf("scf: grid extent 2(M-1)=%d exceeds K/2=%d", 2*(p.M-1), p.K/2)
	}
	if p.Blocks < 1 {
		return fmt.Errorf("scf: Blocks=%d must be >= 1", p.Blocks)
	}
	if p.Hop < 1 {
		return fmt.Errorf("scf: Hop=%d must be >= 1", p.Hop)
	}
	seen := make(map[int]bool, len(p.AlphaCandidates))
	for _, a := range p.AlphaCandidates {
		if a < 0 || a > p.M-1 {
			return fmt.Errorf("scf: alpha candidate a=%d outside [0, %d]", a, p.M-1)
		}
		if seen[a] {
			return fmt.Errorf("scf: duplicate alpha candidate a=%d", a)
		}
		seen[a] = true
	}
	return nil
}

// Pruned reports whether estimation is restricted to candidate
// cycle-frequency rows.
func (p Params) Pruned() bool { return len(p.AlphaCandidates) > 0 }

// CandidateRows returns the sorted a >= 0 rows a pruned estimator
// computes before Hermitian mirroring: the candidate set plus the a=0
// PSD row. Nil when not pruned.
func (p Params) CandidateRows() []int {
	if !p.Pruned() {
		return nil
	}
	rows := make([]int, 0, len(p.AlphaCandidates)+1)
	rows = append(rows, p.AlphaCandidates...)
	sort.Ints(rows)
	if rows[0] != 0 {
		rows = append([]int{0}, rows...)
	}
	return rows
}

// SurfaceAlphas returns the sorted full row set of a pruned surface —
// every candidate, its Hermitian mirror, and a=0. Nil when not pruned.
func (p Params) SurfaceAlphas() []int {
	pos := p.CandidateRows()
	if pos == nil {
		return nil
	}
	alphas := make([]int, 0, 2*len(pos))
	for i := len(pos) - 1; i >= 1; i-- {
		alphas = append(alphas, -pos[i])
	}
	return append(alphas, pos...)
}

// PrunedCellsSkipped returns how many grid cells one pruned snapshot
// avoids computing relative to the full (2M-1)² plane — the quantity
// the serving stack counts as cfd_pruned_cells_skipped_total. Zero when
// not pruned.
func (p Params) PrunedCellsSkipped() int64 {
	if !p.Pruned() {
		return 0
	}
	return int64(p.P()-len(p.SurfaceAlphas())) * int64(p.F())
}

// AlphaBinForHz converts a physical cycle frequency to its grid row
// offset: cell (f, a) correlates bins f+a and f-a, whose separation is
// the cycle frequency α = 2a·fs/K, so a = round(α·K/(2·fs)). It errors
// when the rounded row falls outside the candidate range [0, M-1] of
// the (defaulted) geometry.
func (p Params) AlphaBinForHz(alphaHz, sampleRateHz float64) (int, error) {
	if sampleRateHz <= 0 {
		return 0, fmt.Errorf("scf: sample rate %g Hz must be positive", sampleRateHz)
	}
	d := p.WithDefaults()
	a := int(math.Round(alphaHz * float64(d.K) / (2 * sampleRateHz)))
	if a < 0 || a > d.M-1 {
		return 0, fmt.Errorf("scf: cycle frequency %g Hz maps to row a=%d outside [0, %d] (fs=%g Hz, K=%d)",
			alphaHz, a, d.M-1, sampleRateHz, d.K)
	}
	return a, nil
}

// P returns the number of frequency offsets (and of initial-array
// processors in the paper's mapping): 2M-1.
func (p Params) P() int { return 2*p.M - 1 }

// F returns the number of frequencies per offset: 2M-1.
func (p Params) F() int { return 2*p.M - 1 }

// SamplesNeeded returns the input length required for Blocks integration
// steps.
func (p Params) SamplesNeeded() int {
	return p.K + (p.Blocks-1)*p.Hop
}

// DSCFMults returns the number of complex multiplications one integration
// step of the DSCF performs on the (2M-1)² grid. For M = K/4 this is
// (K/2-1)² ≈ ¼K², the paper's section 2 count. With alpha candidates
// set it counts only the rows the pruned surface holds.
func (p Params) DSCFMults() int {
	if p.Pruned() {
		return len(p.SurfaceAlphas()) * p.F()
	}
	return p.P() * p.F()
}
