package detect

import (
	"fmt"
	"math"

	"tiledcfd/internal/freelist"
)

// Urriza is the multiple-sequence cyclic-correlation significance test
// of Urriza, Rebeiz and Cabric, adapted from antenna arrays to a single
// stream by polyphase decomposition: the input is split into M
// decimated branches y_m(t) = x(Mt+m), which are mutually independent
// white sequences under H0, exactly the model the test assumes. The
// statistic is the generalized likelihood ratio
//
//	T = −2(N′−M−1)·ln Re det(I − R̂_xx⁻¹ R̂_α R̂_xx⁻¹ R̂_αᴴ)
//
// over the branch cross-correlation matrix R̂_xx and the cyclic
// cross-correlation matrix R̂_α at the decimated cycle frequency; under
// H0 it is asymptotically chi-square with 2M² degrees of freedom, so —
// like DG — the detection threshold is closed-form for a target Pfa
// with no Monte-Carlo calibration.
type Urriza struct {
	// Cycles are candidate cycle frequencies of the undecimated input in
	// cycles per sample (CyclesForBins semantics). Decimation maps each
	// to α′ = frac(M·α).
	Cycles []float64
	// Branches is the polyphase order M (default 2). The chi-square
	// degrees of freedom grow as 2M², so small orders keep the test
	// sharp.
	Branches int
	// Lag is the branch-domain correlation lag τ of R̂_α (default 1).
	// The antenna-array reference uses lag 0, but in the single-stream
	// polyphase adaptation lag 0 is degenerate: the diagonal entries
	// become frequency-shifted power sequences, which are improper when
	// α′ lands on 0 or ½ (exactly where BPSK-style cycles fall for
	// M=2), breaking the chi-square null. At any lag ≥ 1 every entry is
	// a product of independent proper variates, so the null holds for
	// all cycles; the implementation therefore requires Lag >= 1.
	Lag int
	// Pfa is the target false-alarm probability (default 0.05),
	// Šidák-corrected per cycle like DG.
	Pfa float64
}

// urrizaMinBranchLen is the minimum decimated branch length accepted.
const urrizaMinBranchLen = 128

// Name implements Detector.
func (Urriza) Name() string { return "urriza" }

// withDefaults fills the zero fields.
func (u Urriza) withDefaults() Urriza {
	if u.Branches == 0 {
		u.Branches = 2
	}
	if u.Lag == 0 {
		u.Lag = 1
	}
	if u.Pfa == 0 {
		u.Pfa = 0.05
	}
	return u
}

// validate checks the configured fields.
func (u Urriza) validate() error {
	if len(u.Cycles) == 0 {
		return fmt.Errorf("detect: Urriza needs at least one cycle frequency")
	}
	if u.Branches < 2 || u.Branches > 16 {
		return fmt.Errorf("detect: Urriza branches=%d outside [2,16]", u.Branches)
	}
	if u.Lag < 1 {
		return fmt.Errorf("detect: Urriza lag=%d must be >= 1 (lag 0 breaks the single-stream null)", u.Lag)
	}
	if u.Pfa <= 0 || u.Pfa >= 1 {
		return fmt.Errorf("detect: Urriza Pfa=%v outside (0,1)", u.Pfa)
	}
	for _, a := range u.Cycles {
		if a == 0 || a <= -1 || a >= 1 {
			return fmt.Errorf("detect: Urriza cycle frequency %v outside non-zero (-1,1)", a)
		}
	}
	return nil
}

// decimatedCycle maps an input-rate cycle frequency to the branch-rate
// cycle frequency frac(M·α), in [0, 1).
func (u Urriza) decimatedCycle(alpha float64) float64 {
	a := float64(u.Branches) * alpha
	a -= math.Floor(a)
	if math.Abs(a) < 1e-12 || math.Abs(a-1) < 1e-12 {
		return 0
	}
	return a
}

// DoF returns the chi-square degrees of freedom: 2·Branches².
func (u Urriza) DoF() int {
	u = u.withDefaults()
	return 2 * u.Branches * u.Branches
}

// Threshold returns the closed-form detection threshold for the
// configured target Pfa (chi-square quantile at the Šidák-corrected
// per-cycle level).
func (u Urriza) Threshold() (float64, error) {
	u = u.withDefaults()
	if err := u.validate(); err != nil {
		return 0, err
	}
	per := 1 - math.Pow(1-u.Pfa, 1/float64(len(u.Cycles)))
	return InvChiSquareCDF(1-per, u.DoF())
}

// Statistic implements Detector: the maximum GLR statistic over the
// candidate cycles.
func (u Urriza) Statistic(x []complex128) (float64, error) {
	u = u.withDefaults()
	if err := u.validate(); err != nil {
		return 0, err
	}
	return u.statistic(x)
}

// urrizaScratch is one decision's working memory, recycled through
// urrizaScratches so a steady stream of decisions allocates nothing.
type urrizaScratch struct {
	samples  []complex128   // the polyphase branches, back to back
	branches [][]complex128 // one row header per branch
	rot      []complex128   // e^{-j2πα′t}
	cells    []complex128   // backing of the m×m (aug: m×2m) matrices
	rows     [][]complex128 // their row headers
	// The work matrices of statisticAt; rxx is cycle-independent.
	rxx, ra, raH, z, w, r, iminus, aug [][]complex128
}

var urrizaScratches freelist.List[urrizaScratch]

// carve sizes the scratch for m branches of l samples and a support of
// n, and lays the work matrices out over cells.
func (s *urrizaScratch) carve(m, l, n int) {
	s.samples = freelist.Grow(s.samples, m*l)
	s.branches = freelist.Grow(s.branches, m)
	for b := range s.branches {
		s.branches[b] = s.samples[b*l : (b+1)*l]
	}
	s.rot = freelist.Grow(s.rot, n)
	s.cells = freelist.Grow(s.cells, 9*m*m)
	s.rows = freelist.Grow(s.rows, 8*m)
	cells, rows := s.cells, s.rows
	mat := func(cols int) [][]complex128 {
		out := rows[:m:m]
		for i := range out {
			out[i] = cells[:cols:cols]
			cells = cells[cols:]
		}
		rows = rows[m:]
		return out
	}
	s.rxx, s.ra, s.raH, s.z, s.w, s.r, s.iminus = mat(m), mat(m), mat(m), mat(m), mat(m), mat(m), mat(m)
	s.aug = mat(2 * m)
}

// statistic computes the statistic of a defaulted, validated Urriza.
func (u Urriza) statistic(x []complex128) (float64, error) {
	m := u.Branches
	n := len(x)/m - u.Lag
	if n < urrizaMinBranchLen {
		return 0, fmt.Errorf("detect: Urriza needs >= %d samples per branch beyond the lag, have %d",
			urrizaMinBranchLen, n)
	}
	s := urrizaScratches.Get()
	defer urrizaScratches.Put(s)
	s.carve(m, len(x)/m, n)
	// Polyphase branches at the decimated rate.
	branches := s.branches
	for b, row := range branches {
		for t := range row {
			row[t] = x[m*t+b]
		}
	}
	// R̂_xx over the common support; it is cycle-independent.
	rxx := s.rxx
	for i := 0; i < m; i++ {
		for j := 0; j <= i; j++ {
			var v complex128
			for t := 0; t < n; t++ {
				v += branches[i][t] * conj(branches[j][t])
			}
			v /= complex(float64(n), 0)
			rxx[i][j] = v
			rxx[j][i] = conj(v)
		}
	}
	best := math.Inf(-1)
	for _, alpha := range u.Cycles {
		t, err := u.statisticAt(s, n, u.decimatedCycle(alpha))
		if err != nil {
			return 0, err
		}
		if t > best {
			best = t
		}
	}
	return best, nil
}

// statisticAt computes the GLR statistic for one decimated cycle from
// the branches and R̂_xx held in s.
func (u Urriza) statisticAt(s *urrizaScratch, n int, alphaPrime float64) (float64, error) {
	m, branches := u.Branches, s.branches
	rot := s.rot
	derotation(rot, alphaPrime)
	// R̂_α(i,j) = (1/N′) Σ_t y_i(t+τ)·conj(y_j(t))·e^{-j2πα′t}.
	ra := s.ra
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			var v complex128
			for t := 0; t < n; t++ {
				v += branches[i][t+u.Lag] * conj(branches[j][t]) * rot[t]
			}
			ra[i][j] = v / complex(float64(n), 0)
		}
	}
	// R = R_xx⁻¹·R_α·R_xx⁻¹·R_αᴴ, then λ = Re det(I − R). R is similar
	// to a PSD product, so det(I−R) is real up to rounding; the GLR is
	// −2(N′−M−1)·ln λ.
	raH := s.raH
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			raH[i][j] = conj(ra[j][i])
		}
	}
	if err := solveComplex(s.z, s.rxx, ra, s.aug); err != nil {
		return 0, err
	}
	if err := solveComplex(s.w, s.rxx, raH, s.aug); err != nil {
		return 0, err
	}
	r := matmulComplex(s.r, s.z, s.w)
	iminus := s.iminus
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			iminus[i][j] = -r[i][j]
		}
		iminus[i][i] += 1
	}
	lambda := real(detComplex(iminus))
	if lambda < 1e-300 {
		lambda = 1e-300 // fully explained correlation: statistic saturates
	}
	if lambda > 1 {
		lambda = 1 // rounding above 1 would yield a negative statistic
	}
	return -2 * float64(n-m-1) * math.Log(lambda), nil
}

// solveComplex solves A·X = B column-wise into x by Gaussian
// elimination with partial pivoting, for small square complex systems.
// aug is n×2n work space. A is the Hermitian branch correlation R̂_xx:
// when elimination meets an exactly zero pivot (an all-zero window, or a
// rank-deficient one such as a constant window), it re-solves with the
// diagonal ridged by 1e-12 × its mean (at least 1e-300), as spdSolver
// does, so a degenerate window gets a defined statistic instead of an
// error. Systems with no zero pivot are solved unridged.
func solveComplex(x, a, b, aug [][]complex128) error {
	if eliminate(x, a, b, aug, 0) {
		return nil
	}
	n := len(a)
	tr := 0.0
	for i := 0; i < n; i++ {
		tr += real(a[i][i])
	}
	ridge := 1e-12 * tr / float64(n)
	if ridge <= 0 {
		ridge = 1e-300
	}
	if eliminate(x, a, b, aug, ridge) {
		return nil
	}
	return fmt.Errorf("detect: singular branch correlation matrix")
}

// eliminate is one solveComplex attempt with ridge added to A's
// diagonal. It reports false, leaving x unset, when a pivot is exactly
// zero.
func eliminate(x, a, b, aug [][]complex128, ridge float64) bool {
	n := len(a)
	for i := 0; i < n; i++ {
		copy(aug[i], a[i])
		if ridge != 0 {
			aug[i][i] += complex(ridge, 0)
		}
		copy(aug[i][n:], b[i])
	}
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if cAbs(aug[r][col]) > cAbs(aug[piv][col]) {
				piv = r
			}
		}
		aug[col], aug[piv] = aug[piv], aug[col]
		if cAbs(aug[col][col]) == 0 {
			return false
		}
		inv := 1 / aug[col][col]
		for r := 0; r < n; r++ {
			if r == col {
				continue
			}
			f := aug[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < 2*n; c++ {
				aug[r][c] -= f * aug[col][c]
			}
		}
	}
	for i := 0; i < n; i++ {
		inv := 1 / aug[i][i]
		for j := 0; j < n; j++ {
			x[i][j] = aug[i][n+j] * inv
		}
	}
	return true
}

// matmulComplex multiplies two small square complex matrices into out
// and returns it.
func matmulComplex(out, a, b [][]complex128) [][]complex128 {
	n := len(a)
	for i := 0; i < n; i++ {
		clear(out[i])
		for k := 0; k < n; k++ {
			aik := a[i][k]
			if aik == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				out[i][j] += aik * b[k][j]
			}
		}
	}
	return out
}

// detComplex computes the determinant of a small square complex matrix
// by LU with partial pivoting. The input is clobbered.
func detComplex(a [][]complex128) complex128 {
	n := len(a)
	det := complex(1, 0)
	for col := 0; col < n; col++ {
		piv := col
		for r := col + 1; r < n; r++ {
			if cAbs(a[r][col]) > cAbs(a[piv][col]) {
				piv = r
			}
		}
		if piv != col {
			a[col], a[piv] = a[piv], a[col]
			det = -det
		}
		if cAbs(a[col][col]) == 0 {
			return 0
		}
		det *= a[col][col]
		inv := 1 / a[col][col]
		for r := col + 1; r < n; r++ {
			f := a[r][col] * inv
			if f == 0 {
				continue
			}
			for c := col; c < n; c++ {
				a[r][c] -= f * a[col][c]
			}
		}
	}
	return det
}

// cAbs is a cheap complex magnitude for pivot comparisons.
func cAbs(v complex128) float64 { return math.Hypot(real(v), imag(v)) }
