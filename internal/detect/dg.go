package detect

import (
	"fmt"
	"math"

	"tiledcfd/internal/fft"
)

// DG is the Dandawate–Giannakis cyclostationarity test in Lundén's
// multi-cycle form: for each candidate cycle frequency it estimates the
// cyclic-autocorrelation vector r̂(α, τ) over a small lag set, estimates
// the vector's asymptotic covariance from frequency-smoothed cyclic
// cross-periodograms of the lag-product sequences, and forms the
// generalized chi-square statistic N·r̂ Σ̂⁻¹ r̂ᵀ, which is asymptotically
// chi-square with 2·len(Lags) degrees of freedom under H0 regardless of
// the noise level or spectrum. The reported statistic is the maximum
// over the candidate cycles.
//
// Because the H0 distribution is known in closed form, the detection
// threshold for a target false-alarm rate comes from the chi-square
// quantile (Threshold) — no Monte-Carlo calibration step, the property
// that distinguishes this detector from the calibrated CFD statistics.
//
// Cost: one zero-padded FFT per lag serves every cycle with α·size an
// integer (all CyclesForBins cycles once the padded size reaches K/2);
// each other cycle derotates and transforms its own lag products.
//
// Degenerate windows have defined outcomes, not errors. An all-zero
// window has a zero covariance estimate; the ridged solve returns 0, so
// the statistic is 0 and nothing is detected. A constant (DC-only)
// window carries no cyclic feature; its statistic is finite and far
// below any threshold (about 0.6 at 2048 samples).
type DG struct {
	// Cycles are the candidate cycle frequencies in cycles per sample
	// (non-zero, |α| < 1). At least one is required. Use CyclesForBins to
	// derive them from an scf.Params alpha-candidate set.
	Cycles []float64
	// Lags are the cyclic-autocorrelation lags tested jointly (default
	// 1,2,3,4). Lag 0 works but couples the statistic to the noise-power
	// line at frequency -α of the product sequence, costing sensitivity;
	// for cyclic-prefix OFDM set the symbol-body length as a lag.
	Lags []int
	// Pfa is the target false-alarm probability of the closed-form
	// threshold (default 0.05). With multiple cycles the per-cycle level
	// is Šidák-corrected, treating the per-cycle statistics as
	// asymptotically independent.
	Pfa float64
	// SmoothBins is the per-side frequency-smoothing width (in FFT bins
	// of the lag-product sequence) of the covariance estimate. Default
	// max(64, N/4) for an N-sample window, capped to the available
	// spectrum — wide smoothing keeps the estimate's own variance from
	// inflating the chi-square tail (a Hotelling-style degrees-of-freedom
	// correction absorbs the residual).
	SmoothBins int
	// GuardBins excludes the bins nearest the cycle frequency from the
	// covariance estimate (default 2): under H1 the feature line leaks
	// into them, which would inflate the covariance and cost detection
	// probability; under H0 their exclusion is harmless.
	GuardBins int
}

// dgMinWindow is the smallest sample count the asymptotic covariance
// estimate is accepted for.
const dgMinWindow = 256

// CyclesForBins converts non-negative DSCF alpha-candidate bin offsets
// (scf.Params.AlphaCandidates semantics for FFT size k) into the cycle
// frequencies the DG and Urriza tests consume: bin a correlates
// frequency bins f+a and f−a, a separation of α = 2a/k cycles per
// sample. Zero offsets (the PSD row, not a cyclic feature) are dropped.
func CyclesForBins(bins []int, k int) ([]float64, error) {
	if k < 2 {
		return nil, fmt.Errorf("detect: CyclesForBins k=%d must be >= 2", k)
	}
	var out []float64
	for _, a := range bins {
		if a < 0 {
			return nil, fmt.Errorf("detect: negative alpha candidate %d (mirrors are implied)", a)
		}
		if a == 0 {
			continue
		}
		out = append(out, 2*float64(a)/float64(k))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("detect: no non-zero alpha candidates to derive cycle frequencies from")
	}
	return out, nil
}

// Name implements Detector.
func (DG) Name() string { return "dg" }

// withDefaults fills the zero fields.
func (d DG) withDefaults() DG {
	if len(d.Lags) == 0 {
		d.Lags = []int{1, 2, 3, 4}
	}
	if d.Pfa == 0 {
		d.Pfa = 0.05
	}
	if d.GuardBins == 0 {
		d.GuardBins = 2
	}
	return d
}

// validate checks the configured fields.
func (d DG) validate() error {
	if len(d.Cycles) == 0 {
		return fmt.Errorf("detect: DG needs at least one cycle frequency")
	}
	for _, a := range d.Cycles {
		if a == 0 || a <= -1 || a >= 1 {
			return fmt.Errorf("detect: DG cycle frequency %v outside non-zero (-1,1)", a)
		}
	}
	seen := map[int]bool{}
	for _, l := range d.Lags {
		if l < 0 {
			return fmt.Errorf("detect: DG lag %d negative", l)
		}
		if seen[l] {
			return fmt.Errorf("detect: DG lag %d duplicated", l)
		}
		seen[l] = true
	}
	if d.Pfa <= 0 || d.Pfa >= 1 {
		return fmt.Errorf("detect: DG Pfa=%v outside (0,1)", d.Pfa)
	}
	return nil
}

// DoF returns the chi-square degrees of freedom of the per-cycle
// statistic: twice the lag count (real and imaginary parts).
func (d DG) DoF() int {
	d = d.withDefaults()
	return 2 * len(d.Lags)
}

// Threshold returns the closed-form detection threshold for the
// configured target Pfa: the chi-square quantile at the Šidák-corrected
// per-cycle level 1−(1−Pfa)^(1/len(Cycles)).
func (d DG) Threshold() (float64, error) {
	d = d.withDefaults()
	if err := d.validate(); err != nil {
		return 0, err
	}
	per := 1 - math.Pow(1-d.Pfa, 1/float64(len(d.Cycles)))
	return InvChiSquareCDF(1-per, d.DoF())
}

// Statistic implements Detector: the maximum generalized chi-square
// statistic over the candidate cycles.
func (d DG) Statistic(x []complex128) (float64, error) {
	d = d.withDefaults()
	if err := d.validate(); err != nil {
		return 0, err
	}
	return d.statistic(x, true)
}

// Decide evaluates the detector against its closed-form threshold.
func (d DG) Decide(x []complex128) (Decision, error) {
	th, err := d.Threshold()
	if err != nil {
		return Decision{}, err
	}
	stat, err := d.Statistic(x)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Detector: d.Name(), Statistic: stat, Threshold: th, Detected: stat > th}, nil
}

// dgScratch is one decision's working memory, recycled through
// dgScratches so a steady stream of decisions allocates nothing.
type dgScratch struct {
	lagSpectra []complex128 // one underotated size-point spectrum per lag
	rotated    []complex128 // one off-grid cycle's derotated lag spectra
	g          []complex128 // one lag-product sequence, zero-padded
	rot        []complex128 // e^{-j2παt} of the off-grid cycle
	c          []complex128 // c_τ = √n · r̂(α, τ)
	qc, qp     []complex128 // Q* and Q, p×p row-major
	sigma      []float64    // covariance of ξ, dim×dim row-major
	xi         []float64    // ξ = [Re c; Im c]
	spd        spdSolver
}

var dgScratches scratchList[dgScratch]

// statistic computes the statistic of a defaulted, validated DG. All
// lag-product sequences share the support t ∈ [0, n) and are
// zero-padded to size = nextPow2(n) bins. For a cycle with α·size an
// integer (every CyclesForBins cycle once size ≥ K/2), derotating by
// e^{-j2παt} circularly shifts the spectrum by sh = α·size bins, so such
// a cycle reads shifted bins of one underotated spectrum per lag: one
// FFT per lag for all on-grid cycles. Off-grid cycles, and every cycle
// when shared is false (the per-cycle reference the shared path is
// tested against), derotate and transform their own lag products.
func (d DG) statistic(x []complex128, shared bool) (float64, error) {
	maxLag := 0
	for _, l := range d.Lags {
		if l > maxLag {
			maxLag = l
		}
	}
	n := len(x) - maxLag
	if n < dgMinWindow {
		return 0, fmt.Errorf("detect: DG needs >= %d samples beyond the largest lag, have %d",
			dgMinWindow, n)
	}
	size := nextPow2(n)
	plan, err := fft.PlanFor(size)
	if err != nil {
		return 0, err
	}
	smooth := d.SmoothBins
	if smooth == 0 {
		smooth = n / 4
		if smooth < 64 {
			smooth = 64
		}
	}
	// Padding dilates bin spacing by size/n; scale the smoothing span so
	// it covers the intended fraction of the spectrum, and keep it inside
	// the half-spectrum.
	smooth = smooth * size / n
	guard := d.GuardBins * size / n
	if smooth > size/2-guard-1 {
		smooth = size/2 - guard - 1
	}
	if smooth < 8 {
		return 0, fmt.Errorf("detect: DG smoothing span %d too narrow (window too short?)", smooth)
	}
	p := len(d.Lags)
	sc := dgScratches.get()
	defer dgScratches.put(sc)
	sc.g = grow(sc.g, size)
	sc.c = grow(sc.c, p)
	rootN := complex(math.Sqrt(float64(n)), 0)
	haveLagSpectra := false
	best := math.Inf(-1)
	for _, alpha := range d.Cycles {
		var spectra []complex128
		sh := 0
		if v := alpha * float64(size); shared && v == math.Trunc(v) {
			sc.lagSpectra = grow(sc.lagSpectra, p*size)
			spectra, sh = sc.lagSpectra, fft.RootIdx(int(v), size)
			for i, lag := range d.Lags {
				if !haveLagSpectra {
					lagProduct(sc.g, x, lag, n)
					if err := plan.Forward(spectra[i*size:(i+1)*size], sc.g); err != nil {
						return 0, err
					}
				}
				sc.c[i] = spectra[i*size+sh] / rootN
			}
			haveLagSpectra = true
		} else {
			sc.rot = grow(sc.rot, n)
			derotation(sc.rot, alpha)
			sc.rotated = grow(sc.rotated, p*size)
			spectra = sc.rotated
			for i, lag := range d.Lags {
				g := lagProduct(sc.g, x, lag, n)
				var sum complex128
				for t, r := range sc.rot {
					g[t] *= r
					sum += g[t]
				}
				sc.c[i] = sum / rootN
				if err := plan.Forward(spectra[i*size:(i+1)*size], g); err != nil {
					return 0, err
				}
			}
		}
		t, err := sc.hotelling(spectra, size, sh, n, smooth, guard)
		if err != nil {
			return 0, err
		}
		if t > best {
			best = t
		}
	}
	return best, nil
}

// hotelling forms one cycle's statistic from sc.c and the p lag spectra
// in spectra (size bins each, back to back) whose bin sh is the cycle
// frequency: bin 0 of the derotated product.
func (sc *dgScratch) hotelling(spectra []complex128, size, sh, n, smooth, guard int) (float64, error) {
	p := len(sc.c)
	// Frequency-smoothed covariance of the c vector: the spectral density
	// Q*(m,n) = S_{g_m g_n}(0) and the conjugate (pseudo) density
	// Q(m,n) = E[c_m c_n], both averaged over the bins around the cycle
	// frequency, excluding the guard zone where the H1 feature line
	// leaks. Q* is Hermitian and Q symmetric, so only j >= m is summed;
	// the mirrored entries are the same bits the sum would give.
	norm := 1 / (float64(n) * float64(2*smooth))
	mask := size - 1
	sc.qc = grow(sc.qc, p*p)
	sc.qp = grow(sc.qp, p*p)
	qc, qp := sc.qc, sc.qp
	for m := 0; m < p; m++ {
		gm := spectra[m*size : (m+1)*size]
		for j := m; j < p; j++ {
			gj := spectra[j*size : (j+1)*size]
			var cc, cp complex128
			for s := guard + 1; s <= guard+smooth; s++ {
				pos, neg := (s+sh)&mask, (size-s+sh)&mask
				cc += gm[pos]*conj(gj[pos]) + gm[neg]*conj(gj[neg])
				cp += gm[neg]*gj[pos] + gm[pos]*gj[neg]
			}
			qc[m*p+j] = cc * complex(norm, 0)
			qp[m*p+j] = cp * complex(norm, 0)
			qc[j*p+m] = conj(qc[m*p+j])
			qp[j*p+m] = qp[m*p+j]
		}
	}
	// Real covariance of ξ = [Re c; Im c] from the complex blocks:
	// E[Re u Re v] = ½Re(Q+Q*), E[Re u Im v] = ½Im(Q−Q*),
	// E[Im u Re v] = ½Im(Q+Q*), E[Im u Im v] = ½Re(Q*−Q).
	dim := 2 * p
	sc.sigma = grow(sc.sigma, dim*dim)
	sigma := sc.sigma
	for m := 0; m < p; m++ {
		for j := 0; j < p; j++ {
			q, qs := qp[m*p+j], qc[m*p+j]
			sigma[m*dim+j] = 0.5 * (real(q) + real(qs))
			sigma[m*dim+j+p] = 0.5 * (imag(q) - imag(qs))
			sigma[(m+p)*dim+j] = 0.5 * (imag(q) + imag(qs))
			sigma[(m+p)*dim+j+p] = 0.5 * (real(qs) - real(q))
		}
	}
	sc.xi = grow(sc.xi, dim)
	xi := sc.xi
	for i, v := range sc.c {
		xi[i] = real(v)
		xi[i+p] = imag(v)
	}
	y, err := sc.spd.solve(sigma, xi)
	if err != nil {
		return 0, err
	}
	t := 0.0
	for i := range xi {
		t += xi[i] * y[i]
	}
	// Hotelling correction: with the covariance estimated from ν
	// effective independent bins (zero-padding correlates adjacent bins
	// by size/n, so ν counts natural-resolution bins), ξΣ̂⁻¹ξᵀ follows a
	// scaled F rather than a chi-square; scaling by (ν−dim+1)/ν brings
	// the tail back onto the chi-square quantiles.
	nu := 2 * float64(smooth) * float64(n) / float64(size)
	if f := (nu - float64(dim) + 1) / nu; f > 0 {
		t *= f
	}
	return t, nil
}

// derotation fills rot with e^{-j2παt} for t in [0, len(rot)) by
// complex recurrence, renormalized periodically so drift stays far
// below the estimation noise.
func derotation(rot []complex128, alpha float64) {
	s, c := math.Sincos(-2 * math.Pi * alpha)
	step := complex(c, s)
	w := complex(1, 0)
	for t := range rot {
		rot[t] = w
		w *= step
		if t&255 == 255 {
			mag := math.Hypot(real(w), imag(w))
			w /= complex(mag, 0)
		}
	}
}

// lagProduct fills g[:n] with the lag product x(t+lag)·conj(x(t)),
// zero-pads the rest of g and returns it.
func lagProduct(g, x []complex128, lag, n int) []complex128 {
	for t := 0; t < n; t++ {
		re, im := real(x[t+lag]), imag(x[t+lag])
		xr, xi := real(x[t]), imag(x[t])
		g[t] = complex(re*xr+im*xi, im*xr-re*xi)
	}
	clear(g[n:])
	return g
}

// conj avoids pulling in math/cmplx for a one-liner.
func conj(v complex128) complex128 { return complex(real(v), -imag(v)) }

// nextPow2 returns the smallest power of two >= n.
func nextPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// spdSolver solves A·y = b for a symmetric positive (semi)definite A
// by Gaussian elimination with partial pivoting, ridging the diagonal by
// a tiny multiple of its mean so a near-singular covariance estimate
// degrades gracefully instead of failing. Its work matrix and result
// are reused across solves.
type spdSolver struct {
	cells []float64   // the augmented [A+ridge | b], dim×(dim+1)
	rows  [][]float64 // row headers into cells, swapped by pivoting
	y     []float64
}

// solve solves for the dim×dim row-major a, dim = len(b). The returned
// slice is valid until the next solve.
func (s *spdSolver) solve(a, b []float64) ([]float64, error) {
	dim := len(b)
	s.cells = grow(s.cells, dim*(dim+1))
	s.rows = grow(s.rows, dim)
	m := s.rows
	tr := 0.0
	for i := 0; i < dim; i++ {
		tr += a[i*dim+i]
	}
	ridge := 1e-12 * tr / float64(dim)
	if ridge <= 0 {
		ridge = 1e-300
	}
	for i := 0; i < dim; i++ {
		m[i] = s.cells[i*(dim+1) : (i+1)*(dim+1)]
		copy(m[i], a[i*dim:(i+1)*dim])
		m[i][i] += ridge
		m[i][dim] = b[i]
	}
	for col := 0; col < dim; col++ {
		piv := col
		for r := col + 1; r < dim; r++ {
			if math.Abs(m[r][col]) > math.Abs(m[piv][col]) {
				piv = r
			}
		}
		m[col], m[piv] = m[piv], m[col]
		if m[col][col] == 0 {
			return nil, fmt.Errorf("detect: singular covariance estimate")
		}
		inv := 1 / m[col][col]
		for r := col + 1; r < dim; r++ {
			f := m[r][col] * inv
			if f == 0 {
				continue
			}
			for cc := col; cc <= dim; cc++ {
				m[r][cc] -= f * m[col][cc]
			}
		}
	}
	s.y = grow(s.y, dim)
	y := s.y
	for i := dim - 1; i >= 0; i-- {
		v := m[i][dim]
		for j := i + 1; j < dim; j++ {
			v -= m[i][j] * y[j]
		}
		y[i] = v / m[i][i]
	}
	return y, nil
}
