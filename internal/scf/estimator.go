package scf

// Estimator is the pluggable spectral-correlation estimator interface.
// Every estimator consumes a sampled band and produces the same Surface
// grid the detectors, scanners and plotting tools consume, plus the
// work Stats the complexity experiments compare. Implementations:
//
//   - Direct (this package): the paper's direct DSCF — K-point FFT per
//     block plus one complex multiplication per grid cell per block.
//   - fam.FAM: the FFT Accumulation Method — overlapping windowed
//     channelizer, downconversion, second FFT across blocks.
//   - fam.SSCA: the Strip Spectral Correlation Analyzer — channelizer
//     against the full-rate conjugate signal, one long strip FFT per
//     channel.
//
// Estimators must be safe for concurrent use by multiple goroutines on
// distinct inputs (they are value types holding only configuration).
type Estimator interface {
	// Name identifies the estimator in reports ("direct", "fam", "ssca").
	Name() string
	// Estimate computes the spectral-correlation surface of x. It returns
	// an error when x is shorter than the estimator's configuration
	// requires.
	Estimate(x []complex128) (*Surface, *Stats, error)
}

// Direct is the paper's direct DSCF (Compute) behind the Estimator
// interface: per integration step a K-point FFT followed by the
// X_{n,f+a}·conj(X_{n,f-a}) product for every grid cell — the "16× as
// many multiplications as the FFT" path the tiled SoC accelerates.
type Direct struct {
	// Params configures the computation; zero fields take the paper's
	// defaults (K=256, M=K/4, Blocks=1, Hop=K).
	Params Params
}

// Name implements Estimator.
func (Direct) Name() string { return "direct" }

// Estimate implements Estimator.
func (e Direct) Estimate(x []complex128) (*Surface, *Stats, error) {
	return Compute(x, e.Params)
}

// CandidateEstimator is a streaming estimator that supports
// alpha-candidate pruning: WithAlphaCandidates derives a variant
// restricted to the given candidate rows (Params.AlphaCandidates
// semantics — non-negative bin offsets, mirrors implied, a=0 always
// kept). The stream engine uses it to give each channel its own
// candidate set. Every streaming estimator implements it: Direct,
// fam.FAM, fam.SSCA and their Q15 twins.
type CandidateEstimator interface {
	StreamingEstimator
	// WithAlphaCandidates returns a copy of the estimator restricted to
	// the candidate rows, or an error for an invalid set (out of range,
	// duplicates). An empty set returns the estimator unchanged.
	WithAlphaCandidates(alphas []int) (StreamingEstimator, error)
}

// WithAlphaCandidates implements CandidateEstimator.
func (e Direct) WithAlphaCandidates(alphas []int) (StreamingEstimator, error) {
	if len(alphas) == 0 {
		return e, nil
	}
	p := e.Params.WithDefaults()
	p.AlphaCandidates = append([]int(nil), alphas...)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var _ CandidateEstimator = Direct{}

// TotalMults returns the estimator's total complex-multiplication count,
// the figure the estimator benchmarks compare side by side.
func (s Stats) TotalMults() int { return s.FFTMults + s.DSCFMults }
