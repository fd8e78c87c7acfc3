package quant

import (
	"fmt"
	"math"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// ROCConfig parameterises a detector ROC sweep: estimator × detector ×
// modulation × SNR, each curve traced by sweeping the detector's
// operating parameter (target Pfa for the asymptotic tests, the
// peak-over-floor scale for cfar) and measuring Pd and Pfa by Monte
// Carlo — the measurement that validates the closed-form thresholds
// against reality.
type ROCConfig struct {
	// K is the estimation geometry's FFT size (default 64); the
	// modulation presets' cycle-frequency bins are expressed at this K.
	K int
	// Samples is the window length per trial (default 4096).
	Samples int
	// Trials is the Monte-Carlo count per hypothesis per curve
	// (default 200; at least 2).
	Trials int
	// Estimators names the surface estimators swept (default direct,
	// fam). Sample-based detectors (dg, urriza) decide on the raw window
	// whichever estimator the channel runs — their curves are measured
	// once and reported under every estimator tag, which is exactly the
	// engine's behaviour; cfar curves are measured per estimator, whose
	// surfaces genuinely differ.
	Estimators []string
	// Detectors names the decision layers swept (default dg, urriza;
	// cfar is also accepted).
	Detectors []string
	// Modulations names the licensed-user waveforms swept (default
	// bpsk, msk, ofdm, scfdma). Each has a preset cycle set at K=64.
	Modulations []string
	// SNRsDB are the H1 signal-to-noise ratios swept (default -2, 2, 6,
	// 10).
	SNRsDB []float64
	// TargetPfas are the asymptotic detectors' operating points
	// (default 0.01, 0.05, 0.1, 0.2).
	TargetPfas []float64
	// CFARScales are the cfar detector's operating points (default 1.5,
	// 2, 3, 4).
	CFARScales []float64
	// Confidence sets the binomial confidence interval of the
	// Pfa-accuracy check (default 0.95).
	Confidence float64
	// Seed makes the sweep deterministic (default 1).
	Seed uint64
}

// withDefaults fills the zero fields.
func (c ROCConfig) withDefaults() ROCConfig {
	if c.K == 0 {
		c.K = 64
	}
	if c.Samples == 0 {
		c.Samples = 4096
	}
	if c.Trials == 0 {
		c.Trials = 200
	}
	if len(c.Estimators) == 0 {
		c.Estimators = []string{"direct", "fam"}
	}
	if len(c.Detectors) == 0 {
		c.Detectors = []string{"dg", "urriza"}
	}
	if len(c.Modulations) == 0 {
		c.Modulations = []string{"bpsk", "msk", "ofdm", "scfdma"}
	}
	if len(c.SNRsDB) == 0 {
		c.SNRsDB = []float64{-2, 2, 6, 10}
	}
	if len(c.TargetPfas) == 0 {
		c.TargetPfas = []float64{0.01, 0.05, 0.1, 0.2}
	}
	if len(c.CFARScales) == 0 {
		c.CFARScales = []float64{1.5, 2, 3, 4}
	}
	if c.Confidence == 0 {
		c.Confidence = 0.95
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ROCPoint is one operating point of one curve.
type ROCPoint struct {
	// TargetPfa is the asymptotic detectors' configured false-alarm
	// probability (0 for cfar, whose operating parameter is the scale).
	TargetPfa float64 `json:"target_pfa,omitempty"`
	// Threshold is the decision threshold actually applied — closed-form
	// from TargetPfa for dg/urriza, the scale itself for cfar.
	Threshold float64 `json:"threshold"`
	// MeasuredPfa is the H0 false-alarm fraction over Trials windows.
	MeasuredPfa float64 `json:"measured_pfa"`
	// CILow/CIHigh bracket the binomial confidence interval around
	// TargetPfa at the configured Confidence (asymptotic detectors
	// only).
	CILow  float64 `json:"ci_low,omitempty"`
	CIHigh float64 `json:"ci_high,omitempty"`
	// PfaWithinCI reports the Pfa-accuracy check: MeasuredPfa inside
	// [CILow, CIHigh]. Always true for cfar, which promises no Pfa.
	PfaWithinCI bool `json:"pfa_within_ci"`
	// Pd are the H1 detection fractions, aligned with the report's
	// SNRsDB.
	Pd []float64 `json:"pd"`
}

// ROCCurve is one estimator × detector × modulation family of operating
// points.
type ROCCurve struct {
	Estimator  string `json:"estimator"`
	Detector   string `json:"detector"`
	Modulation string `json:"modulation"`
	// AlphaBins is the candidate cycle set tested (bin offsets at the
	// report's K); Lags the dg lag set when it departs from the default.
	AlphaBins []int      `json:"alpha_bins"`
	Lags      []int      `json:"lags,omitempty"`
	Points    []ROCPoint `json:"points"`
}

// ROCReport is a completed ROC sweep.
type ROCReport struct {
	K          int        `json:"k"`
	Samples    int        `json:"samples"`
	Trials     int        `json:"trials"`
	Confidence float64    `json:"confidence"`
	SNRsDB     []float64  `json:"snrs_db"`
	Curves     []ROCCurve `json:"curves"`
}

// rocModulation is one waveform preset: a source constructor plus the
// cycle set its features live at (bin offsets at K=64) and the dg lag
// set that sees them. The bins come from a DG cycle-frequency scan of
// each waveform: bpsk peaks at 2f_c (a=8) with symbol-rate sidelobes,
// msk at 2f_c±1/(2T) (a=10, a=6), and the CP waveforms at the symbol
// rate 1/(NFFT+CP) (a=2, a=4) — visible only at lag NFFT, where the
// cyclic prefix correlates with the symbol tail.
type rocModulation struct {
	name string
	bins []int
	lags []int
	mk   func(rng *sig.Rand) sig.Source
}

// rocModulations returns the preset table (K=64 bin offsets).
func rocModulations() []rocModulation {
	return []rocModulation{
		{"bpsk", []int{8, 4}, nil, func(rng *sig.Rand) sig.Source {
			return &sig.BPSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}
		}},
		{"msk", []int{10, 6}, nil, func(rng *sig.Rand) sig.Source {
			return &sig.MSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}
		}},
		{"ofdm", []int{2, 4}, []int{12}, func(rng *sig.Rand) sig.Source {
			return &sig.OFDM{Amp: 1, NFFT: 12, CP: 4, ActiveLow: 1, ActiveHigh: 10, Rng: rng}
		}},
		{"scfdma", []int{2, 4}, []int{12}, func(rng *sig.Rand) sig.Source {
			return &sig.SCFDMA{Amp: 1, NFFT: 12, CP: 4, Spread: 8, Start: 1, Rng: rng}
		}},
	}
}

// rocStatistic computes one window's detection statistic; thresholds
// are derived separately per operating point so each window is measured
// once and swept across every point.
type rocStatistic func(x []complex128, s *scf.Surface) (float64, error)

// RunROC executes the ROC sweep. Every curve's statistics are computed
// once per hypothesis and compared against each operating point's
// threshold — the detectors' statistics do not depend on the target
// Pfa, only the thresholds do.
func RunROC(cfg ROCConfig) (*ROCReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Trials < 2 {
		return nil, fmt.Errorf("quant: ROC needs >= 2 trials per hypothesis, got %d", cfg.Trials)
	}
	rep := &ROCReport{
		K: cfg.K, Samples: cfg.Samples, Trials: cfg.Trials,
		Confidence: cfg.Confidence, SNRsDB: cfg.SNRsDB,
	}
	presets := map[string]rocModulation{}
	for _, m := range rocModulations() {
		presets[m.name] = m
	}
	seed := cfg.Seed
	for _, modName := range cfg.Modulations {
		mod, ok := presets[modName]
		if !ok {
			return nil, fmt.Errorf("quant: unknown ROC modulation %q (want bpsk, msk, ofdm, scfdma)", modName)
		}
		cycles, err := detect.CyclesForBins(mod.bins, cfg.K)
		if err != nil {
			return nil, err
		}
		for _, detName := range cfg.Detectors {
			seed += 1009
			switch detName {
			case "dg", "urriza":
				curve, err := rocAsymptoticCurve(cfg, mod, cycles, detName, seed)
				if err != nil {
					return nil, err
				}
				// Sample-based detectors ignore the surface, so one
				// measured curve serves every estimator tag — the same
				// invariance the engine exhibits.
				for _, estName := range cfg.Estimators {
					c := *curve
					c.Estimator = estName
					rep.Curves = append(rep.Curves, c)
				}
			case "cfar":
				for _, estName := range cfg.Estimators {
					curve, err := rocCFARCurve(cfg, mod, estName, seed)
					if err != nil {
						return nil, err
					}
					rep.Curves = append(rep.Curves, *curve)
				}
			default:
				return nil, fmt.Errorf("quant: unknown ROC detector %q (want dg, urriza, cfar)", detName)
			}
		}
	}
	return rep, nil
}

// rocAsymptoticCurve measures one dg/urriza curve: Trials statistics
// under each hypothesis, swept across the TargetPfas' closed-form
// thresholds, with the binomial Pfa-accuracy check per point.
func rocAsymptoticCurve(cfg ROCConfig, mod rocModulation, cycles []float64, detName string, seed uint64) (*ROCCurve, error) {
	stat, thresholdAt, lags, err := asymptoticStatistic(detName, cycles, mod.lags)
	if err != nil {
		return nil, err
	}
	h0, h1, err := rocStats(cfg, mod, seed, func(x []complex128) (float64, error) { return stat(x) })
	if err != nil {
		return nil, err
	}
	curve := &ROCCurve{Detector: detName, Modulation: mod.name, AlphaBins: mod.bins, Lags: lags}
	for _, pfa := range cfg.TargetPfas {
		th, err := thresholdAt(pfa)
		if err != nil {
			return nil, err
		}
		pt := ROCPoint{TargetPfa: pfa, Threshold: th}
		pt.MeasuredPfa = exceedFraction(h0, th)
		if pt.CILow, pt.CIHigh, err = detect.BinomialCI(pfa, cfg.Trials, cfg.Confidence); err != nil {
			return nil, err
		}
		pt.PfaWithinCI = pt.MeasuredPfa >= pt.CILow && pt.MeasuredPfa <= pt.CIHigh
		for _, stats := range h1 {
			pt.Pd = append(pt.Pd, exceedFraction(stats, th))
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}

// asymptoticStatistic builds the statistic evaluator and the
// pfa→threshold map of one sample-based detector.
func asymptoticStatistic(detName string, cycles []float64, lags []int) (func([]complex128) (float64, error), func(float64) (float64, error), []int, error) {
	switch detName {
	case "dg":
		dg := detect.DG{Cycles: cycles, Lags: lags}
		return dg.Statistic, func(pfa float64) (float64, error) {
			d := dg
			d.Pfa = pfa
			return d.Threshold()
		}, lags, nil
	case "urriza":
		ur := detect.Urriza{Cycles: cycles}
		return ur.Statistic, func(pfa float64) (float64, error) {
			u := ur
			u.Pfa = pfa
			return u.Threshold()
		}, nil, nil
	}
	return nil, nil, nil, fmt.Errorf("quant: no asymptotic statistic for %q", detName)
}

// rocCFARCurve measures one cfar curve on the named estimator's
// surface, swept across the scale operating points. CFAR calibrates
// itself against the surface's own noise floor and promises no Pfa, so
// the accuracy check is vacuously true and the curve reports measured
// rates only. Unlike the asymptotic detectors, CFAR needs the full
// alpha surface — its noise floor comes from the off-peak rows, which a
// pruned candidate set would remove — so AlphaBins stays empty here.
func rocCFARCurve(cfg ROCConfig, mod rocModulation, estName string, seed uint64) (*ROCCurve, error) {
	est, err := rocEstimator(cfg, estName, nil)
	if err != nil {
		return nil, err
	}
	cfar := detect.CFAR{MinAbsA: 2, Scale: cfg.CFARScales[0]}
	statFn := func(x []complex128) (float64, error) {
		s, _, err := est.Estimate(x)
		if err != nil {
			return 0, err
		}
		cd, err := cfar.Examine(s)
		if err != nil {
			return 0, err
		}
		return cd.Statistic, nil
	}
	h0, h1, err := rocStats(cfg, mod, seed, statFn)
	if err != nil {
		return nil, err
	}
	curve := &ROCCurve{Estimator: estName, Detector: "cfar", Modulation: mod.name}
	for _, scale := range cfg.CFARScales {
		pt := ROCPoint{Threshold: scale, PfaWithinCI: true}
		pt.MeasuredPfa = exceedFraction(h0, scale)
		for _, stats := range h1 {
			pt.Pd = append(pt.Pd, exceedFraction(stats, scale))
		}
		curve.Points = append(curve.Points, pt)
	}
	return curve, nil
}

// rocEstimator builds the named surface estimator over the ROC geometry
// with the modulation's candidate set.
func rocEstimator(cfg ROCConfig, name string, bins []int) (scf.Estimator, error) {
	p := scf.Params{K: cfg.K, M: cfg.K / 4, AlphaCandidates: bins}
	switch name {
	case "direct":
		p.Blocks = cfg.Samples / cfg.K
		return scf.Direct{Params: p}, nil
	case "fam":
		return fam.FAM{Params: p}, nil
	case "ssca":
		return fam.SSCA{Params: p}, nil
	}
	return nil, fmt.Errorf("quant: unknown ROC estimator %q (want direct, fam, ssca)", name)
}

// rocStats runs the Monte-Carlo trials of one curve: Trials H0 windows
// (unit complex white noise) and Trials H1 windows per SNR (the
// modulated user plus calibrated noise), returning each window's
// statistic.
func rocStats(cfg ROCConfig, mod rocModulation, seed uint64, stat func([]complex128) (float64, error)) (h0 []float64, h1 [][]float64, err error) {
	rng := sig.NewRand(seed)
	h0 = make([]float64, cfg.Trials)
	for t := range h0 {
		x := sig.Samples(&sig.WGN{Sigma: 1, Rng: rng}, cfg.Samples)
		if h0[t], err = stat(x); err != nil {
			return nil, nil, fmt.Errorf("quant: %s H0 trial %d: %w", mod.name, t, err)
		}
	}
	h1 = make([][]float64, len(cfg.SNRsDB))
	for i, snr := range cfg.SNRsDB {
		h1[i] = make([]float64, cfg.Trials)
		for t := range h1[i] {
			x := sig.Samples(mod.mk(rng), cfg.Samples)
			if x, _, err = sig.AddAWGN(x, snr, false, rng); err != nil {
				return nil, nil, err
			}
			if h1[i][t], err = stat(x); err != nil {
				return nil, nil, fmt.Errorf("quant: %s H1 trial %d at %g dB: %w", mod.name, t, snr, err)
			}
		}
	}
	return h0, h1, nil
}

// exceedFraction is the fraction of statistics above the threshold.
func exceedFraction(stats []float64, threshold float64) float64 {
	n := 0
	for _, s := range stats {
		if s > threshold {
			n++
		}
	}
	return float64(n) / float64(len(stats))
}

// PfaAccuracy summarises the report's Pfa-accuracy checks: the worst
// absolute error between measured and target Pfa across asymptotic
// points, and the list of points outside their confidence interval —
// the CI gate cfdbench applies to the detection scenario.
func (r *ROCReport) PfaAccuracy() (worstErr float64, failures []string) {
	for _, c := range r.Curves {
		for _, p := range c.Points {
			if p.TargetPfa == 0 {
				continue
			}
			if e := math.Abs(p.MeasuredPfa - p.TargetPfa); e > worstErr {
				worstErr = e
			}
			if !p.PfaWithinCI {
				failures = append(failures, fmt.Sprintf("%s/%s/%s pfa=%g measured=%g outside [%g, %g]",
					c.Estimator, c.Detector, c.Modulation, p.TargetPfa, p.MeasuredPfa, p.CILow, p.CIHigh))
			}
		}
	}
	return worstErr, failures
}
