package core

import (
	"fmt"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/perf"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/soc"
)

// Config configures a spectrum-sensing run.
type Config struct {
	// SoC is the platform configuration; zero fields take the paper's
	// values (K=256, M=64, Q=4, 100 MHz).
	SoC soc.Config
	// Decider is the decision layer (build one with detect.NewDecider):
	// surface detectors (cfar, fixed) evaluate the computed surface,
	// sample-based asymptotic tests (dg, urriza) evaluate the raw input
	// window. nil computes the surface only and leaves Result.Decision
	// zero.
	Decider detect.Decider
	// InputScale is the peak amplitude the input is conditioned to before
	// Q15 quantisation (default 0.5, leaving 6 dB of headroom).
	InputScale float64
	// Perf supplies the technology constants; zero takes the paper's.
	Perf perf.Model
	// Estimator selects a software reference estimator (scf.Direct,
	// fam.FAM, fam.SSCA) for the decision surface instead of the
	// bit-true fixed-point platform simulation. nil keeps the paper's
	// hardware path. On the estimator path Result.Fixed and
	// Result.Report are nil, Result.Stats carries the estimator's work
	// counts, and the evaluation figures are zero (no hardware cycles
	// are measured).
	Estimator scf.Estimator
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	c.SoC = c.SoC.WithDefaults()
	if c.InputScale == 0 {
		c.InputScale = 0.5
	}
	if c.Perf == (perf.Model{}) {
		c.Perf = perf.Paper()
	}
	return c
}

// Result is the outcome of one spectrum-sensing run.
type Result struct {
	// Fixed is the raw Q15 DSCF read from the tiles' memories (nil on
	// the software-estimator path).
	Fixed *scf.FixedSurface
	// Surface is the decision surface: the float view of Fixed on the
	// platform path, or the estimator's output on the software path.
	Surface *scf.Surface
	// Report is the platform execution report (per-tile Table 1, cycles,
	// NoC traffic); nil on the software-estimator path.
	Report *soc.Report
	// Stats carries the software estimator's work counts; nil on the
	// platform path, which reports cycles instead.
	Stats *scf.Stats
	// Decision is the detector verdict on the surface (zero when
	// Config.Decider is nil).
	Decision detect.Decision
	// Evaluation figures derived from the measured cycles (section 5).
	BlockTimeMicros      float64
	AnalysedBandwidthkHz float64
	AreaMM2              float64
	PowerMW              float64
}

// Run executes spectrum sensing over the sampled band x.
func Run(x []complex128, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if err := cfg.SoC.Validate(); err != nil {
		return nil, err
	}
	if cfg.InputScale <= 0 || cfg.InputScale > 1 {
		return nil, fmt.Errorf("core: InputScale %v outside (0,1]", cfg.InputScale)
	}
	if cfg.Estimator != nil {
		return runEstimator(x, cfg)
	}
	need := cfg.SoC.K * cfg.SoC.Blocks
	if len(x) < need {
		return nil, fmt.Errorf("core: need %d samples, have %d", need, len(x))
	}
	// Condition to Q15: scale a copy so the peak component sits at
	// InputScale. The CFD statistic is self-normalising, so the gain does
	// not bias the decision.
	cond := make([]complex128, need)
	copy(cond, x[:need])
	fixed.ScaleSliceFloat(cond, cfg.InputScale)
	qx := fixed.FromFloatSlice(cond)

	platform, err := soc.New(cfg.SoC)
	if err != nil {
		return nil, err
	}
	fx, report, err := platform.Run(qx)
	if err != nil {
		return nil, err
	}
	surface := fx.Float(cfg.SoC.Blocks)
	decision, err := cfg.decide(surface, x[:need])
	if err != nil {
		return nil, err
	}
	bt := cfg.Perf.BlockTimeMicros(report.CyclesPerBlock)
	return &Result{
		Fixed:                fx,
		Surface:              surface,
		Report:               report,
		Decision:             decision,
		BlockTimeMicros:      bt,
		AnalysedBandwidthkHz: cfg.Perf.AnalysedBandwidthkHz(cfg.SoC.K, bt),
		AreaMM2:              cfg.Perf.AreaMM2(cfg.SoC.Q),
		PowerMW:              cfg.Perf.PowerMW(cfg.SoC.Q),
	}, nil
}

// runEstimator is the software reference path: the decision surface comes
// from the configured scf.Estimator in float64, skipping quantisation and
// the platform simulation. The detection layer is identical to the
// hardware path — the CFD statistic is self-normalising, so verdicts are
// directly comparable across paths.
func runEstimator(x []complex128, cfg Config) (*Result, error) {
	surface, stats, err := cfg.Estimator.Estimate(x)
	if err != nil {
		return nil, fmt.Errorf("core: %s estimator: %w", cfg.Estimator.Name(), err)
	}
	decision, err := cfg.decide(surface, x)
	if err != nil {
		return nil, err
	}
	return &Result{
		Surface:  surface,
		Stats:    stats,
		Decision: decision,
	}, nil
}

// decide applies the configured Decider shared by both paths, stamping
// its registry name; with no Decider there is no decision.
func (c Config) decide(surface *scf.Surface, x []complex128) (detect.Decision, error) {
	if c.Decider == nil {
		return detect.Decision{}, nil
	}
	d, err := c.Decider.Decide(surface, x)
	if err != nil {
		return detect.Decision{}, err
	}
	d.Detector = c.Decider.Name()
	return d, nil
}
