package detect

import (
	"fmt"
	"strings"

	"tiledcfd/internal/scf"
)

// Decider is the pluggable decision layer of the serving stack: given a
// freshly estimated surface and (optionally) the raw samples of the
// window that produced it, it declares whether a signal is present.
// Surface detectors (cfar, fixed) read only the surface's α-profile and
// also implement ProfileDecider, so the engine can hand them the
// profile its fold reduced without building the surface; sample-based
// asymptotic tests (dg, urriza) consume the window samples and ignore
// the surface. Implementations must be safe for concurrent use — one
// Decider instance serves every channel of an engine.
type Decider interface {
	// Name is the registry name the decider was built under, reported in
	// decisions.
	Name() string
	// NeedsSamples reports whether Decide requires the raw window
	// samples. The stream engine buffers a window's samples per channel
	// only when its decider asks for them.
	NeedsSamples() bool
	// TargetPfa is the configured false-alarm probability of an
	// asymptotic-threshold decider, 0 for detectors thresholded by other
	// means (cfar, fixed).
	TargetPfa() float64
	// Decide evaluates one window. Surface detectors may receive nil
	// samples; sample-based detectors may receive a nil surface.
	Decide(s *scf.Surface, samples []complex128) (Decision, error)
}

// ProfileDecider is a Decider that reads only the α-profile of the
// surface (cfar, fixed): Decide(s, x) is DecideProfile of s's profile,
// bit for bit, so a caller holding the profile alone can decide.
type ProfileDecider interface {
	Decider
	DecideProfile(p *scf.Profile) (Decision, error)
}

// DeciderParams carries everything a registry entry may need to build a
// Decider. Unused fields are ignored by detectors that don't consume
// them (CFARScale by dg, Lags by cfar, ...).
type DeciderParams struct {
	// Scf is the estimation geometry; dg/urriza derive their cycle
	// frequencies from its AlphaCandidates (via CyclesForBins) and error
	// without them.
	Scf scf.Params
	// MinAbsA excludes rows nearest the PSD row for the surface
	// detectors (cfar default 2, fixed default 1 — the historical
	// defaults of each path).
	MinAbsA int
	// Threshold is the fixed detector's calibrated decision threshold.
	Threshold float64
	// CFARScale is the cfar detector's peak-over-floor ratio (default 2).
	CFARScale float64
	// TargetPfa is the asymptotic detectors' false-alarm target
	// (default 0.05).
	TargetPfa float64
	// Lags overrides the dg lag set (default 1,2,3,4).
	Lags []int
	// Branches overrides the urriza polyphase order (default 2).
	Branches int
}

// deciderRegistry is the single source of truth for selectable
// deciders, mirroring the estimator registry in the public package: the
// name list in error messages, DeciderNames, and the CLI -detector
// flags all derive from it.
var deciderRegistry = []struct {
	name  string
	build func(DeciderParams) (Decider, error)
}{
	{"cfar", newCFARDecider},
	{"fixed", newFixedDecider},
	{"dg", newDGDecider},
	{"urriza", newUrrizaDecider},
}

// DeciderNames returns the registered decider names in registry order.
func DeciderNames() []string {
	names := make([]string, len(deciderRegistry))
	for i, e := range deciderRegistry {
		names[i] = e.name
	}
	return names
}

// NewDecider builds the named decider from the registry. The "unknown
// detector" error enumerates the registry so it never drifts from the
// actual selection set.
func NewDecider(name string, p DeciderParams) (Decider, error) {
	for _, e := range deciderRegistry {
		if e.name == name {
			return e.build(p)
		}
	}
	return nil, fmt.Errorf("detect: unknown detector %q (want %s)",
		name, strings.Join(DeciderNames(), ", "))
}

// cfarDecider adapts CFAR to the Decider seam.
type cfarDecider struct {
	cfar CFAR
}

func newCFARDecider(p DeciderParams) (Decider, error) {
	if p.CFARScale < 0 {
		return nil, fmt.Errorf("detect: cfar scale %v negative", p.CFARScale)
	}
	return cfarDecider{cfar: CFAR{MinAbsA: p.MinAbsA, Scale: p.CFARScale}}, nil
}

func (cfarDecider) Name() string       { return "cfar" }
func (cfarDecider) NeedsSamples() bool { return false }
func (cfarDecider) TargetPfa() float64 { return 0 }
func (d cfarDecider) Decide(s *scf.Surface, _ []complex128) (Decision, error) {
	return withProfile(s, d.DecideProfile)
}

// DecideProfile implements ProfileDecider.
func (d cfarDecider) DecideProfile(p *scf.Profile) (Decision, error) {
	cd, err := d.cfar.ExamineProfile(p)
	if err != nil {
		return Decision{}, err
	}
	dec := cd.Decision
	dec.Detector = d.Name()
	return dec, nil
}

// fixedDecider thresholds the normalized CFD statistic at an externally
// calibrated level — the paper's own decision rule.
type fixedDecider struct {
	minAbsA   int
	threshold float64
}

func newFixedDecider(p DeciderParams) (Decider, error) {
	if p.Threshold <= 0 {
		return nil, fmt.Errorf("detect: fixed detector needs a positive threshold, got %v", p.Threshold)
	}
	minA := p.MinAbsA
	if minA == 0 {
		minA = 1
	}
	return fixedDecider{minAbsA: minA, threshold: p.Threshold}, nil
}

func (fixedDecider) Name() string       { return "fixed" }
func (fixedDecider) NeedsSamples() bool { return false }
func (fixedDecider) TargetPfa() float64 { return 0 }
func (d fixedDecider) Decide(s *scf.Surface, _ []complex128) (Decision, error) {
	return withProfile(s, d.DecideProfile)
}

// DecideProfile implements ProfileDecider.
func (d fixedDecider) DecideProfile(p *scf.Profile) (Decision, error) {
	stat, err := CFDStatisticProfile(p, d.minAbsA)
	if err != nil {
		return Decision{}, err
	}
	return Decision{
		Detector:  d.Name(),
		Statistic: stat,
		Threshold: d.threshold,
		Detected:  stat > d.threshold,
	}, nil
}

var (
	_ ProfileDecider = cfarDecider{}
	_ ProfileDecider = fixedDecider{}
)

// asymptoticCycles derives the cycle set of the sample-based tests from
// the estimation geometry's alpha candidates.
func asymptoticCycles(p DeciderParams, detector string) ([]float64, error) {
	geom := p.Scf.WithDefaults()
	if len(geom.AlphaCandidates) == 0 {
		return nil, fmt.Errorf("detect: %s detector needs alpha candidates (the cycle set) in the estimation geometry", detector)
	}
	return CyclesForBins(geom.AlphaCandidates, geom.K)
}

// dgDecider adapts DG to the Decider seam. The closed-form threshold is
// computed once, at construction.
type dgDecider struct {
	dg        DG
	threshold float64
}

func newDGDecider(p DeciderParams) (Decider, error) {
	cycles, err := asymptoticCycles(p, "dg")
	if err != nil {
		return nil, err
	}
	dg := DG{Cycles: cycles, Lags: p.Lags, Pfa: p.TargetPfa}.withDefaults()
	th, err := dg.Threshold()
	if err != nil {
		return nil, err
	}
	return dgDecider{dg: dg, threshold: th}, nil
}

func (dgDecider) Name() string         { return "dg" }
func (dgDecider) NeedsSamples() bool   { return true }
func (d dgDecider) TargetPfa() float64 { return d.dg.Pfa }
func (d dgDecider) Decide(_ *scf.Surface, samples []complex128) (Decision, error) {
	stat, err := d.dg.statistic(samples, true)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Detector: d.Name(), Statistic: stat, Threshold: d.threshold, Detected: stat > d.threshold}, nil
}

// urrizaDecider adapts Urriza to the Decider seam. The closed-form
// threshold is computed once, at construction.
type urrizaDecider struct {
	ur        Urriza
	threshold float64
}

func newUrrizaDecider(p DeciderParams) (Decider, error) {
	cycles, err := asymptoticCycles(p, "urriza")
	if err != nil {
		return nil, err
	}
	ur := Urriza{Cycles: cycles, Branches: p.Branches, Pfa: p.TargetPfa}.withDefaults()
	th, err := ur.Threshold()
	if err != nil {
		return nil, err
	}
	return urrizaDecider{ur: ur, threshold: th}, nil
}

func (urrizaDecider) Name() string         { return "urriza" }
func (urrizaDecider) NeedsSamples() bool   { return true }
func (d urrizaDecider) TargetPfa() float64 { return d.ur.Pfa }
func (d urrizaDecider) Decide(_ *scf.Surface, samples []complex128) (Decision, error) {
	stat, err := d.ur.statistic(samples)
	if err != nil {
		return Decision{}, err
	}
	return Decision{Detector: d.Name(), Statistic: stat, Threshold: d.threshold, Detected: stat > d.threshold}, nil
}
