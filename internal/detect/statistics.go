package detect

import (
	"fmt"
	"math"

	"tiledcfd/internal/scf"
)

// EnergyStatistic returns the normalised energy of x: mean |x|² divided by
// the assumed noise power. Under noise-only input the expectation is 1;
// a present signal shifts it to 1+SNR.
func EnergyStatistic(x []complex128, noisePower float64) (float64, error) {
	if len(x) == 0 {
		return 0, fmt.Errorf("detect: empty input")
	}
	if noisePower <= 0 {
		return 0, fmt.Errorf("detect: noise power %v must be positive", noisePower)
	}
	var e float64
	for _, v := range x {
		e += real(v)*real(v) + imag(v)*imag(v)
	}
	return e / (float64(len(x)) * noisePower), nil
}

// CFDStatistic returns the blind cyclostationary feature statistic of a
// DSCF surface: the largest cycle-frequency profile value over |a| >=
// minAbsA, normalised by the a=0 (PSD) profile value. Noise-only input
// concentrates all correlation at a=0, so the statistic is small and,
// crucially, independent of the absolute noise level. On an alpha-pruned
// surface the search runs over the held candidate rows only. It is
// CFDStatisticProfile of the surface's profile.
func CFDStatistic(s *scf.Surface, minAbsA int) (float64, error) {
	return withProfile(s, func(p *scf.Profile) (float64, error) { return CFDStatisticProfile(p, minAbsA) })
}

// CFDStatisticProfile returns the CFD statistic (see CFDStatistic) of a
// surface's profile.
func CFDStatisticProfile(p *scf.Profile, minAbsA int) (float64, error) {
	if minAbsA < 1 || minAbsA > p.M-1 {
		return 0, fmt.Errorf("detect: minAbsA=%d outside [1,%d]", minAbsA, p.M-1)
	}
	base := 0.0
	for i, v := range p.Sum {
		if p.Alpha(i) == 0 {
			base = v
		}
	}
	if base <= 0 {
		return 0, fmt.Errorf("detect: zero PSD row, cannot normalise")
	}
	best := 0.0
	for i, v := range p.Sum {
		a := p.Alpha(i)
		if a >= minAbsA || a <= -minAbsA {
			if r := v / base; r > best {
				best = r
			}
		}
	}
	return best, nil
}

// KnownCycleStatistic returns the single-correlator statistic at the known
// cycle offset a: the profile at a normalised by the a=0 profile. An
// alpha-pruned surface must hold row a (and row 0, which pruning always
// keeps).
func KnownCycleStatistic(s *scf.Surface, a int) (float64, error) {
	if a == 0 || a > s.M-1 || a < -(s.M-1) {
		return 0, fmt.Errorf("detect: cycle offset %d invalid (non-zero, |a| <= %d)", a, s.M-1)
	}
	if !s.HasRow(a) {
		return 0, fmt.Errorf("detect: cycle offset %d pruned away (surface holds %v)", a, s.AlphaValues())
	}
	prof := s.AlphaProfile()
	alphas := s.AlphaValues()
	base, val := 0.0, 0.0
	for i, av := range alphas {
		switch av {
		case 0:
			base = prof[i]
		case a:
			val = prof[i]
		}
	}
	if base <= 0 {
		return 0, fmt.Errorf("detect: zero PSD row, cannot normalise")
	}
	return val / base, nil
}

// InvQ returns the inverse of the Gaussian tail function
// Q(x) = 0.5·erfc(x/√2): the threshold multiplier for a desired tail
// probability p in (0, 1).
func InvQ(p float64) float64 {
	return math.Sqrt2 * math.Erfcinv(2*p)
}

// EnergyThresholdForPfa returns the energy-statistic threshold achieving
// (approximately, by the central limit theorem) the desired false-alarm
// probability with n complex samples of exactly known noise power:
// τ = 1 + Q⁻¹(pfa)·√(1/n) for complex noise (the statistic's standard
// deviation under H0 is 1/√n).
func EnergyThresholdForPfa(n int, pfa float64) (float64, error) {
	if n < 1 {
		return 0, fmt.Errorf("detect: n=%d must be >= 1", n)
	}
	if pfa <= 0 || pfa >= 1 {
		return 0, fmt.Errorf("detect: pfa=%v outside (0,1)", pfa)
	}
	return 1 + InvQ(pfa)/math.Sqrt(float64(n)), nil
}
