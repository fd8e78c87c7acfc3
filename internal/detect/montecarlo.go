package detect

import (
	"fmt"
	"sort"

	"tiledcfd/internal/sig"
)

// Scenario generates one Monte-Carlo trial input: a sampled block with
// (present=true) or without (present=false) the target signal, using the
// provided generator for all randomness.
type Scenario func(rng *sig.Rand, present bool) []complex128

// PdAtThreshold estimates detection and false-alarm probabilities of a
// detector at a fixed threshold over the given number of trials per
// hypothesis.
func PdAtThreshold(d Detector, sc Scenario, trials int, threshold float64, seed uint64) (pd, pfa float64, err error) {
	if trials < 1 {
		return 0, 0, fmt.Errorf("detect: trials=%d must be >= 1", trials)
	}
	rng := sig.NewRand(seed)
	var detH1, detH0 int
	for i := 0; i < trials; i++ {
		s1, err := d.Statistic(sc(rng, true))
		if err != nil {
			return 0, 0, err
		}
		if s1 > threshold {
			detH1++
		}
		s0, err := d.Statistic(sc(rng, false))
		if err != nil {
			return 0, 0, err
		}
		if s0 > threshold {
			detH0++
		}
	}
	return float64(detH1) / float64(trials), float64(detH0) / float64(trials), nil
}

// CalibrateThreshold estimates the threshold achieving the requested
// false-alarm probability empirically: it runs noise-only trials and
// returns the (1-pfa) quantile of the statistic. This is how a detector
// without a closed-form H0 distribution (the CFD statistics) is fielded.
func CalibrateThreshold(d Detector, sc Scenario, trials int, pfa float64, seed uint64) (float64, error) {
	if trials < 4 {
		return 0, fmt.Errorf("detect: calibration needs >= 4 trials, got %d", trials)
	}
	if pfa <= 0 || pfa >= 1 {
		return 0, fmt.Errorf("detect: pfa=%v outside (0,1)", pfa)
	}
	rng := sig.NewRand(seed)
	stats := make([]float64, trials)
	for i := range stats {
		s, err := d.Statistic(sc(rng, false))
		if err != nil {
			return 0, err
		}
		stats[i] = s
	}
	sort.Float64s(stats)
	idx := int(float64(trials) * (1 - pfa))
	if idx >= trials {
		idx = trials - 1
	}
	return stats[idx], nil
}
