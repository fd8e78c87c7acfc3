package detect

import (
	"fmt"
	"sort"

	"tiledcfd/internal/scf"
)

// CFARDecision is the outcome of the self-calibrating detector.
type CFARDecision struct {
	Decision
	// Floor is the estimated noise floor of the cycle-frequency profile.
	Floor float64
	// FeatureA is the offset of the winning feature.
	FeatureA int
}

// CFAR is a constant-false-alarm-rate variant of the blind CFD detector:
// instead of an externally calibrated threshold it estimates the noise
// floor of the cycle-frequency profile from the surface itself (the
// median of the |a| >= MinAbsA rows, excluding the peak row and its
// mirror — the cell under test carries the feature energy on both
// mirrored offsets, so leaving it in the reference set would poison the
// floor) and declares a detection when the peak exceeds Scale × floor.
// Because both peak and floor are computed from the same surface, the
// false-alarm rate is insensitive to the absolute noise level — the
// practical deployment mode for Cognitive Radio, where no calibration
// channel exists.
//
// On an alpha-pruned surface both the peak search and the floor median
// run over the held candidate rows only, so the decision costs
// O(|candidates|·F) instead of O(M·F); at least three held rows with
// |a| >= MinAbsA must remain after the peak pair is excluded, so a
// CFAR-decided channel needs at least three non-zero candidates —
// ideally including reference strips where no feature is expected, so
// the floor median stays at noise level even when every expected
// feature is present.
type CFAR struct {
	// MinAbsA excludes offsets nearest the PSD row (default 2).
	MinAbsA int
	// Scale is the peak-over-floor detection ratio (default 2).
	Scale float64
}

// Examine evaluates a DSCF surface and returns the decision.
func (c CFAR) Examine(s *scf.Surface) (CFARDecision, error) {
	minA := c.MinAbsA
	if minA == 0 {
		minA = 2
	}
	scale := c.Scale
	if scale == 0 {
		scale = 2
	}
	if minA < 1 || minA > s.M-1 {
		return CFARDecision{}, fmt.Errorf("detect: CFAR MinAbsA=%d outside [1,%d]", minA, s.M-1)
	}
	prof := s.AlphaProfile()
	alphas := s.AlphaValues()
	peak, peakA := 0.0, 0
	for i, v := range prof {
		a := alphas[i]
		if (a >= minA || a <= -minA) && v > peak {
			peak, peakA = v, a
		}
	}
	cells := make([]float64, 0, len(prof))
	for i, v := range prof {
		a := alphas[i]
		if (a >= minA || a <= -minA) && a != peakA && a != -peakA {
			cells = append(cells, v)
		}
	}
	if len(cells) < 3 {
		return CFARDecision{}, fmt.Errorf("detect: CFAR needs >= 3 off-peak rows, have %d", len(cells))
	}
	sort.Float64s(cells)
	floor := cells[len(cells)/2]
	if floor <= 0 {
		return CFARDecision{}, fmt.Errorf("detect: CFAR zero noise floor")
	}
	stat := peak / floor
	return CFARDecision{
		Decision: Decision{
			Detector:  "cfd-cfar",
			Statistic: stat,
			Threshold: scale,
			Detected:  stat > scale,
		},
		Floor:    floor,
		FeatureA: peakA,
	}, nil
}
