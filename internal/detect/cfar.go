package detect

import (
	"fmt"
	"sort"

	"tiledcfd/internal/freelist"
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

// Examine evaluates a DSCF surface and returns the decision: the
// decision of ExamineProfile on its profile.
func (c CFAR) Examine(s *scf.Surface) (CFARDecision, error) {
	return withProfile(s, c.ExamineProfile)
}

// cfarScratch is one running CFAR decision's floor rows, borrowed from
// cfarScratches, so a decision allocates nothing.
type cfarScratch struct{ rows []float64 }

var (
	cfarScratches freelist.List[cfarScratch]
	// profiles lends the profile a surface's decision reads.
	profiles freelist.List[scf.Profile]
)

// withProfile returns fn of s's profile, borrowed for the call: how a
// decision that reads only the profile decides a surface.
func withProfile[T any](s *scf.Surface, fn func(*scf.Profile) (T, error)) (T, error) {
	prof := profiles.Get()
	defer profiles.Put(prof)
	prof.FromSurface(s)
	return fn(prof)
}

// ExamineProfile evaluates the profile of a DSCF surface and returns the
// decision.
func (c CFAR) ExamineProfile(p *scf.Profile) (CFARDecision, error) {
	minA := c.MinAbsA
	if minA == 0 {
		minA = 2
	}
	scale := c.Scale
	if scale == 0 {
		scale = 2
	}
	if minA < 1 || minA > p.M-1 {
		return CFARDecision{}, fmt.Errorf("detect: CFAR MinAbsA=%d outside [1,%d]", minA, p.M-1)
	}
	peak, peakA := 0.0, 0
	for i, v := range p.Sum {
		a := p.Alpha(i)
		if (a >= minA || a <= -minA) && v > peak {
			peak, peakA = v, a
		}
	}
	sc := cfarScratches.Get()
	defer cfarScratches.Put(sc)
	cells := sc.rows[:0]
	for i, v := range p.Sum {
		a := p.Alpha(i)
		if (a >= minA || a <= -minA) && a != peakA && a != -peakA {
			cells = append(cells, v)
		}
	}
	sc.rows = cells
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
