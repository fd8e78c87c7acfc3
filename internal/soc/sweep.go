package soc

import (
	"fmt"

	"tiledcfd/internal/fixed"
)

// SweepPoint is one measured platform configuration of a core-count sweep.
type SweepPoint struct {
	Q              int
	T              int
	CyclesPerBlock int64
	// MACFraction is the share of the critical path spent in the MAC
	// loop; the remainder (FFT, reshuffle, init, read data) does not
	// shrink with Q and bounds the intra-platform speed-up.
	MACFraction float64
	// Feasible is false when the configuration exceeds the Montium
	// memory budget (the sweep records it instead of failing).
	Feasible bool
}

// SweepCores measures the per-block critical path for each core count by
// running one integration block per configuration on the given samples.
// Infeasible configurations (accumulators exceeding the 8K-word budget)
// are reported with Feasible=false and zero cycles.
//
// This is the ablation complementing the paper's section 5: *within* one
// platform, only the MAC loop scales with Q — the paper's linear-scaling
// claim is about replicating whole platforms, one per sensed band.
func SweepCores(k, m int, qs []int, x []fixed.Complex) ([]SweepPoint, error) {
	if len(qs) == 0 {
		return nil, fmt.Errorf("soc: empty core-count sweep")
	}
	var out []SweepPoint
	for _, q := range qs {
		if q < 1 {
			return nil, fmt.Errorf("soc: core count %d must be >= 1", q)
		}
		cfg := Config{K: k, M: m, Q: q, Blocks: 1}.WithDefaults()
		if err := cfg.Validate(); err != nil {
			out = append(out, SweepPoint{Q: q, Feasible: false})
			continue
		}
		p, err := New(cfg)
		if err != nil {
			return nil, err
		}
		_, report, err := p.Run(x)
		if err != nil {
			return nil, err
		}
		point := SweepPoint{
			Q:              q,
			CyclesPerBlock: report.CyclesPerBlock,
			Feasible:       true,
		}
		// The busiest tile defines the critical path; take its breakdown.
		for _, tr := range report.Tiles {
			if tr.Table1.Total() == report.CyclesPerBlock {
				point.T = tr.Tasks
				point.MACFraction = float64(tr.Table1.MultiplyAccumulate) / float64(tr.Table1.Total())
				break
			}
		}
		out = append(out, point)
	}
	return out, nil
}

// SerialCycles returns the Q-independent part of the block critical path
// for the given geometry under the paper's cycle model: FFT + reshuffle +
// init + read data. As Q grows the block time approaches this floor.
func SerialCycles(k, m int) int64 {
	stages := 0
	for v := k; v > 1; v >>= 1 {
		stages++
	}
	fft := int64(k/2*stages + 2*stages)
	reshuffle := int64(k)
	init := int64(2*m - 1)
	readData := int64(3 * (2*m - 1))
	return fft + reshuffle + init + readData
}
