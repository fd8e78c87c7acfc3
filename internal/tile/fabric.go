package tile

import (
	"fmt"

	"tiledcfd/internal/montium"
)

// Fabric describes the modeled tiled platform a schedule runs on. The
// zero value takes the paper's configuration via WithDefaults.
type Fabric struct {
	// Tiles is the number of Montium tiles (the paper's Q; default 4).
	Tiles int
	// ClockMHz is the tile clock (default 100, the paper's figure).
	ClockMHz float64
	// LocalMemWords is each tile's local memory capacity in 16-bit words
	// (default 10×1024, the Montium's ten 1K-word memories).
	LocalMemWords int
	// LinkLatency is the fixed NoC per-transfer latency in cycles. 0
	// takes the default 4 (router traversal plus link setup); a negative
	// value selects a true zero-latency link, since the zero value must
	// keep meaning "the paper's platform".
	LinkLatency int
	// LinkWordsPerCycle is the NoC link bandwidth in 16-bit words per
	// cycle (default 1 — one word wide, the paper's factor-T-slower data
	// exchange).
	LinkWordsPerCycle float64
}

// WithDefaults returns a copy of f with zero fields replaced by the
// paper's platform: 4 tiles at 100 MHz, 10K words of local memory,
// 4-cycle link latency, one word per cycle.
func (f Fabric) WithDefaults() Fabric {
	if f.Tiles == 0 {
		f.Tiles = 4
	}
	if f.ClockMHz == 0 {
		f.ClockMHz = 100
	}
	if f.LocalMemWords == 0 {
		f.LocalMemWords = 10 * montium.MemWords
	}
	if f.LinkLatency == 0 {
		f.LinkLatency = 4
	} else if f.LinkLatency < 0 {
		f.LinkLatency = 0
	}
	if f.LinkWordsPerCycle == 0 {
		f.LinkWordsPerCycle = 1
	}
	return f
}

// Validate checks the fabric for consistency.
func (f Fabric) Validate() error {
	if f.Tiles < 1 {
		return fmt.Errorf("tile: fabric needs at least 1 tile, got %d", f.Tiles)
	}
	if f.ClockMHz <= 0 {
		return fmt.Errorf("tile: fabric clock %v MHz must be positive", f.ClockMHz)
	}
	if f.LocalMemWords < 1 {
		return fmt.Errorf("tile: fabric local memory %d words must be positive", f.LocalMemWords)
	}
	if f.LinkLatency < 0 {
		return fmt.Errorf("tile: fabric link latency %d cycles must be non-negative", f.LinkLatency)
	}
	if f.LinkWordsPerCycle <= 0 {
		return fmt.Errorf("tile: fabric link bandwidth %v words/cycle must be positive", f.LinkWordsPerCycle)
	}
	return nil
}
