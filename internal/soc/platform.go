package soc

import (
	"fmt"

	"tiledcfd/internal/montium"
	"tiledcfd/internal/noc"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/trace"
)

// Config describes a platform run.
type Config struct {
	// K is the FFT size (256 in the paper).
	K int
	// M is the DSCF grid half-extent (64 in the paper).
	M int
	// Q is the number of Montium tiles (4 in the paper).
	Q int
	// Blocks is the number of integration steps to accumulate.
	Blocks int
	// ClockMHz is the tile clock (100 MHz in the paper); used only for
	// reporting, never for simulation timing.
	ClockMHz float64
	// LinkDepth is the NoC link buffer depth (default 1).
	LinkDepth int
	// RealInputFFT selects the real-input FFT kernel (590 instead of
	// 1040 cycles at K=256). Only valid when the input samples are real;
	// an extension ablation, not the paper's configuration.
	RealInputFFT bool
}

// WithDefaults fills zero fields with the paper's configuration.
func (c Config) WithDefaults() Config {
	if c.K == 0 {
		c.K = 256
	}
	if c.M == 0 {
		c.M = c.K / 4
	}
	if c.Q == 0 {
		c.Q = 4
	}
	if c.Blocks == 0 {
		c.Blocks = 1
	}
	if c.ClockMHz == 0 {
		c.ClockMHz = 100
	}
	if c.LinkDepth == 0 {
		c.LinkDepth = 1
	}
	return c
}

// Validate checks the configuration by constructing the per-tile CFD
// configurations (which enforce the memory budgets).
func (c Config) Validate() error {
	if c.Blocks < 1 {
		return fmt.Errorf("soc: Blocks=%d must be >= 1", c.Blocks)
	}
	if c.ClockMHz <= 0 {
		return fmt.Errorf("soc: ClockMHz=%v must be positive", c.ClockMHz)
	}
	for q := 0; q < c.Q; q++ {
		if _, err := montium.NewCFDConfig(c.K, c.M, c.Q, q); err != nil {
			return err
		}
	}
	return nil
}

// TileReport captures one tile's measured execution.
type TileReport struct {
	// Tile is the core index q.
	Tile int
	// Tasks is the number of logical tasks the tile owns.
	Tasks int
	// Table1 is the per-integration-step cycle breakdown (first block).
	Table1 montium.Table1
	// Cycles is the total cycle count over all blocks.
	Cycles int64
	// MACs, Butterflies and Moves are ALU operation totals.
	MACs, Butterflies, Moves int64
	// MemReads/MemWrites sum the tile's memory port activity.
	MemReads, MemWrites int64
}

// Report captures a full platform run.
type Report struct {
	Config Config
	Tiles  []TileReport
	// CyclesPerBlock is the per-integration-step critical path: the
	// busiest tile's Table 1 total (13996 for the paper's configuration).
	CyclesPerBlock int64
	// NoCSent/NoCReceived are total boundary values crossing the fabric.
	NoCSent, NoCReceived int64
	// TotalMACs sums MACs over tiles and blocks.
	TotalMACs int64
}

// Platform is a configured tiled SoC.
type Platform struct {
	cfg    Config
	cores  []*montium.Core
	fabric *noc.Fabric
}

// New builds a platform: Q Montium tiles with CFD configurations and the
// line-topology NoC.
func New(cfg Config) (*Platform, error) {
	cfg = cfg.WithDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fabric, err := noc.NewFabric(cfg.Q, cfg.LinkDepth)
	if err != nil {
		return nil, err
	}
	p := &Platform{cfg: cfg, fabric: fabric}
	for q := 0; q < cfg.Q; q++ {
		mc, err := montium.NewCFDConfig(cfg.K, cfg.M, cfg.Q, q)
		if err != nil {
			return nil, err
		}
		core := montium.NewCore(q)
		if err := core.ConfigureCFD(mc); err != nil {
			return nil, err
		}
		p.cores = append(p.cores, core)
	}
	return p, nil
}

// Fabric exposes the NoC (for traffic inspection and fault injection).
func (p *Platform) Fabric() *noc.Fabric { return p.fabric }

// EnableTrace attaches a span recorder to every tile (sources "tile0",
// "tile1", ...). Call before Run/RunSync; spans are flushed when the run
// completes.
func (p *Platform) EnableTrace(r *trace.Recorder) {
	for q, c := range p.cores {
		c.SetTracer(r, fmt.Sprintf("tile%d", q))
	}
}

// flushTraces closes any open spans on all tiles.
func (p *Platform) flushTraces() {
	for _, c := range p.cores {
		c.FlushTrace()
	}
}

// samplesNeeded returns the required input length.
func (p *Platform) samplesNeeded() int { return p.cfg.K * p.cfg.Blocks }

// collectSurface assembles the DSCF from the tiles' accumulator memories.
func (p *Platform) collectSurface() (*scf.FixedSurface, error) {
	m := p.cfg.M
	f := 2*m - 1
	surf := scf.NewFixedSurface(m)
	for _, c := range p.cores {
		cfg := c.Config()
		for i := 0; i < cfg.OwnT(); i++ {
			a := cfg.LoA + i
			for fi := 0; fi < f; fi++ {
				v, err := c.AccumulatorAt(i, fi)
				if err != nil {
					return nil, err
				}
				surf.Data[a+m-1][fi] = v
			}
		}
	}
	return surf, nil
}

// report assembles the run report after execution.
func (p *Platform) report(perBlock []montium.Table1) *Report {
	r := &Report{Config: p.cfg}
	for q, c := range p.cores {
		reads, writes := c.MemoryTraffic()
		tr := TileReport{
			Tile:        q,
			Tasks:       c.Config().OwnT(),
			Table1:      perBlock[q],
			Cycles:      c.Cycles(),
			MACs:        c.MACs,
			Butterflies: c.Butterflies,
			Moves:       c.Moves,
			MemReads:    reads,
			MemWrites:   writes,
		}
		r.Tiles = append(r.Tiles, tr)
		if t := perBlock[q].Total(); t > r.CyclesPerBlock {
			r.CyclesPerBlock = t
		}
		r.TotalMACs += c.MACs
	}
	r.NoCSent, r.NoCReceived = p.fabric.Totals()
	return r
}
