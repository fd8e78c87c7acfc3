package soc

import (
	"strings"
	"testing"

	"tiledcfd/internal/fixed"
	"tiledcfd/internal/montium"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
	"tiledcfd/internal/trace"
)

func socSamples(seed uint64, n int) []fixed.Complex {
	rng := sig.NewRand(seed)
	x := sig.Samples(&sig.WGN{Sigma: 0.4, Real: true, Rng: rng}, n)
	return fixed.FromFloatSlice(x)
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.K != 256 || c.M != 64 || c.Q != 4 || c.Blocks != 1 || c.ClockMHz != 100 || c.LinkDepth != 1 {
		t.Fatalf("defaults: %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("paper defaults invalid: %v", err)
	}
}

func TestConfigValidationRejectsOversized(t *testing.T) {
	// Q=1 at the paper grid exceeds the Montium memory budget (E7).
	c := Config{K: 256, M: 64, Q: 1}.WithDefaults()
	if err := c.Validate(); err == nil {
		t.Fatal("Q=1 at M=64 should fail validation")
	}
	if _, err := New(Config{K: 256, M: 64, Q: 1}); err == nil {
		t.Fatal("New should propagate budget failure")
	}
	if err := (Config{K: 64, M: 16, Q: 2, Blocks: -1, ClockMHz: 100, LinkDepth: 1}).Validate(); err == nil {
		t.Fatal("negative blocks should fail")
	}
	if err := (Config{K: 64, M: 16, Q: 2, Blocks: 1, ClockMHz: -5, LinkDepth: 1}).Validate(); err == nil {
		t.Fatal("negative clock should fail")
	}
}

func TestRunMatchesReferencePaperConfig(t *testing.T) {
	// E8/E9 data path: the concurrent 4-tile platform must produce the
	// bit-exact reference DSCF.
	cfg := Config{K: 256, M: 64, Q: 4, Blocks: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := socSamples(51, 256*2)
	got, report, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scf.ComputeFixed(x, scf.Params{K: 256, M: 64, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diag := got.Equal(want); !ok {
		t.Fatalf("platform deviates from reference: %s", diag)
	}
	if report.CyclesPerBlock != 13996 {
		t.Fatalf("cycles per block %d, want 13996", report.CyclesPerBlock)
	}
}

func TestRunDeterministicAcrossSchedules(t *testing.T) {
	// The concurrent engine's result must not depend on goroutine
	// scheduling: repeated runs are bit-identical in data and counters.
	cfg := Config{K: 64, M: 16, Q: 4, Blocks: 2}
	x := socSamples(50, 64*2)
	var ref *scf.FixedSurface
	var refNoC int64
	for i := 0; i < 5; i++ {
		p, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s, r, err := p.Run(x)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref, refNoC = s, r.NoCSent
			continue
		}
		if ok, diag := s.Equal(ref); !ok {
			t.Fatalf("run %d differs: %s", i, diag)
		}
		if r.NoCSent != refNoC {
			t.Fatalf("run %d NoC count %d != %d", i, r.NoCSent, refNoC)
		}
	}
}

func TestRunSyncMatchesRun(t *testing.T) {
	cfg := Config{K: 64, M: 16, Q: 3, Blocks: 3}
	x := socSamples(52, 64*3)
	pa, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sa, ra, err := pa.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sb, rb, err := pb.RunSync(x)
	if err != nil {
		t.Fatal(err)
	}
	if ok, diag := sa.Equal(sb); !ok {
		t.Fatalf("concurrent and sync engines disagree: %s", diag)
	}
	if ra.CyclesPerBlock != rb.CyclesPerBlock {
		t.Fatalf("cycle accounting differs: %d vs %d", ra.CyclesPerBlock, rb.CyclesPerBlock)
	}
	if ra.NoCSent != rb.NoCSent {
		t.Fatalf("NoC accounting differs: %d vs %d", ra.NoCSent, rb.NoCSent)
	}
}

func TestTable1FromPlatform(t *testing.T) {
	// E8: the platform-measured per-block Table 1 equals the paper's.
	p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := p.Run(socSamples(53, 256))
	if err != nil {
		t.Fatal(err)
	}
	want := montium.PaperTable1()
	if report.Tiles[0].Table1 != want {
		t.Fatalf("tile 0 Table 1:\n%s\nwant:\n%s", report.Tiles[0].Table1, want)
	}
	// All fully loaded tiles identical; last tile lighter in MAC row only.
	for q := 1; q < 3; q++ {
		if report.Tiles[q].Table1 != want {
			t.Fatalf("tile %d Table 1 differs", q)
		}
	}
	if report.Tiles[3].Table1.MultiplyAccumulate != 127*31*3 {
		t.Fatalf("tile 3 MAC cycles %d", report.Tiles[3].Table1.MultiplyAccumulate)
	}
}

func TestCommComputeRatio(t *testing.T) {
	// E12: data exchange rate is a factor >= T lower than the compute
	// rate. Per block: each interior link carries 126 values; each fully
	// loaded tile executes 4064 MACs.
	p, err := New(Config{K: 256, M: 64, Q: 4, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := p.Run(socSamples(54, 256))
	if err != nil {
		t.Fatal(err)
	}
	// 6 links x 126 shifts.
	if report.NoCSent != 756 {
		t.Fatalf("NoC sent %d, want 756", report.NoCSent)
	}
	if report.NoCSent != report.NoCReceived {
		t.Fatalf("sent %d != received %d", report.NoCSent, report.NoCReceived)
	}
	if report.TotalMACs != 127*127 {
		t.Fatalf("total MACs %d", report.TotalMACs)
	}
	// Per tile per step: <= 2 values sent vs T MACs executed.
	perTileSent := float64(report.NoCSent) / 4
	perTileMACs := float64(report.TotalMACs) / 4
	if perTileMACs/perTileSent < 16 { // T/2 = 16 with 2 values per shift
		t.Fatalf("comm/compute ratio too low: %v", perTileMACs/perTileSent)
	}
}

func TestRunShortInput(t *testing.T) {
	p, err := New(Config{K: 64, M: 16, Q: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := p.Run(make([]fixed.Complex, 10)); err == nil {
		t.Fatal("short input should fail")
	}
	if _, _, err := p.RunSync(make([]fixed.Complex, 10)); err == nil {
		t.Fatal("short input should fail in sync mode")
	}
}

func TestBrokenLinkPropagates(t *testing.T) {
	p, err := New(Config{K: 64, M: 16, Q: 2, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	p.Fabric().Links()[0].Break()
	_, _, err = p.Run(socSamples(55, 64))
	if err == nil {
		t.Fatal("broken link must fail the run")
	}
	if !strings.Contains(err.Error(), "tile") {
		t.Fatalf("error should name the failing tile: %v", err)
	}
}

func TestIdleTilesWithManyCores(t *testing.T) {
	// Q=8 on a small grid: trailing tiles idle, result still exact.
	cfg := Config{K: 64, M: 4, Q: 8, Blocks: 1} // P=7, T=1, 7 active
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := socSamples(56, 64)
	got, report, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scf.ComputeFixed(x, scf.Params{K: 64, M: 4, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diag := got.Equal(want); !ok {
		t.Fatalf("idle-tile platform deviates: %s", diag)
	}
	if report.Tiles[7].MACs != 0 {
		t.Fatal("idle tile executed MACs")
	}
}

func TestSingleTilePlatform(t *testing.T) {
	cfg := Config{K: 64, M: 16, Q: 1, Blocks: 2}
	p, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x := socSamples(57, 128)
	got, report, err := p.Run(x)
	if err != nil {
		t.Fatal(err)
	}
	want, err := scf.ComputeFixed(x, scf.Params{K: 64, M: 16, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	if ok, diag := got.Equal(want); !ok {
		t.Fatalf("single tile deviates: %s", diag)
	}
	if report.NoCSent != 0 {
		t.Fatalf("single tile sent %d NoC values", report.NoCSent)
	}
}

func TestReportContents(t *testing.T) {
	p, err := New(Config{K: 64, M: 16, Q: 2, Blocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	_, report, err := p.Run(socSamples(58, 128))
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Tiles) != 2 {
		t.Fatalf("tile reports: %d", len(report.Tiles))
	}
	tr := report.Tiles[0]
	if tr.Tasks != 16 { // P=31, T=16
		t.Fatalf("tile 0 tasks %d, want 16", tr.Tasks)
	}
	if tr.Cycles <= 0 || tr.MACs <= 0 || tr.Butterflies <= 0 || tr.Moves <= 0 {
		t.Fatalf("counters not populated: %+v", tr)
	}
	if tr.MemReads == 0 || tr.MemWrites == 0 {
		t.Fatal("memory traffic not populated")
	}
	// Two blocks: total cycles = 2x the per-block total.
	if tr.Cycles != 2*tr.Table1.Total() {
		t.Fatalf("cycles %d != 2x block total %d", tr.Cycles, tr.Table1.Total())
	}
}

func TestPlatformTrace(t *testing.T) {
	p, err := New(Config{K: 64, M: 16, Q: 2, Blocks: 1})
	if err != nil {
		t.Fatal(err)
	}
	var rec trace.Recorder
	p.EnableTrace(&rec)
	_, report, err := p.Run(socSamples(61, 64))
	if err != nil {
		t.Fatal(err)
	}
	// Trace totals match the report per tile.
	for q, tr := range report.Tiles {
		name := "tile" + string(rune('0'+q))
		if got := rec.TotalIn(name, ""); got != tr.Cycles {
			t.Errorf("%s trace total %d, report %d", name, got, tr.Cycles)
		}
	}
	if rec.Len() == 0 {
		t.Fatal("no spans recorded")
	}
}
