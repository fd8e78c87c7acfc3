package tiledcfd

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"
	"time"
)

func TestSensePaperConfiguration(t *testing.T) {
	// Full paper geometry: K=256, M=64, Q=4, with a licensed BPSK user.
	const blocks = 2
	x, err := NewBPSKBand(256*blocks, 32.0/256, 8, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sense(x, Config{Blocks: blocks, Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Detected {
		t.Fatalf("licensed user not detected: statistic %v", s.Statistic)
	}
	if s.CyclesPerBlock != 13996 {
		t.Fatalf("cycles per block %d, want 13996", s.CyclesPerBlock)
	}
	if s.Breakdown.Total != 13996 || s.Breakdown.MultiplyAccumulate != 12192 ||
		s.Breakdown.ReadData != 381 || s.Breakdown.FFT != 1040 ||
		s.Breakdown.Reshuffle != 256 || s.Breakdown.Initialisation != 127 {
		t.Fatalf("Table 1 breakdown: %+v", s.Breakdown)
	}
	if math.Abs(s.BlockTimeMicros-139.96) > 1e-9 {
		t.Fatalf("block time %v", s.BlockTimeMicros)
	}
	if s.AnalysedBandwidthkHz < 910 || s.AnalysedBandwidthkHz > 920 {
		t.Fatalf("bandwidth %v kHz", s.AnalysedBandwidthkHz)
	}
	if s.AreaMM2 != 8 || s.PowerMW != 200 {
		t.Fatalf("area/power %v/%v", s.AreaMM2, s.PowerMW)
	}
	// The doubled-carrier feature sits at a = ±carrier bin (±32).
	if s.FeatureA != 32 && s.FeatureA != -32 {
		t.Fatalf("feature at a=%d, want ±32", s.FeatureA)
	}
	if len(s.AlphaProfile) != 127 || len(s.Surface) != 127 {
		t.Fatalf("output shapes %d/%d", len(s.AlphaProfile), len(s.Surface))
	}
}

func TestSenseIdleBand(t *testing.T) {
	x, err := NewNoiseBand(64*16, 0.1, 2)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sense(x, Config{K: 64, M: 16, Q: 4, Blocks: 16, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Detected {
		t.Fatalf("false alarm on idle band: statistic %v", s.Statistic)
	}
}

func TestSenseErrors(t *testing.T) {
	if _, err := Sense(make([]complex128, 5), Config{}); err == nil {
		t.Error("short input should fail")
	}
	x, _ := NewNoiseBand(256, 0.1, 3)
	if _, err := Sense(x, Config{Q: 1}); err == nil {
		t.Error("Q=1 at paper grid should fail the memory budget")
	}
}

func TestSenseBitExactAcrossCoreCounts(t *testing.T) {
	// The folding changes which tile computes which cell but not any
	// arithmetic: the DSCF surface (and hence the statistic) is
	// bit-identical for any feasible Q.
	const k, m, blocks = 64, 16, 4
	x, err := NewBPSKBand(k*blocks, 8.0/k, 8, 6, 77)
	if err != nil {
		t.Fatal(err)
	}
	var ref *Sensing
	for _, q := range []int{1, 2, 4, 8} {
		s, err := Sense(x, Config{K: k, M: m, Q: q, Blocks: blocks, Threshold: 0.3})
		if err != nil {
			t.Fatalf("Q=%d: %v", q, err)
		}
		if ref == nil {
			ref = s
			continue
		}
		if s.Statistic != ref.Statistic {
			t.Fatalf("Q=%d statistic %v != Q=1 %v", q, s.Statistic, ref.Statistic)
		}
		for ai := range s.Surface {
			for fi := range s.Surface[ai] {
				if s.Surface[ai][fi] != ref.Surface[ai][fi] {
					t.Fatalf("Q=%d surface differs at (%d,%d)", q, ai, fi)
				}
			}
		}
	}
}

func TestWatchTracksOccupancy(t *testing.T) {
	const k, blocks = 64, 16
	window := k * blocks
	idle, err := NewNoiseBand(window, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewBPSKBand(window, 8.0/k, 8, 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(idle, busy...)
	verdicts, err := Watch(stream, Config{K: k, M: 16, Q: 2, Blocks: blocks, Threshold: 0.4, MinAbsA: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 2 {
		t.Fatalf("windows %d", len(verdicts))
	}
	if verdicts[0].Detected {
		t.Fatalf("false alarm in idle window: %+v", verdicts[0])
	}
	if !verdicts[1].Detected {
		t.Fatalf("missed user: %+v", verdicts[1])
	}
	if verdicts[1].FeatureA != 8 && verdicts[1].FeatureA != -8 {
		t.Fatalf("feature at a=%d, want ±8", verdicts[1].FeatureA)
	}
}

func TestWatchErrors(t *testing.T) {
	if _, err := Watch(make([]complex128, 4), Config{K: 64, M: 16, Q: 2, Blocks: 2}); err == nil {
		t.Error("short stream should fail")
	}
	if _, err := Watch(make([]complex128, 512), Config{Q: 1}); err == nil {
		t.Error("infeasible config should fail")
	}
}

func TestDSCFFacade(t *testing.T) {
	// Real tone at bin 4: doubled-carrier features at (f=0, a=±4).
	const k, m = 64, 8
	x := make([]complex128, k)
	for i := range x {
		x[i] = complex(math.Cos(2*math.Pi*4*float64(i)/k), 0)
	}
	grid, err := DSCF(x, k, m, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(grid) != 15 || len(grid[0]) != 15 {
		t.Fatalf("grid %dx%d", len(grid), len(grid[0]))
	}
	feature := cmplx.Abs(grid[4+m-1][0+m-1]) // a=4, f=0
	psd := cmplx.Abs(grid[m-1][4+m-1])       // a=0, f=4
	if feature < psd/2 {
		t.Fatalf("doubled-carrier feature %v vs PSD %v", feature, psd)
	}
	if _, err := DSCF(x, 60, 8, 1); err == nil {
		t.Error("non-pow2 K should fail")
	}
}

func TestDeriveMappingPaper(t *testing.T) {
	mp, err := DeriveMapping(64, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mp.P != 127 || mp.T != 32 {
		t.Fatalf("P=%d T=%d", mp.P, mp.T)
	}
	if mp.ChainRegisters != 126 {
		t.Fatalf("chain registers %d", mp.ChainRegisters)
	}
	if mp.MemoryWordsPerCore != 8128 {
		t.Fatalf("memory words %d, want 8128", mp.MemoryWordsPerCore)
	}
	want := [][2]int{{0, 32}, {32, 64}, {64, 96}, {96, 127}}
	for q, r := range mp.TaskRanges {
		if r != want[q] {
			t.Fatalf("core %d range %v", q, r)
		}
	}
	if _, err := DeriveMapping(0, 4); err == nil {
		t.Error("m=0 should fail")
	}
	if _, err := DeriveMapping(8, 0); err == nil {
		t.Error("q=0 should fail")
	}
}

func TestEvaluateFacade(t *testing.T) {
	e, err := Evaluate(256, 4, 13996)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.BlockTimeMicros-139.96) > 1e-9 || e.AreaMM2 != 8 || e.PowerMW != 200 {
		t.Fatalf("evaluation %+v", e)
	}
	if _, err := Evaluate(0, 4, 1); err == nil {
		t.Error("k=0 should fail")
	}
	if _, err := Evaluate(256, 0, 1); err == nil {
		t.Error("q=0 should fail")
	}
	if _, err := Evaluate(256, 4, 0); err == nil {
		t.Error("cycles=0 should fail")
	}
}

func TestBandGenerators(t *testing.T) {
	x, err := NewBPSKBand(1000, 0.1, 8, 5, 7)
	if err != nil || len(x) != 1000 {
		t.Fatalf("NewBPSKBand: %d, %v", len(x), err)
	}
	// Deterministic in seed.
	y, _ := NewBPSKBand(1000, 0.1, 8, 5, 7)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("NewBPSKBand not deterministic")
		}
	}
	if _, err := NewBPSKBand(0, 0.1, 8, 5, 7); err == nil {
		t.Error("n=0 should fail")
	}
	if _, err := NewBPSKBand(10, 0.1, 0, 5, 7); err == nil {
		t.Error("symbolLen=0 should fail")
	}
	n, err := NewNoiseBand(500, 0.25, 8)
	if err != nil || len(n) != 500 {
		t.Fatalf("NewNoiseBand: %d, %v", len(n), err)
	}
	if _, err := NewNoiseBand(10, 0, 8); err == nil {
		t.Error("zero power should fail")
	}
	if _, err := NewNoiseBand(0, 1, 8); err == nil {
		t.Error("n=0 should fail")
	}
}

func TestSenseWithSoftwareEstimators(t *testing.T) {
	const k, m, blocks = 64, 16, 16
	band, err := NewBPSKBand(k*blocks, 8.0/k, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"direct", "fam", "ssca"} {
		s, err := Sense(band, Config{
			K: k, M: m, Blocks: blocks, Threshold: 0.4, Estimator: name,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if s.Estimator != name {
			t.Errorf("%s: Sensing.Estimator = %q", name, s.Estimator)
		}
		if !s.Detected {
			t.Errorf("%s: BPSK user not detected (statistic %.4f)", name, s.Statistic)
		}
		if s.FFTMults <= 0 || s.EstimatorMults <= 0 {
			t.Errorf("%s: missing work counts: %d/%d", name, s.FFTMults, s.EstimatorMults)
		}
		if s.CyclesPerBlock != 0 || s.Breakdown.Total != 0 {
			t.Errorf("%s: hardware cycle figures on software path", name)
		}
		if len(s.Surface) != 2*m-1 || len(s.AlphaProfile) != 2*m-1 {
			t.Errorf("%s: surface extent %dx%d", name, len(s.Surface), len(s.AlphaProfile))
		}
	}
	if _, err := Sense(band, Config{K: k, M: m, Blocks: blocks, Estimator: "nonsense"}); err == nil {
		t.Error("unknown estimator name should fail")
	}
}

func TestSensePlatformFieldsUnchanged(t *testing.T) {
	// The default (platform) path must still report hardware figures and
	// name itself.
	const k, m, blocks = 64, 16, 4
	band, err := NewBPSKBand(k*blocks, 8.0/k, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sense(band, Config{K: k, M: m, Blocks: blocks, Threshold: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	if s.Estimator != "platform" {
		t.Errorf("Sensing.Estimator = %q, want platform", s.Estimator)
	}
	if s.CyclesPerBlock <= 0 || s.Breakdown.Total <= 0 {
		t.Errorf("platform path missing cycle figures: %+v", s.Breakdown)
	}
	if s.FFTMults != 0 || s.EstimatorMults != 0 {
		t.Errorf("platform path should not report estimator mults")
	}
}

func TestSpectralCorrelation(t *testing.T) {
	const k, m, blocks = 64, 16, 16
	band, err := NewBPSKBand(k*blocks, 8.0/k, 8, 10, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := SpectralCorrelation(band, Config{K: k, M: m, Blocks: blocks})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Estimator != "direct" {
		t.Errorf("default estimator %q, want direct", ref.Estimator)
	}
	refA := ref.FeatureA
	if refA < 0 {
		refA = -refA
	}
	if refA != 8 {
		t.Errorf("direct feature |a| = %d, want 8 (doubled carrier)", refA)
	}
	// The direct default must agree with the legacy DSCF facade.
	legacy, err := DSCF(band, k, m, blocks)
	if err != nil {
		t.Fatal(err)
	}
	for i := range legacy {
		for j := range legacy[i] {
			if legacy[i][j] != ref.Surface[i][j] {
				t.Fatalf("SpectralCorrelation(direct) differs from DSCF at [%d][%d]", i, j)
			}
		}
	}
	for _, name := range []string{"fam", "ssca", "platform"} {
		res, err := SpectralCorrelation(band, Config{K: k, M: m, Blocks: blocks, Estimator: name})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		a := res.FeatureA
		if a < 0 {
			a = -a
		}
		if a != refA {
			t.Errorf("%s: feature |a| = %d, direct says %d", name, a, refA)
		}
		if name != "platform" && (res.FFTMults <= 0 || res.Blocks <= 0) {
			t.Errorf("%s: missing work stats: %+v", name, res)
		}
	}
	if _, err := SpectralCorrelation(band, Config{K: k, M: m, Estimator: "bogus"}); err == nil {
		t.Error("unknown estimator name should fail")
	}
}

func TestWatchWithEstimator(t *testing.T) {
	// A stream that is idle for 2 windows then carries a user for 2 must
	// produce the same occupancy pattern through the FAM path.
	const k, m, blocks = 64, 16, 16
	w := k * blocks
	idle, err := NewNoiseBand(2*w, 0.09, 21)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewBPSKBand(2*w, 8.0/k, 8, 10, 22)
	if err != nil {
		t.Fatal(err)
	}
	stream := append(idle, busy...)
	verdicts, err := Watch(stream, Config{
		K: k, M: m, Blocks: blocks, Threshold: 0.4, Estimator: "fam",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(verdicts) != 4 {
		t.Fatalf("%d verdicts, want 4", len(verdicts))
	}
	for i, v := range verdicts {
		want := i >= 2
		if v.Detected != want {
			t.Errorf("window %d detected=%v, want %v (statistic %.4f)", i, v.Detected, want, v.Statistic)
		}
	}
}

func TestConfigWorkersPlumbed(t *testing.T) {
	// Workers must reach the FAM estimator and leave results
	// bit-identical to the serial path (the parallel decomposition is
	// exact). The direct and SSCA estimators are always serial.
	const k, m, blocks = 64, 16, 8
	band, err := NewBPSKBand(k*blocks, 8.0/k, 8, 6, 31)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fam"} {
		serial, err := SpectralCorrelation(band, Config{K: k, M: m, Blocks: blocks, Estimator: name, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := SpectralCorrelation(band, Config{K: k, M: m, Blocks: blocks, Estimator: name, Workers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Surface {
			for j := range serial.Surface[i] {
				if serial.Surface[i][j] != parallel.Surface[i][j] {
					t.Fatalf("%s: Workers=4 surface differs from serial at [%d][%d]", name, i, j)
				}
			}
		}
	}
}

func TestConfigHopValidation(t *testing.T) {
	band, err := NewNoiseBand(4096, 0.25, 32)
	if err != nil {
		t.Fatal(err)
	}
	// ssca + Hop must be rejected, not silently ignored.
	if _, err := SpectralCorrelation(band, Config{K: 64, M: 16, Estimator: "ssca", Hop: 32}); err == nil {
		t.Fatal("ssca with Hop set succeeded")
	}
	// direct honours Hop: overlapping blocks need fewer samples.
	r, err := SpectralCorrelation(band[:64+7*32], Config{K: 64, M: 16, Blocks: 8, Estimator: "direct", Hop: 32})
	if err != nil {
		t.Fatal(err)
	}
	if r.Blocks != 8 {
		t.Fatalf("direct with Hop=32 averaged %d blocks, want 8", r.Blocks)
	}
}

func TestMonitorStreamsDecisions(t *testing.T) {
	// The streaming session must reproduce the Watch occupancy timeline:
	// per-channel windows of noise then BPSK then noise, decided by CFAR.
	const k, m = 64, 16
	const window = 2048
	mon, err := NewMonitor(
		Config{K: k, M: m, Estimator: "fam"},
		MonitorOptions{Channels: []string{"uhf-1", "uhf-2"}, SnapshotSamples: window, Backpressure: true},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	// uhf-1 goes idle, busy, idle; uhf-2 stays idle throughout.
	segs := map[string][][]complex128{}
	idle := func(seed uint64) []complex128 {
		s, err := NewNoiseBand(window, 0.09, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	busy := func(seed uint64) []complex128 {
		s, err := NewBPSKBand(window, 8.0/k, 8, 10, seed)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	segs["uhf-1"] = [][]complex128{idle(41), busy(42), idle(43)}
	segs["uhf-2"] = [][]complex128{idle(44), idle(45), idle(46)}
	for id, parts := range segs {
		for _, p := range parts {
			if n, err := mon.Push(id, p); err != nil || n != len(p) {
				t.Fatalf("Push(%s): %d, %v", id, n, err)
			}
		}
	}
	if err := mon.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.Channels != 2 || st.Surfaces != 6 || st.SamplesDropped != 0 {
		t.Fatalf("stats %+v, want 2 channels / 6 surfaces / 0 dropped", st)
	}
	if st.HeldBytes < 2*16*window {
		t.Fatalf("HeldBytes %d, want at least the two window-long rings (%d)", st.HeldBytes, 2*16*window)
	}
	cs1, ok := mon.ChannelStats("uhf-1")
	if !ok || cs1.Detections != 1 || cs1.Snapshots != 3 {
		t.Fatalf("uhf-1 stats %+v, want 1 detection in 3 windows", cs1)
	}
	cs2, ok := mon.ChannelStats("uhf-2")
	if !ok || cs2.Detections != 0 {
		t.Fatalf("uhf-2 stats %+v, want 0 detections", cs2)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	// Decisions channel: closed after Close, verdicts ordered per channel.
	seq := map[string]int64{}
	for d := range mon.Decisions() {
		if d.Seq != seq[d.Channel] {
			t.Fatalf("%s decision out of order: Seq %d, want %d", d.Channel, d.Seq, seq[d.Channel])
		}
		seq[d.Channel]++
		if d.Window != window {
			t.Fatalf("decision window %d, want %d", d.Window, window)
		}
	}
	if seq["uhf-1"] != 3 || seq["uhf-2"] != 3 {
		t.Fatalf("decision counts %+v, want 3 each", seq)
	}
}

func TestMonitorRejectsPlatform(t *testing.T) {
	if _, err := NewMonitor(Config{Estimator: "platform"}, MonitorOptions{}); err == nil {
		t.Fatal("NewMonitor with the platform path succeeded")
	}
}

// TestStreamingEstimatorsEmitDecisions: every estimator NewMonitor's
// errors offer as streaming builds a Monitor that decides a window.
func TestStreamingEstimatorsEmitDecisions(t *testing.T) {
	requireStreamingDecisions(t, Config{K: 64, M: 16})
}

// TestStreamingEstimatorsDecidePruned: every streaming estimator, the
// Q15 ones included, accepts the alpha candidates Config.AlphaCandidates
// documents, and a pruned channel decides.
func TestStreamingEstimatorsDecidePruned(t *testing.T) {
	requireStreamingDecisions(t, Config{K: 64, M: 16, AlphaCandidates: []int{4}, Threshold: 0.5})
}

// requireStreamingDecisions runs one 1024-sample window through a
// Monitor of cfg under every streaming estimator and requires a
// decision from each.
func requireStreamingDecisions(t *testing.T, cfg Config) {
	t.Helper()
	const window = 1024
	band, err := NewBPSKBand(window, 8.0/float64(cfg.K), 8, 6, 53)
	if err != nil {
		t.Fatal(err)
	}
	names := streamingEstimatorNames()
	if len(names) == 0 {
		t.Fatal("no streaming estimators")
	}
	for _, name := range names {
		cfg.Estimator = name
		mon, err := NewMonitor(cfg, MonitorOptions{Channels: []string{"a"}, SnapshotSamples: window, Backpressure: true})
		if err != nil {
			t.Fatalf("NewMonitor(%s): %v", name, err)
		}
		if _, err := mon.Push("a", band); err != nil {
			t.Fatal(err)
		}
		if err := mon.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
		if err := mon.Close(); err != nil {
			t.Fatal(err)
		}
		n := 0
		for range mon.Decisions() {
			n++
		}
		if n == 0 {
			t.Errorf("%s: the Monitor emitted no decision over a %d-sample window", name, window)
		}
	}
}

func TestMonitorRebalancesLive(t *testing.T) {
	// A multi-shard session must behave as one Monitor while the fleet
	// grows and shrinks beneath the channels mid-stream.
	const k, window = 64, 2048
	ids := make([]string, 8)
	for i := range ids {
		ids[i] = fmt.Sprintf("uhf-%d", i)
	}
	mon, err := NewMonitor(
		Config{K: k, M: 16, Estimator: "fam"},
		MonitorOptions{Channels: ids, SnapshotSamples: window, Backpressure: true, Shards: 2},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	push := func(windows int, seedBase uint64) {
		for i, id := range ids {
			for w := 0; w < windows; w++ {
				s, err := NewBPSKBand(window, 8.0/k, 8, 10, seedBase+uint64(16*i+w))
				if err != nil {
					t.Fatal(err)
				}
				if n, err := mon.Push(id, s); err != nil || n != window {
					t.Fatalf("Push(%s): %d, %v", id, n, err)
				}
			}
		}
	}
	push(2, 100)
	if err := mon.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	names, err := mon.AddShards(2)
	if err != nil {
		t.Fatal(err)
	}
	push(2, 400)
	if err := mon.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mon.DrainShard(names[0]); err != nil {
		t.Fatal(err)
	}
	st := mon.Stats()
	if st.Shards != 3 || st.Channels != len(ids) {
		t.Fatalf("topology %d shards / %d channels, want 3 / %d", st.Shards, st.Channels, len(ids))
	}
	if st.Handoffs == 0 {
		t.Fatal("no handoffs across grow+drain")
	}
	// Exact accounting across the moves: nothing lost, nothing twice.
	if want := int64(4 * window * len(ids)); st.SamplesIn != want || st.SamplesDropped != 0 {
		t.Fatalf("SamplesIn %d (dropped %d), want %d / 0", st.SamplesIn, st.SamplesDropped, want)
	}
	if st.Surfaces != int64(4*len(ids)) {
		t.Fatalf("Surfaces %d, want %d", st.Surfaces, 4*len(ids))
	}
	shards := mon.Shards()
	if len(shards) != 3 {
		t.Fatalf("%d shard infos, want 3", len(shards))
	}
	total := 0
	for _, s := range shards {
		total += s.Channels
	}
	if total != len(ids) {
		t.Fatalf("shards own %d channels, want %d", total, len(ids))
	}
	cs, ok := mon.ChannelStats(ids[0])
	if !ok || cs.Snapshots != 4 || cs.SamplesIn != 4*window {
		t.Fatalf("channel stats %+v, want 4 windows / %d samples", cs, 4*window)
	}
	if cs.Detections != 4 || cs.Last == nil || !cs.Last.Detected {
		t.Fatalf("channel stats %+v, want every BPSK window detected", cs)
	}
	rm, err := mon.RemoveChannel(ids[0])
	if err != nil || rm.Snapshots != 4 {
		t.Fatalf("RemoveChannel: %+v, %v", rm, err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	// Merged decision stream: per-channel order preserved within each
	// owner, every window delivered exactly once.
	count := 0
	for d := range mon.Decisions() {
		if d.Shard == "" || d.Window != window {
			t.Fatalf("decision %+v lacks shard tag or window", d)
		}
		count++
	}
	if count != 4*len(ids) {
		t.Fatalf("merged stream delivered %d decisions, want %d", count, 4*len(ids))
	}
}

// TestMonitorWindowedSSCA: an ssca Monitor decides every window, and
// each verdict is the batch one over that window alone: Sense over
// exactly the window's samples.
func TestMonitorWindowedSSCA(t *testing.T) {
	const k, window, windows = 64, 1024, 8
	cfg := Config{K: k, M: 16, Estimator: "ssca"}
	mon, err := NewMonitor(cfg, MonitorOptions{
		Channels: []string{"win"}, SnapshotSamples: window, Backpressure: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	band, err := NewBPSKBand(windows*window, 8.0/k, 8, 6, 51)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < windows; w++ {
		if _, err := mon.Push("win", band[w*window:(w+1)*window]); err != nil {
			t.Fatal(err)
		}
	}
	if err := mon.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := mon.Close(); err != nil {
		t.Fatal(err)
	}
	var decs []MonitorDecision
	for d := range mon.Decisions() {
		decs = append(decs, d)
	}
	if len(decs) != windows {
		t.Fatalf("%d decisions over %d windows, want one per window", len(decs), windows)
	}
	for i, d := range decs {
		want, err := Sense(band[i*window:(i+1)*window], cfg)
		if err != nil {
			t.Fatal(err)
		}
		if d.Window != window || d.Statistic != want.Statistic || d.Threshold != want.Threshold || d.Detected != want.Detected {
			t.Fatalf("decision %d: window %d statistic %v threshold %v detected %v; batch over its window: %v %v %v",
				i, d.Window, d.Statistic, d.Threshold, d.Detected, want.Statistic, want.Threshold, want.Detected)
		}
	}
}
