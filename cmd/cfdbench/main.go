// Command cfdbench runs the estimator measurements that the repository
// benchmark under bench/ does not make, on the paper geometry (K=256,
// M=64, 8 blocks of a seeded 10 dB BPSK band), and writes them as one
// JSON report (BENCH_<n>.json) so the trajectory is tracked alongside
// the code.
//
// Every run runs the same ordered list of scenarios, each filling its
// section of the report:
//
//   - batch: one full Estimate per estimator (direct, fam, ssca,
//     fam-q15, ssca-q15) at the process GOMAXPROCS — wall-clock ns/op,
//     bytes/op and allocs/op next to the modeled complex-multiplication
//     counts of scf.Stats and, for the Q15 backends, modeled Montium
//     cycles. The mult counts are the paper's canonical operation model
//     (FAM is charged a full P-point second FFT per cell even though the
//     code evaluates only its bin 0); keeping model and wall clock side
//     by side is the point of the rows.
//   - pruned: direct, fam and ssca full-plane and pruned to a small
//     alpha-candidate set. The pruned strips are checked bit-identical
//     against the full plane, then one batch decision (Estimate + CFAR +
//     feature scan) and, per serving-window length, one serving window
//     (Push + Snapshot + CFAR + feature scan + Reset, the per-decision
//     cycle of stream.Engine) are timed both ways.
//   - q15-kernel: fam-q15 and ssca-q15 under the scalar and the SWAR
//     kernels (checked to give the identical QSurface first) and their
//     float reference, timed interleaved round-robin with per-variant
//     medians, at GOMAXPROCS 1 and at NumCPU.
//   - fixed-point: each Q15 backend's surface SQNR, feature-peak bias,
//     saturation and block exponent against its float reference.
//   - mapping: the fam pipeline scheduled onto modeled tile fabrics
//     (tiledcfd.MapEstimate) for every strategy at 1, 2, 4 and 8 tiles.
//   - degraded: a router driving two remote shard workers over loopback
//     through the robustness layer, one of them blackholed a quarter of
//     the way into the feed; the row records the rate sustained across
//     the fault and what the fault cost.
//   - detection: the ROC sweep of the asymptotic detectors
//     (quant.RunROC), each operating point's measured Pfa checked
//     against the binomial confidence interval of its target.
//
// Streaming and wire ingestion are measured by the bench/ workloads
// (wire-fam, stream-ssca, stream-pruned-dg), and core scaling by
// `go test -bench BatchEstimate -cpu ...` in internal/fam.
//
// With -baseline, a previous report taken at the same geometry is
// embedded and per-estimator batch speedups (baseline ns / current ns)
// are computed:
//
//	go run ./cmd/cfdbench -baseline BENCH_10.json -out BENCH.json
//
// The gates read the finished report, which is written before any of
// them fails the run: -fail-below (batch speedups against the
// baseline), -pruned-fail-below (the best serving-window speedup),
// -q15-fail-below (fam-q15's float/fixed ratio) and -roc-gate (Pfa
// accuracy).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"maps"
	"math"
	"math/cmplx"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiledcfd"
	"tiledcfd/internal/chaos"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/quant"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// schema is the report format version; README.md's schema table lists
// what each version holds.
const schema = 10

// The benchmark geometry. It is fixed so that every report can serve as
// a baseline for the next.
const (
	benchK      = 256
	benchM      = 64
	benchBlocks = 8
	benchSeed   = 42
)

// Measurement is one estimator's batch row, taken at the process
// GOMAXPROCS so that same-runner baseline ratios compare like with like.
type Measurement struct {
	Name           string  `json:"name"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	NsPerOp        float64 `json:"ns_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	Iterations     int     `json:"iterations"`
	FFTMults       int     `json:"fft_mults"`
	PointwiseMults int     `json:"pointwise_mults"`
	TotalMults     int     `json:"total_mults"`
	SmoothingLen   int     `json:"smoothing_len"`
	// ModelCycles is the modeled Montium cycle cost (fixed backends only).
	ModelCycles int64 `json:"model_cycles,omitempty"`
}

// PrunedMeasurement is one estimator's row of the alpha-pruning
// scenario: the same band estimated full-plane and pruned to a small
// candidate set, with the pruned cells checked bit-identical against the
// full plane. Two ops are timed end to end:
//
//   - batch: Estimate + CFAR decision + feature extraction, the one-shot
//     directed-sensing path (cfdsim -alpha).
//   - serve: one serving window exactly as stream.Engine runs it per
//     decision — accumulator Push of the window, surface Snapshot, CFAR
//     decision, feature extraction, Reset. This is where the sparse
//     snapshot pays alongside the pruned estimation, so it is the
//     headline (and gated) number.
type PrunedMeasurement struct {
	Name string `json:"name"`
	// Candidates is the non-negative bin-offset set (mirrors and a=0
	// implied).
	Candidates []int `json:"candidates"`
	// RowsComputed / RowsFull are the surface alpha rows held after
	// pruning vs the full grid extent.
	RowsComputed int `json:"rows_computed"`
	RowsFull     int `json:"rows_full"`
	// FullNsPerOp and PrunedNsPerOp time one batch op (Estimate + CFAR
	// + feature extraction).
	FullNsPerOp   float64 `json:"full_ns_per_op"`
	PrunedNsPerOp float64 `json:"pruned_ns_per_op"`
	// Speedup is FullNsPerOp / PrunedNsPerOp — the batch-latency
	// reduction directed sensing buys.
	Speedup float64 `json:"speedup"`
	// WindowSamples is the serving-window size of this row's serve
	// numbers (batch numbers are identical across an estimator's rows).
	// The speedup grows as windows shrink, because the decision-side
	// costs — snapshot, CFAR profile, feature scan, all pruned at the
	// full cell ratio — dominate the shared per-block FFT floor.
	WindowSamples int `json:"window_samples,omitempty"`
	// ServeFullNsPerOp and ServePrunedNsPerOp time one serving window
	// (Push + Snapshot + CFAR + feature extraction + Reset). Zero when
	// the window is too short for this estimator's first snapshot.
	ServeFullNsPerOp   float64 `json:"serve_full_ns_per_op,omitempty"`
	ServePrunedNsPerOp float64 `json:"serve_pruned_ns_per_op,omitempty"`
	// ServeSpeedup is the serving-window latency reduction — the
	// -pruned-fail-below gate takes the best across rows.
	ServeSpeedup float64 `json:"serve_speedup,omitempty"`
	// MaxAbsDiff is the largest |full - pruned| over the candidate
	// strips; bit-identity means exactly 0.
	MaxAbsDiff float64 `json:"max_abs_diff"`
	// PrunedCellsSkipped counts grid cells one pruned Estimate never
	// computed.
	PrunedCellsSkipped int64 `json:"pruned_cells_skipped"`
	GOMAXPROCS         int   `json:"gomaxprocs"`
}

// Q15KernelMeasurement is one fixed-point estimator's row of the
// Q15-kernel scenario: the same full estimate timed under the scalar
// reference kernels and under the SWAR kernels, plus the float reference
// estimator, all interleaved round-robin in one process and reduced to
// per-variant medians. KernelSpeedup is what the SWAR datapath buys over
// the scalar one; FixedOverFloat is the headline cost of running the
// estimate in 16-bit words at all (the -q15-fail-below gate reads its
// inverse).
type Q15KernelMeasurement struct {
	Name       string `json:"name"`
	Reference  string `json:"reference"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Rounds     int    `json:"rounds"`
	// Samples is the scenario's own steady-state workload length; the
	// Q15 pipelines carry per-snapshot setup (quantisation, plan and
	// root-table lookup) that the kernel ratio should amortise, so the
	// scenario measures q15KernelBlocks blocks of K rather than the
	// benchmark band.
	Samples int `json:"samples"`
	// BitExact records the scenario's precondition check: the scalar and
	// SWAR kernels produced the identical QSurface (words, exponent,
	// gain) on the benchmark band. The run fails outright when false.
	BitExact bool `json:"bit_exact"`
	// Medians of the interleaved rounds, ns per full Estimate.
	ScalarNsPerOp float64 `json:"scalar_ns_per_op"`
	SWARNsPerOp   float64 `json:"swar_ns_per_op"`
	FloatNsPerOp  float64 `json:"float_ns_per_op"`
	// KernelSpeedup = scalar / SWAR (>1 means SWAR is faster).
	KernelSpeedup float64 `json:"kernel_speedup"`
	// FixedOverFloat = SWAR Q15 / float reference (1.0 = parity).
	FixedOverFloat float64 `json:"fixed_over_float"`
}

// FixedPointMeasurement is one Q15 backend's accuracy row against its
// float reference on the benchmark band.
type FixedPointMeasurement struct {
	Name           string  `json:"name"`
	Reference      string  `json:"reference"`
	SQNRdB         float64 `json:"sqnr_db"`
	PeakBias       float64 `json:"peak_bias"`
	SaturatedCells int     `json:"saturated_cells"`
	Exp            int     `json:"exp"`
	ModelCycles    int64   `json:"model_cycles"`
}

// DegradedMeasurement is the degraded-mode scenario: the robustness
// layer exercised under a mid-run blackhole of one remote shard worker,
// recording what the service sustains across the fault and what the
// fault cost (failovers, retries, shed samples).
type DegradedMeasurement struct {
	Name              string  `json:"name"`
	Shards            int     `json:"shards"`
	Channels          int     `json:"channels"`
	SamplesPerChannel int     `json:"samples_per_channel"`
	SnapshotSamples   int     `json:"snapshot_samples"`
	HealthIntervalMs  float64 `json:"health_interval_ms"`
	WallSeconds       float64 `json:"wall_seconds"`
	SamplesPerSec     float64 `json:"samples_per_sec"`
	// SamplesAttempted is the full feed; SamplesAccepted what the shard
	// engines processed. The difference beyond SamplesShed is data the
	// blackholed worker's socket acknowledged but never processed —
	// carried per channel by the router's counter-carry, and the
	// honest cost of the worst failure mode.
	SamplesAttempted int64 `json:"samples_attempted"`
	SamplesAccepted  int64 `json:"samples_accepted"`
	SamplesShed      int64 `json:"samples_shed"`
	Retries          int64 `json:"retries"`
	DeadlineExceeded int64 `json:"deadline_exceeded"`
	Failovers        int64 `json:"failovers"`
	Surfaces         int64 `json:"surfaces"`
	OpenCircuits     int   `json:"open_circuits"`
}

// MappingMeasurement is one (strategy, tiles) row of the multi-tile
// mapping scenario: the modeled fabric schedule's predicted figures for
// one estimator window.
type MappingMeasurement struct {
	Strategy           string  `json:"strategy"`
	Tiles              int     `json:"tiles"`
	WindowSamples      int     `json:"window_samples"`
	LatencyMicros      float64 `json:"latency_us"`
	ModelSamplesPerSec float64 `json:"model_samples_per_sec"`
	SpeedupVsSingle    float64 `json:"speedup_vs_single"`
	NoCWords           int64   `json:"noc_words"`
	MemFeasible        bool    `json:"mem_feasible"`
}

// MappingScenario holds the modeled mapping rows of one pipeline.
type MappingScenario struct {
	Estimator string               `json:"estimator"`
	Rows      []MappingMeasurement `json:"rows"`
}

// Report is the BENCH_<n>.json schema.
type Report struct {
	Schema     int                     `json:"schema"`
	Timestamp  string                  `json:"timestamp"`
	GoVersion  string                  `json:"go_version"`
	GOOS       string                  `json:"goos"`
	GOARCH     string                  `json:"goarch"`
	GOMAXPROCS int                     `json:"gomaxprocs"`
	NumCPU     int                     `json:"num_cpu"`
	Geometry   Geometry                `json:"geometry"`
	Note       string                  `json:"note"`
	Results    []Measurement           `json:"results"`
	Detection  *DetectionScenario      `json:"detection,omitempty"`
	Pruned     []PrunedMeasurement     `json:"pruned,omitempty"`
	Q15Kernel  []Q15KernelMeasurement  `json:"q15_kernel,omitempty"`
	FixedPoint []FixedPointMeasurement `json:"fixed_point,omitempty"`
	Degraded   *DegradedMeasurement    `json:"degraded,omitempty"`
	Mapping    *MappingScenario        `json:"mapping,omitempty"`
	Baseline   *Report                 `json:"baseline,omitempty"`
	Speedup    map[string]float64      `json:"speedup_vs_baseline,omitempty"`
}

// DetectionScenario is the detector ROC sweep: the full quant.RunROC
// report plus the Pfa-accuracy summary the gate reads — the worst
// |measured − target| Pfa error across asymptotic operating points and
// the list of points outside their confidence interval.
type DetectionScenario struct {
	quant.ROCReport
	WorstPfaErr float64  `json:"worst_pfa_err"`
	PfaFailures []string `json:"pfa_failures,omitempty"`
}

// Geometry records the benchmark's estimator configuration. A baseline
// is only comparable when its Geometry equals the run's.
type Geometry struct {
	K       int    `json:"k"`
	M       int    `json:"m"`
	Blocks  int    `json:"blocks"`
	Samples int    `json:"samples"`
	Signal  string `json:"signal"`
	Seed    uint64 `json:"seed"`
}

// options holds the command-line flags: the output paths, the baseline
// and the gates.
type options struct {
	out, baseline, rocOut                    string
	failBelow, prunedFailBelow, q15FailBelow float64
	rocGate                                  bool
}

func main() {
	var o options
	flag.StringVar(&o.out, "out", "BENCH.json", "output JSON path")
	flag.StringVar(&o.baseline, "baseline", "",
		"previous BENCH json, taken at the same geometry, to embed for before/after speedups")
	flag.Float64Var(&o.failBelow, "fail-below", 0,
		"with -baseline: exit non-zero if any batch speedup falls below this ratio (0 = never fail)")
	flag.Float64Var(&o.prunedFailBelow, "pruned-fail-below", 0,
		"exit non-zero if the best pruned serving-window speedup falls below this ratio (0 = never fail)")
	flag.Float64Var(&o.q15FailBelow, "q15-fail-below", 0,
		"exit non-zero if fam-q15's float/fixed throughput ratio falls below this on any q15-kernel row, one row per GOMAXPROCS setting (0.5 = fail when fam-q15 costs more than 2x float fam; 0 = never fail)")
	flag.BoolVar(&o.rocGate, "roc-gate", false,
		"exit non-zero when any asymptotic operating point's measured Pfa falls outside its confidence interval")
	flag.StringVar(&o.rocOut, "roc-out", "",
		"also write the detection scenario's ROC report to this standalone JSON path")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "cfdbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if o.failBelow > 0 && o.baseline == "" {
		return errors.New("-fail-below needs -baseline")
	}
	e, err := newEnv(benchK, benchM, benchBlocks, benchSeed)
	if err != nil {
		return err
	}
	rep := e.newReport()
	var base *Report
	if o.baseline != "" {
		if base, err = loadBaseline(o.baseline, rep.Geometry); err != nil {
			return err
		}
	}
	for _, sc := range scenarios {
		if err := sc.run(e, fullSizes, &rep); err != nil {
			return fmt.Errorf("%s scenario: %w", sc.name, err)
		}
	}
	if base != nil {
		rep.compare(base)
	}
	if err := writeJSON(o.out, rep); err != nil {
		return err
	}
	if o.rocOut != "" && rep.Detection != nil {
		if err := writeJSON(o.rocOut, rep.Detection.ROCReport); err != nil {
			return err
		}
	}
	return errors.Join(
		speedupGate(&rep, o.failBelow),
		prunedGate(&rep, o.prunedFailBelow),
		q15Gate(&rep, o.q15FailBelow),
		rocGate(&rep, o.rocGate),
	)
}

// env is what every scenario reads: the geometry, the seeded BPSK band
// and the batch estimators built over it.
type env struct {
	p      scf.Params
	blocks int
	seed   uint64
	band   []complex128
	all    map[string]scf.Estimator
}

func newEnv(k, m, blocks int, seed uint64) (*env, error) {
	band, err := tiledcfd.NewBPSKBand(k*blocks, 0.125, 8, 10, seed)
	if err != nil {
		return nil, err
	}
	p := scf.Params{K: k, M: m}
	return &env{p: p, blocks: blocks, seed: seed, band: band,
		all: estimatorSet(p, blocks, bandPeak(band))}, nil
}

// newReport returns the report header for a run over e.
func (e *env) newReport() Report {
	return Report{
		Schema:     schema,
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Geometry: Geometry{
			K: e.p.K, M: e.p.M, Blocks: e.blocks, Samples: len(e.band),
			Signal: "bpsk carrier=0.125 symlen=8 snr=10dB", Seed: e.seed,
		},
		Note: "mult counts are the paper's canonical operation model " +
			"(FAM charged a full P-point second FFT per cell); ns/op is measured wall-clock",
	}
}

// sizes sets the workload of the scenarios whose cost does not follow
// the geometry. run always uses fullSizes; the smoke test shrinks them.
type sizes struct {
	prunedAlpha      []int
	prunedWindows    []int
	q15Rounds        int
	q15Procs         []int
	degradedChannels int
	degradedSamples  int
	rocTrials        int
}

var fullSizes = sizes{
	// Bin offsets of the band's feature rows plus CFAR reference strips.
	prunedAlpha:   []int{16, 32, 11, 40},
	prunedWindows: []int{1024, 2048, 8192},
	// Odd, for a clean median.
	q15Rounds: 11,
	// 0 stands for NumCPU.
	q15Procs:         []int{1, 0},
	degradedChannels: 8,
	degradedSamples:  1 << 16,
	rocTrials:        200,
}

// scenario is one named part of the run; it fills its section of the
// report.
type scenario struct {
	name string
	run  func(e *env, sz sizes, rep *Report) error
}

// scenarios is the ordered list every run runs.
var scenarios = []scenario{
	{"batch", batchScenario},
	{"pruned", prunedScenario},
	{"q15-kernel", q15KernelScenario},
	{"fixed-point", fixedPointScenario},
	{"mapping", mappingScenario},
	{"degraded", degradedScenario},
	{"detection", detectionScenario},
}

// batchNames is the batch scenario's estimator set, in row order.
var batchNames = []string{"direct", "fam", "ssca", "fam-q15", "ssca-q15"}

// fixedPairs pairs each Q15 backend with the float estimator it shadows.
var fixedPairs = []struct{ name, ref string }{{"fam-q15", "fam"}, {"ssca-q15", "ssca"}}

// estimatorSet builds the named batch estimators over one parameter
// set (Blocks applies to the direct DSCF only). peak is the benchmark
// band's largest component magnitude; fixing it as the Q15 estimators'
// InputPeak keeps their batch conditioning identical to the default
// measured-peak path on that band while enabling their streaming
// accumulators, which cannot measure a peak incrementally.
func estimatorSet(p scf.Params, blocks int, peak float64) map[string]scf.Estimator {
	direct := p
	direct.Blocks = blocks
	return map[string]scf.Estimator{
		"direct":   scf.Direct{Params: direct},
		"fam":      fam.FAM{Params: p},
		"ssca":     fam.SSCA{Params: p},
		"fam-q15":  fam.FAMQ15{Params: p, InputPeak: peak},
		"ssca-q15": fam.SSCAQ15{Params: p, InputPeak: peak},
	}
}

// bandPeak returns the largest real/imaginary component magnitude in
// band — the quantity the Q15 estimators condition against.
func bandPeak(band []complex128) float64 {
	var peak float64
	for _, s := range band {
		if v := math.Abs(real(s)); v > peak {
			peak = v
		}
		if v := math.Abs(imag(s)); v > peak {
			peak = v
		}
	}
	return peak
}

// loadBaseline reads a previous report and rejects it unless it was
// taken at geometry want: speedups against other work are meaningless.
// Reports of older schemas parse too; sections this schema no longer
// carries are dropped.
func loadBaseline(path string, want Geometry) (*Report, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("parse baseline %s: %w", path, err)
	}
	if base.Geometry != want {
		return nil, fmt.Errorf("baseline %s geometry %+v differs from this run's %+v",
			path, base.Geometry, want)
	}
	base.Baseline = nil // keep the artifact one level deep
	return &base, nil
}

// compare embeds base and records the per-estimator batch speedups
// (baseline ns / current ns) of the rows both reports hold.
func (rep *Report) compare(base *Report) {
	rep.Baseline = base
	rep.Speedup = map[string]float64{}
	for _, b := range base.Results {
		for _, c := range rep.Results {
			if b.Name == c.Name && c.NsPerOp > 0 {
				rep.Speedup[b.Name] = b.NsPerOp / c.NsPerOp
			}
		}
	}
	for _, name := range slices.Sorted(maps.Keys(rep.Speedup)) {
		fmt.Printf("%-8s %.2fx vs baseline\n", name, rep.Speedup[name])
	}
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	buf, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

// speedupGate fails when any batch estimator's speedup against the
// baseline falls below failBelow (0 = never); the CI bench-regression
// job runs it at 0.8 against HEAD~1 on the same runner.
func speedupGate(rep *Report, failBelow float64) error {
	if failBelow <= 0 {
		return nil
	}
	var slow []string
	for _, name := range slices.Sorted(maps.Keys(rep.Speedup)) {
		if s := rep.Speedup[name]; s < failBelow {
			slow = append(slow, fmt.Sprintf("%s %.2fx", name, s))
		}
	}
	if len(slow) == 0 {
		return nil
	}
	return fmt.Errorf("batch-estimator regression: speedup below %.2fx for %s",
		failBelow, strings.Join(slow, ", "))
}

// prunedGate fails when the best serving-window speedup across the
// pruned rows falls below failBelow (0 = never). Directed sensing
// deploys the estimator that benefits, while SSCA's per-sample
// channelizer is inherently unprunable and would pin an every-row gate
// near 1x.
func prunedGate(rep *Report, failBelow float64) error {
	if failBelow <= 0 {
		return nil
	}
	best, bestName := 0.0, ""
	for _, r := range rep.Pruned {
		if r.ServeSpeedup > best {
			best, bestName = r.ServeSpeedup, r.Name
		}
	}
	if best >= failBelow {
		return nil
	}
	return fmt.Errorf("pruned-scenario regression: best serving-window speedup %.2fx (%s) below %.2fx",
		best, bestName, failBelow)
}

// q15Gate fails when fam-q15's float/fixed ratio falls below failBelow
// (0 = never) on any q15-kernel row: fam-q15 must stay within
// 1/failBelow of the float fam it shadows at every GOMAXPROCS setting.
func q15Gate(rep *Report, failBelow float64) error {
	if failBelow <= 0 {
		return nil
	}
	var err error
	for _, r := range rep.Q15Kernel {
		if r.Name != "fam-q15" || r.SWARNsPerOp <= 0 {
			continue
		}
		if ratio := r.FloatNsPerOp / r.SWARNsPerOp; ratio < failBelow {
			err = errors.Join(err, fmt.Errorf(
				"q15-kernel regression: fam-q15@p%d float/fixed ratio %.2f below %.2f (fam-q15 costs %.2fx float fam)",
				r.GOMAXPROCS, ratio, failBelow, r.FixedOverFloat))
		}
	}
	return err
}

// rocGate fails, when on, if any asymptotic operating point's measured
// Pfa falls outside its confidence interval.
func rocGate(rep *Report, on bool) error {
	if !on || rep.Detection == nil || len(rep.Detection.PfaFailures) == 0 {
		return nil
	}
	d := rep.Detection
	return fmt.Errorf("detector Pfa-accuracy gate: %d operating point(s) outside the %.0f%% CI: %s",
		len(d.PfaFailures), 100*d.Confidence, strings.Join(d.PfaFailures, "; "))
}

// batchScenario times one full Estimate per estimator on the band at
// the process GOMAXPROCS.
func batchScenario(e *env, _ sizes, rep *Report) error {
	for _, name := range batchNames {
		est := e.all[name]
		var stats *scf.Stats
		var estErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_, st, err := est.Estimate(e.band)
				if err != nil {
					estErr = err
					b.FailNow()
				}
				stats = st
			}
		})
		if estErr != nil {
			return fmt.Errorf("%s: %w", name, estErr)
		}
		row := Measurement{
			Name:           name,
			GOMAXPROCS:     runtime.GOMAXPROCS(0),
			NsPerOp:        float64(r.NsPerOp()),
			BytesPerOp:     r.AllocedBytesPerOp(),
			AllocsPerOp:    r.AllocsPerOp(),
			Iterations:     r.N,
			FFTMults:       stats.FFTMults,
			PointwiseMults: stats.DSCFMults,
			TotalMults:     stats.TotalMults(),
			SmoothingLen:   stats.Blocks,
			ModelCycles:    stats.Cycles,
		}
		rep.Results = append(rep.Results, row)
		fmt.Printf("%-12s %12.0f ns/op %10d B/op %6d allocs/op %10d total_mults\n",
			name, row.NsPerOp, row.BytesPerOp, row.AllocsPerOp, row.TotalMults)
	}
	return nil
}

// q15KernelBlocks is the minimum workload of the Q15-kernel scenario
// in blocks of K samples: long enough that the Q15 pipelines' fixed
// per-snapshot setup stops dominating and the measured ratio tracks
// kernel throughput.
const q15KernelBlocks = 32

// q15KernelScenario times, for each sz.q15Procs setting and each
// fixed-point estimator, three variants of the same full-band estimate
// — Q15 under the scalar kernels, Q15 under the SWAR kernels, and the
// float reference — after checking that the two kernel implementations
// produce the identical QSurface. The variants are timed INTERLEAVED:
// each round times all of them back to back, and the row keeps
// per-variant medians. On a shared runner, absolute ns/op between
// separate benchmark invocations wanders by tens of percent, but the
// ratio of medians over interleaved rounds holds steady — and ratios
// are what the scenario exists to track. When the band is shorter than
// q15KernelBlocks blocks of K, a longer one is synthesised from the same
// seed so the per-snapshot fixed-point setup cost amortises the way a
// steady-state deployment would see it.
func q15KernelScenario(e *env, sz sizes, rep *Report) error {
	band := e.band
	if n := q15KernelBlocks * e.p.K; len(band) < n {
		var err error
		if band, err = tiledcfd.NewBPSKBand(n, 0.125, 8, 10, e.seed); err != nil {
			return err
		}
	}
	// Earlier scenarios leave the GC pacer tuned for their own heap
	// shapes, which penalises the allocation-heavier Q15 variants far
	// more than the float reference and skews the very ratio this
	// scenario gates on. Settle the heap before timing anything.
	runtime.GC()
	debug.FreeOSMemory()
	for _, procs := range sz.q15Procs {
		if procs <= 0 {
			procs = runtime.NumCPU()
		}
		prev := runtime.GOMAXPROCS(procs)
		for _, fp := range fixedPairs {
			row, err := benchQ15KernelOnce(fp.name, fp.ref, e.all[fp.name].(quant.FixedEstimator),
				e.all[fp.ref], sz.q15Rounds, band)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return err
			}
			rep.Q15Kernel = append(rep.Q15Kernel, *row)
			fmt.Printf("%-8s q15-kernel p=%d: swar %9.0f ns scalar %9.0f ns (%.2fx) · float %9.0f ns (fixed %.2fx float)\n",
				fp.name, row.GOMAXPROCS, row.SWARNsPerOp, row.ScalarNsPerOp, row.KernelSpeedup,
				row.FloatNsPerOp, row.FixedOverFloat)
		}
		runtime.GOMAXPROCS(prev)
	}
	return nil
}

// benchQ15KernelOnce measures one estimator at the current GOMAXPROCS:
// bit-exactness first, then the interleaved timing rounds.
func benchQ15KernelOnce(name, refName string, fe quant.FixedEstimator, ref scf.Estimator,
	rounds int, band []complex128) (*Q15KernelMeasurement, error) {
	restore := fixed.Use(fixed.ScalarKernels{})
	defer fixed.Use(restore)
	qScalar, _, err := fe.EstimateQ15(band)
	if err != nil {
		return nil, fmt.Errorf("%s scalar: %w", name, err)
	}
	fixed.Use(fixed.SWARKernels{})
	qSWAR, _, err := fe.EstimateQ15(band)
	if err != nil {
		return nil, fmt.Errorf("%s swar: %w", name, err)
	}
	if ok, diff := qScalar.Equal(qSWAR); !ok {
		return nil, fmt.Errorf("%s: scalar and SWAR kernels disagree: %s", name, diff)
	}
	timeOne := func(kern fixed.Kernels, e scf.Estimator) (float64, error) {
		if kern != nil {
			fixed.Use(kern)
		}
		startAt := time.Now()
		_, _, err := e.Estimate(band)
		return float64(time.Since(startAt).Nanoseconds()), err
	}
	scalarNs := make([]float64, 0, rounds)
	swarNs := make([]float64, 0, rounds)
	floatNs := make([]float64, 0, rounds)
	for r := 0; r < rounds; r++ {
		ns, err := timeOne(fixed.ScalarKernels{}, fe)
		if err != nil {
			return nil, fmt.Errorf("%s scalar: %w", name, err)
		}
		scalarNs = append(scalarNs, ns)
		if ns, err = timeOne(fixed.SWARKernels{}, fe); err != nil {
			return nil, fmt.Errorf("%s swar: %w", name, err)
		}
		swarNs = append(swarNs, ns)
		if ns, err = timeOne(nil, ref); err != nil {
			return nil, fmt.Errorf("%s float ref %s: %w", name, refName, err)
		}
		floatNs = append(floatNs, ns)
	}
	row := &Q15KernelMeasurement{
		Name:          name,
		Reference:     refName,
		GOMAXPROCS:    runtime.GOMAXPROCS(0),
		Rounds:        rounds,
		Samples:       len(band),
		BitExact:      true,
		ScalarNsPerOp: median(scalarNs),
		SWARNsPerOp:   median(swarNs),
		FloatNsPerOp:  median(floatNs),
	}
	if row.SWARNsPerOp > 0 {
		row.KernelSpeedup = row.ScalarNsPerOp / row.SWARNsPerOp
		row.FixedOverFloat = row.SWARNsPerOp / row.FloatNsPerOp
	}
	return row, nil
}

// median returns the middle value of v (mean of the middle two for even
// lengths); v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	slices.Sort(v)
	if len(v)%2 == 1 {
		return v[len(v)/2]
	}
	return (v[len(v)/2-1] + v[len(v)/2]) / 2
}

// fixedPointScenario compares every Q15 backend against its float
// reference on the band.
func fixedPointScenario(e *env, _ sizes, rep *Report) error {
	for _, fp := range fixedPairs {
		cmp, err := quant.Compare(e.band, e.all[fp.name].(quant.FixedEstimator), e.all[fp.ref])
		if err != nil {
			return fmt.Errorf("%s: %w", fp.name, err)
		}
		rep.FixedPoint = append(rep.FixedPoint, FixedPointMeasurement{
			Name:           fp.name,
			Reference:      fp.ref,
			SQNRdB:         cmp.SQNRdB,
			PeakBias:       cmp.PeakBias,
			SaturatedCells: cmp.SaturatedCells,
			Exp:            cmp.Exp,
			ModelCycles:    cmp.Cycles,
		})
		fmt.Printf("%-8s fixed-point vs %-6s %7.1f dB SQNR %+7.3f%% peak bias %8d cycles\n",
			fp.name, fp.ref, cmp.SQNRdB, 100*cmp.PeakBias, cmp.Cycles)
	}
	return nil
}

// prunedEstimators is the pruned scenario's estimator set.
var prunedEstimators = []string{"direct", "fam", "ssca"}

// prunedScenario runs each of prunedEstimators twice — full plane, and
// pruned to sz.prunedAlpha — timing the batch op (Estimate + CFAR +
// feature extraction) and, for streaming estimators, the serving-window
// op (Push + Snapshot + CFAR + feature extraction + Reset: the exact
// per-decision cycle of stream.Engine) at every sz.prunedWindows length.
// The pruned strips are checked against the full plane cell by cell;
// bit-identity means MaxAbsDiff exactly 0.
func prunedScenario(e *env, sz sizes, rep *Report) error {
	// The serve sweep may ask for windows longer than the batch band;
	// extend the same signal to the largest requested window.
	serveBand := e.band
	if w := slices.Max(sz.prunedWindows); w > len(serveBand) {
		var err error
		if serveBand, err = tiledcfd.NewBPSKBand(w, 0.125, 8, 10, e.seed); err != nil {
			return err
		}
	}
	pruned := e.p
	pruned.AlphaCandidates = sz.prunedAlpha
	prunedSet := estimatorSet(pruned, e.blocks, bandPeak(e.band))
	cfar := detect.CFAR{}
	for _, name := range prunedEstimators {
		fe, pe := e.all[name], prunedSet[name]
		// Bit-identity first: the speedup only counts if the pruned
		// strips are exactly the full-plane values.
		fs, _, err := fe.Estimate(e.band)
		if err != nil {
			return fmt.Errorf("%s full: %w", name, err)
		}
		ps, _, err := pe.Estimate(e.band)
		if err != nil {
			return fmt.Errorf("%s pruned: %w", name, err)
		}
		diff := stripMaxAbsDiff(fs, ps)
		fullNs, err := benchDecide(fe, cfar, e.band)
		if err != nil {
			return fmt.Errorf("%s full: %w", name, err)
		}
		prunedNs, err := benchDecide(pe, cfar, e.band)
		if err != nil {
			return fmt.Errorf("%s pruned: %w", name, err)
		}
		sf, fok := fe.(scf.StreamingEstimator)
		sp, pok := pe.(scf.StreamingEstimator)
		for _, w := range sz.prunedWindows {
			var serveFullNs, servePrunedNs float64
			if fok && pok {
				if serveFullNs, err = benchServeWindow(sf, cfar, serveBand[:w]); err != nil {
					return fmt.Errorf("%s full serve w=%d: %w", name, w, err)
				}
				if servePrunedNs, err = benchServeWindow(sp, cfar, serveBand[:w]); err != nil {
					return fmt.Errorf("%s pruned serve w=%d: %w", name, w, err)
				}
			}
			row := PrunedMeasurement{
				Name:               name,
				Candidates:         sz.prunedAlpha,
				RowsComputed:       len(ps.Data),
				RowsFull:           len(fs.Data),
				FullNsPerOp:        fullNs,
				PrunedNsPerOp:      prunedNs,
				WindowSamples:      w,
				MaxAbsDiff:         diff,
				PrunedCellsSkipped: pruned.PrunedCellsSkipped(),
				GOMAXPROCS:         runtime.GOMAXPROCS(0),
			}
			if prunedNs > 0 {
				row.Speedup = fullNs / prunedNs
			}
			row.ServeFullNsPerOp, row.ServePrunedNsPerOp = serveFullNs, servePrunedNs
			if servePrunedNs > 0 {
				row.ServeSpeedup = serveFullNs / servePrunedNs
			}
			rep.Pruned = append(rep.Pruned, row)
			fmt.Printf("%-8s pruned %d candidates w=%-5d: batch %10.0f -> %9.0f ns/op %5.1fx · serve %10.0f -> %9.0f ns/op %5.1fx (max |diff| %g)\n",
				name, len(sz.prunedAlpha), w, fullNs, prunedNs, row.Speedup,
				serveFullNs, servePrunedNs, row.ServeSpeedup, diff)
		}
	}
	return nil
}

// benchDecide times one batch decision on the band: Estimate, the CFAR
// verdict, and the feature-peak extraction the serving layer reports
// with every decision (stream.Engine.decide does the same pair of passes
// over the surface).
func benchDecide(e scf.Estimator, cfar detect.CFAR, band []complex128) (float64, error) {
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s, _, err := e.Estimate(band)
			if err == nil {
				_, err = cfar.Examine(s)
				featurePeak(s)
			}
			if err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return 0, opErr
	}
	return float64(r.NsPerOp()), nil
}

// featurePeak replicates the squared-magnitude feature scan of
// stream.Engine.decide (its maxFeatureMinA with the CFAR default
// MinAbsA), so the timed op spends exactly what the serving layer
// spends per decision. On a pruned surface only the held rows are
// searched.
func featurePeak(s *scf.Surface) (f, a int) {
	const minAbsA = 2 // detect.CFAR default
	best := -1.0
	m := s.M - 1
	alphas := s.AlphaValues()
	for i, row := range s.Data {
		av := alphas[i]
		if av > -minAbsA && av < minAbsA {
			continue
		}
		for fi, v := range row {
			if mag := real(v)*real(v) + imag(v)*imag(v); mag > best {
				best, f, a = mag, fi-m, av
			}
		}
	}
	return f, a
}

// benchServeWindow times one serving window exactly as stream.Engine
// spends it per decision: push the window's samples through the
// estimator's accumulator, bound to the window as the engine binds it
// (scf.AccumulatorFor), snapshot the surface, run the CFAR verdict and
// the feature-peak extraction, and reset for the next window (the
// non-cumulative serving mode). On a pruned channel every stage scales
// with the candidate count — estimation touches only the held rows and
// the snapshot/decision cost follows the sparse surface — which is the
// end-to-end latency directed sensing buys in production.
func benchServeWindow(e scf.StreamingEstimator, cfar detect.CFAR, band []complex128) (float64, error) {
	acc, err := scf.AccumulatorFor(e, len(band))
	if err != nil {
		return 0, err
	}
	// Pre-flight outside the timer: a window too short for this
	// estimator's first snapshot is reported as zero, not an error (the
	// sweep may include windows below an estimator's smoothing needs).
	if err := acc.Push(band); err != nil {
		return 0, err
	}
	if !acc.Ready() {
		return 0, nil
	}
	acc.Reset()
	var opErr error
	r := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			acc.Reset()
			if err := acc.Push(band); err != nil {
				opErr = err
				b.FailNow()
			}
			s, _, err := acc.Snapshot()
			if err == nil {
				_, err = cfar.Examine(s)
				featurePeak(s)
			}
			if err != nil {
				opErr = err
				b.FailNow()
			}
		}
	})
	if opErr != nil {
		return 0, opErr
	}
	return float64(r.NsPerOp()), nil
}

// stripMaxAbsDiff returns the largest cellwise magnitude difference
// between a full surface and a pruned one over the rows the pruned
// surface holds.
func stripMaxAbsDiff(full, pruned *scf.Surface) float64 {
	worst := 0.0
	alphas := pruned.AlphaValues()
	for i, row := range pruned.Data {
		fullRow := full.Row(alphas[i])
		for j := range row {
			if d := cmplx.Abs(row[j] - fullRow[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// mappingTiles are the tile counts the mapping scenario schedules onto.
var mappingTiles = []int{1, 2, 4, 8}

// mappingScenario schedules the fam pipeline onto the paper-default
// fabric at every strategy × tile count, each schedule validated by
// construction, with the single-tile schedule as the speedup baseline.
func mappingScenario(e *env, _ sizes, rep *Report) error {
	cfg := tiledcfd.Config{K: e.p.K, M: e.p.M, Blocks: e.blocks, Estimator: "fam"}
	base, err := tiledcfd.MapEstimate(cfg, tiledcfd.FabricConfig{Tiles: 1}, "single")
	if err != nil {
		return err
	}
	sc := &MappingScenario{Estimator: base.Estimator}
	for _, strategy := range tiledcfd.MappingNames() {
		for i, tc := range mappingTiles {
			if strategy == "single" && i > 0 {
				// The single-tile mapping is tile-count-invariant; one
				// row says everything.
				continue
			}
			m, err := tiledcfd.MapEstimate(cfg, tiledcfd.FabricConfig{Tiles: tc}, strategy)
			if err != nil {
				return err
			}
			sc.Rows = append(sc.Rows, MappingMeasurement{
				Strategy:           strategy,
				Tiles:              tc,
				WindowSamples:      m.WindowSamples,
				LatencyMicros:      m.LatencyMicros,
				ModelSamplesPerSec: m.SustainedSamplesPerSec,
				SpeedupVsSingle:    m.SustainedSamplesPerSec / base.SustainedSamplesPerSec,
				NoCWords:           m.NoCWords,
				MemFeasible:        m.MemFeasible,
			})
			fmt.Printf("%-8s mapping %-9s %d tiles: %8.3fM model samples/s %6.2fx vs single %8d NoC words\n",
				sc.Estimator, strategy, tc, m.SustainedSamplesPerSec/1e6,
				m.SustainedSamplesPerSec/base.SustainedSamplesPerSec, m.NoCWords)
		}
	}
	rep.Mapping = sc
	return nil
}

// detectionConfidence is the binomial confidence of the Pfa-accuracy
// check: 0.99 leaves headroom against flakes across the sweep's many
// operating points.
const detectionConfidence = 0.99

// detectionScenario runs the ROC sweep of the asymptotic detectors —
// estimator × detector × modulation × SNR, each curve traced across
// target-Pfa operating points. The asymptotic tests derive their
// thresholds in closed form from the target false-alarm probability, so
// every point's measured Pfa must sit inside the binomial confidence
// interval around its target.
func detectionScenario(e *env, sz sizes, rep *Report) error {
	roc, err := quant.RunROC(quant.ROCConfig{
		Trials: sz.rocTrials, Confidence: detectionConfidence, Seed: e.seed,
	})
	if err != nil {
		return err
	}
	worst, failures := roc.PfaAccuracy()
	rep.Detection = &DetectionScenario{ROCReport: *roc, WorstPfaErr: worst, PfaFailures: failures}
	fmt.Printf("detection ROC: %d curves, worst Pfa error %.4f, %d point(s) outside %.0f%% CI\n",
		len(roc.Curves), worst, len(failures), 100*roc.Confidence)
	return nil
}

// workerSink adapts a stream engine to a worker-mode wire server's data
// plane (the degraded scenario's in-process shard workers).
type workerSink struct{ eng *stream.Engine }

// OpenChannel registers the stream's channel on the worker engine.
func (s workerSink) OpenChannel(meta wire.Meta) error { return s.eng.AddChannel(meta.ID) }

// Push feeds decoded samples to the worker engine.
func (s workerSink) Push(id string, samples []complex128) (int, error) {
	return s.eng.Push(id, samples)
}

// degradedShards is the number of remote shard workers in the degraded
// scenario: one gets blackholed, so failover needs at least two.
const degradedShards = 2

// degradedScenario drives degradedShards in-process remote shard
// workers serving fam over loopback, every remote wrapped in the
// robustness layer, and once a quarter of the feed is in, worker 0 is
// blackholed — its connections stay open but stop moving bytes, so only
// the per-push deadline can unstick the router. The feeders keep
// pushing through the fault; the circuit opens, the dead worker's
// channels re-home onto the survivors, and the run's aggregate rate plus
// the fault's cost (failovers, retries, shed samples) become the row.
func degradedScenario(e *env, sz sizes, rep *Report) error {
	const window = 8192
	engCfg := stream.Config{
		Estimator: e.all["fam"].(scf.StreamingEstimator), SnapshotSamples: window, Block: true,
	}

	// In-process shard workers; worker 0's listener goes through the
	// fault controller so it can be blackholed mid-run.
	ctl := chaos.NewController(42)
	remotes := make([]shard.RemoteShard, degradedShards)
	for i := range remotes {
		eng, err := stream.New(engCfg)
		if err != nil {
			return err
		}
		defer eng.Close()
		srv, err := wire.NewServer(wire.ServerConfig{
			Sink: workerSink{eng}, Engine: eng, RemoveOnClose: true,
		})
		if err != nil {
			return err
		}
		defer srv.Close()
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		if i == 0 {
			srv.Serve(chaos.NewListener(ln, ctl))
		} else {
			srv.Serve(ln)
		}
		remotes[i] = shard.RemoteShard{Name: fmt.Sprintf("r%d", i), Addr: ln.Addr().String()}
	}
	guard := shard.GuardConfig{
		PushTimeout:    250 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   5 * time.Millisecond,
		MaxBackoff:     50 * time.Millisecond,
		FailThreshold:  1,
		Cooldown:       time.Second,
		HealthInterval: 50 * time.Millisecond,
		Seed:           42,
	}
	r, err := shard.New(shard.Config{
		Engine:        engCfg,
		Remotes:       remotes,
		Guard:         guard,
		FallbackLocal: true,
	})
	if err != nil {
		return err
	}
	defer r.Close()
	go func() {
		for range r.Decisions() {
		}
	}()
	ids := make([]string, sz.degradedChannels)
	for i := range ids {
		ids[i] = fmt.Sprintf("degch%d", i)
		if err := r.AddChannel(ids[i]); err != nil {
			return err
		}
	}
	var (
		attempted atomic.Int64
		faultOnce sync.Once
	)
	// Trip the fault a quarter of the way in, so most of the feed runs
	// through detection, failover and the degraded steady state.
	total := sz.degradedSamples
	trip := int64(len(ids)) * int64(total) / 4
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, len(ids))
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for fed := 0; fed < total; {
				n := min(len(e.band), total-fed)
				// A shed push returns (0, nil): the robustness layer already
				// accounted the loss, so the feeder moves on — a live source
				// cannot rewind its antenna either.
				if _, err := r.Push(id, e.band[:n]); err != nil {
					errs[i] = err
					return
				}
				fed += n
				if attempted.Add(int64(n)) >= trip {
					faultOnce.Do(func() { ctl.Blackhole(true) })
				}
			}
		}(i, id)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Wait for the health loop to declare the blackholed shard dead
	// before flushing: a wedged worker absorbs small feeds into socket
	// buffers without ever failing a push, and the live-only Flush must
	// not commit a long round-trip to a shard the breaker is about to
	// disown.
	deadline := time.Now().Add(30 * time.Second)
	for r.Stats().Failovers == 0 {
		if time.Now().After(deadline) {
			return fmt.Errorf("blackhole never tripped a failover (stats %+v)", r.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := r.Flush(5 * time.Minute); err != nil {
		return err
	}
	wall := time.Since(start).Seconds()
	st := r.Stats()
	row := &DegradedMeasurement{
		Name:              "fam",
		Shards:            degradedShards,
		Channels:          len(ids),
		SamplesPerChannel: total,
		SnapshotSamples:   window,
		HealthIntervalMs:  float64(guard.HealthInterval) / float64(time.Millisecond),
		WallSeconds:       wall,
		SamplesAttempted:  int64(len(ids)) * int64(total),
		SamplesAccepted:   st.SamplesIn,
		SamplesShed:       st.ShedSamples,
		Retries:           st.Retries,
		DeadlineExceeded:  st.DeadlineExceeded,
		Failovers:         st.Failovers,
		Surfaces:          st.Surfaces,
		OpenCircuits:      st.OpenCircuits,
	}
	if wall > 0 {
		row.SamplesPerSec = float64(st.SamplesIn) / wall
	}
	rep.Degraded = row
	fmt.Printf("%-8s degraded %d shards (1 blackholed) %d ch: %8.2fM samples/s %d failovers %d retries %d shed\n",
		row.Name, row.Shards, row.Channels, row.SamplesPerSec/1e6,
		row.Failovers, row.Retries, row.SamplesShed)
	return nil
}
