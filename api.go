package tiledcfd

import (
	"fmt"
	"math"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/core"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/mapping"
	"tiledcfd/internal/perf"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/sig"
	"tiledcfd/internal/soc"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// Config selects the platform geometry and detection settings for Sense.
// Zero values take the paper's configuration (K=256, M=64, Q=4 cores at
// 100 MHz, one integration block).
type Config struct {
	// K is the FFT size.
	K int
	// M is the DSCF grid half-extent: f and a span [-(M-1), M-1].
	M int
	// Q is the number of Montium tiles.
	Q int
	// Blocks is the number of K-sample integration steps.
	Blocks int
	// ClockMHz is the tile clock for the evaluation figures.
	ClockMHz float64
	// MinAbsA is the smallest |a| the blind detector searches (default 2).
	MinAbsA int
	// Threshold is the "fixed" detector's decision threshold on the CFD
	// statistic. With an empty Detector, a positive Threshold selects
	// "fixed".
	Threshold float64
	// CFARScale is the "cfar" detector's peak-over-floor ratio (default
	// 2). Ignored by the other detectors.
	CFARScale float64
	// Detector selects the decision layer by registry name
	// (DetectorNames lists the registry):
	//
	//   - "cfar": the self-calibrating peak-over-floor detector on the
	//     estimated surface (ratio CFARScale);
	//   - "fixed": the externally calibrated threshold on the CFD
	//     statistic (Threshold must be positive);
	//   - "dg": the Dandawate–Giannakis asymptotic cyclostationarity
	//     test — chi-square statistic on the cyclic-autocorrelation
	//     vector at the AlphaCandidates cycles, thresholded in closed
	//     form for TargetPfa with no calibration;
	//   - "urriza": the multi-sequence cyclic-correlation significance
	//     test (polyphase branches), also closed-form for TargetPfa.
	//
	// The asymptotic detectors (dg, urriza) require non-empty
	// AlphaCandidates — the cycle set under test. An empty Detector
	// means "fixed" when Threshold > 0, otherwise "cfar". Sense, Watch
	// and NewMonitor resolve it identically, so a verdict depends on
	// Config alone.
	Detector string
	// TargetPfa is the false-alarm probability the asymptotic detectors
	// (dg, urriza) hit by construction (default 0.05). Ignored by cfar
	// and fixed.
	TargetPfa float64
	// Estimator selects how the spectral-correlation surface is
	// computed (EstimatorNames lists the registry):
	//
	//   - "" or "platform": the paper's path — Q15 quantisation and the
	//     bit-true tiled-SoC simulation (cycle counts, Table 1,
	//     evaluation figures);
	//   - "direct": the float64 direct DSCF (K-point FFT plus one
	//     product per grid cell per block);
	//   - "fam": the FFT Accumulation Method (overlapping windowed
	//     channelizer, second FFT across hops);
	//   - "ssca": the Strip Spectral Correlation Analyzer (sliding
	//     channelizer, one long strip FFT per channel);
	//   - "fam-q15", "ssca-q15": the Q15 fixed-point FAM/SSCA backends —
	//     saturating 16-bit arithmetic with block-floating-point FFT
	//     scaling and tracked exponents, bit-exact deterministic, their
	//     surfaces converted exactly into float units. They report
	//     modeled Montium cycles (ModelCycles) on top of mult counts,
	//     and condition each estimate on the peak of the samples it
	//     reads, so they stream (NewMonitor) like the float ones.
	//
	// The software estimators skip the hardware model, so hardware
	// figures (cycle breakdown, area, power) are zero; FFTMults and
	// EstimatorMults report their work instead.
	Estimator string
	// AlphaCandidates, when non-empty, restricts estimation to the listed
	// non-negative cycle-frequency bin offsets (their mirrors and a=0 are
	// implied) — alpha pruning, where only the strips of the surface a
	// detector will actually threshold are computed, and cost scales with
	// the candidate count instead of M. Use AlphaBinForHz to convert a
	// physical cycle frequency into a bin offset. Candidate cells are
	// bit-identical to a full-plane run. Supported by the software
	// estimators (direct, fam, ssca, fam-q15, ssca-q15); the platform
	// path rejects it.
	AlphaCandidates []int
	// Hop is the block/channelizer advance in samples: for "fam" the
	// channelizer hop (0 = K/4), for "direct" the integration-block
	// advance (0 = K, the paper's non-overlapping blocks). Setting it
	// with "ssca" is an error — the SSCA channelizer advances one sample
	// per hop by definition. The platform path ignores it.
	Hop int
	// Workers bounds the goroutines a batch "fam", "fam-q15" or
	// "ssca-q15" estimate uses internally, bit-identical to serial: the
	// rows of each FAM fold block, the fam-q15 second-stage rows, or the
	// ssca-q15 strips. The channelizer front end runs serially. 1 forces
	// the serial path; 0 takes one worker per CPU core. Ignored by
	// "direct" and "ssca" (always serial), the platform path and
	// streaming accumulators (Monitor parallelises across channels
	// instead).
	Workers int
}

// estimatorRegistry is the single source of truth for Config.Estimator
// names: every selectable backend registers its name and builder here,
// in the order reports and error messages list them. The "unknown
// estimator" error is generated from this slice, so adding a backend can
// never leave the message stale again.
var estimatorRegistry = []struct {
	name  string
	build func(Config) (scf.Estimator, error)
}{
	{"platform", func(Config) (scf.Estimator, error) { return nil, nil }},
	{"direct", func(c Config) (scf.Estimator, error) {
		return scf.Direct{Params: c.params(c.Hop)}, nil
	}},
	{"fam", func(c Config) (scf.Estimator, error) {
		return fam.FAM{Params: c.params(c.Hop), Workers: c.Workers}, nil
	}},
	{"ssca", func(c Config) (scf.Estimator, error) {
		if err := c.rejectHop("ssca"); err != nil {
			return nil, err
		}
		return fam.SSCA{Params: c.params(0)}, nil
	}},
	{"fam-q15", func(c Config) (scf.Estimator, error) {
		return fam.FAMQ15{Params: c.params(c.Hop), Workers: c.Workers}, nil
	}},
	{"ssca-q15", func(c Config) (scf.Estimator, error) {
		if err := c.rejectHop("ssca-q15"); err != nil {
			return nil, err
		}
		return fam.SSCAQ15{Params: c.params(0), Workers: c.Workers}, nil
	}},
}

// EstimatorNames returns the selectable Config.Estimator values in
// registry order — the list CLIs print in their -estimator help and the
// "unknown estimator" error embeds.
func EstimatorNames() []string {
	names := make([]string, len(estimatorRegistry))
	for i, e := range estimatorRegistry {
		names[i] = e.name
	}
	return names
}

// DetectorNames returns the selectable Config.Detector values in
// registry order — the list CLIs print in their -detector help and the
// "unknown detector" error embeds. The registry lives in
// internal/detect beside the implementations, so the list can never
// drift from what NewMonitor actually accepts.
func DetectorNames() []string { return detect.DeciderNames() }

// decider resolves the decision layer. It is the one place the
// empty-Detector rule lives: Threshold > 0 means "fixed", otherwise
// "cfar". Sense, Watch, NewMonitor and the shard worker all build their
// deciders here.
func (c Config) decider() (detect.Decider, error) {
	name := c.Detector
	if name == "" {
		if c.Threshold > 0 {
			name = "fixed"
		} else {
			name = "cfar"
		}
	}
	dec, err := detect.NewDecider(name, detect.DeciderParams{
		Scf:       c.params(0).WithDefaults(),
		MinAbsA:   c.minAbsAOrDefault(),
		Threshold: c.Threshold,
		CFARScale: c.CFARScale,
		TargetPfa: c.TargetPfa,
	})
	if err != nil {
		return nil, fmt.Errorf("tiledcfd: %w", err)
	}
	return dec, nil
}

// minAbsAOrDefault mirrors the decision layers' historical default.
func (c Config) minAbsAOrDefault() int {
	if c.MinAbsA == 0 {
		return 2
	}
	return c.MinAbsA
}

// streamingEstimatorNames returns the registry entries whose estimators
// have an incremental form — the suggestions NewMonitor's errors offer.
// Derived from the registry so the list tracks new backends by itself.
func streamingEstimatorNames() []string {
	var names []string
	for _, e := range estimatorRegistry {
		est, err := e.build(Config{})
		if err != nil || est == nil {
			continue
		}
		if _, ok := est.(scf.StreamingEstimator); ok {
			names = append(names, e.name)
		}
	}
	return names
}

// params assembles the estimator parameter set from the configured
// geometry and the given hop.
func (c Config) params(hop int) scf.Params {
	return scf.Params{K: c.K, M: c.M, Blocks: c.Blocks, Hop: hop, AlphaCandidates: c.AlphaCandidates}
}

// AlphaBinForHz converts a physical cycle frequency (Hz) at the given
// sample rate into the candidate bin offset for the configured geometry
// — the value to list in AlphaCandidates. A BPSK signal at symbol rate
// R_sym and carrier f_c, for example, has features at α = R_sym and
// α = 2·f_c.
func (c Config) AlphaBinForHz(alphaHz, sampleRateHz float64) (int, error) {
	return c.params(0).AlphaBinForHz(alphaHz, sampleRateHz)
}

// rejectHop is the shared guard of the strip analyzers, whose
// channelizer advances one sample per hop by definition.
func (c Config) rejectHop(name string) error {
	if c.Hop != 0 {
		return fmt.Errorf("tiledcfd: Hop=%d is meaningless for the %s estimator "+
			"(the SSCA channelizer advances one sample per hop); leave Hop zero", c.Hop, name)
	}
	return nil
}

// estimator resolves the Config.Estimator name through the registry;
// nil means the platform path.
func (c Config) estimator() (scf.Estimator, error) {
	name := c.Estimator
	if name == "" {
		name = "platform"
	}
	if name == "platform" && len(c.AlphaCandidates) > 0 {
		return nil, fmt.Errorf("tiledcfd: the platform path computes the full surface on the modeled " +
			"hardware and does not support AlphaCandidates; pick a software estimator")
	}
	for _, e := range estimatorRegistry {
		if e.name == name {
			return e.build(c)
		}
	}
	return nil, fmt.Errorf("tiledcfd: unknown estimator %q (want %s)",
		c.Estimator, strings.Join(EstimatorNames(), ", "))
}

// pipeline validates the input samples and builds the batch pipeline
// configuration shared by Sense and Watch.
func (c Config) pipeline(x []complex128) (core.Config, error) {
	if err := checkFinite(x); err != nil {
		return core.Config{}, err
	}
	est, err := c.estimator()
	if err != nil {
		return core.Config{}, err
	}
	dec, err := c.decider()
	if err != nil {
		return core.Config{}, err
	}
	return core.Config{
		SoC: soc.Config{
			K: c.K, M: c.M, Q: c.Q,
			Blocks: c.Blocks, ClockMHz: c.ClockMHz,
		},
		Decider:   dec,
		Estimator: est,
	}, nil
}

// checkFinite rejects NaN and infinite samples at the public edge, where
// one of them would otherwise turn the statistic into NaN or ±Inf and
// read as a silent "vacant".
func checkFinite(x []complex128) error {
	for i, v := range x {
		if re, im := real(v), imag(v); math.IsNaN(re) || math.IsInf(re, 0) || math.IsNaN(im) || math.IsInf(im, 0) {
			return fmt.Errorf("tiledcfd: sample %d is not finite (%v)", i, v)
		}
	}
	return nil
}

// Sensing is the outcome of a spectrum-sensing run.
type Sensing struct {
	// Estimator names the surface path that produced the verdict (one of
	// EstimatorNames).
	Estimator string
	// Detector names the decision layer that produced the verdict: the
	// registry name (one of DetectorNames) Config resolves to — with an
	// empty Config.Detector, "fixed" when Threshold > 0, else "cfar".
	Detector string
	// Detected reports whether the cyclostationary statistic exceeded the
	// threshold.
	Detected bool
	// Statistic and Threshold echo the decision inputs.
	Statistic, Threshold float64
	// FeatureF/FeatureA locate the strongest cyclic feature (a != 0).
	FeatureF, FeatureA int
	// Surface is the DSCF magnitude grid [a+M-1][f+M-1] from the platform.
	Surface [][]complex128
	// AlphaProfile is the cycle-frequency profile Σ_f |S_f^a| per offset.
	AlphaProfile []float64
	// CyclesPerBlock is the measured per-integration-step critical path.
	CyclesPerBlock int64
	// Breakdown is the measured Table 1 of the busiest tile.
	Breakdown CycleBreakdown
	// TotalMACs counts complex multiply-accumulates over all tiles/blocks.
	TotalMACs int64
	// NoCValues counts chain boundary values that crossed the inter-tile
	// network (the paper's factor-T-slower data exchange).
	NoCValues int64
	// BlockTimeMicros is one integration step's duration at the platform
	// clock (paper section 5).
	BlockTimeMicros float64
	// AnalysedBandwidthkHz is the band the platform keeps up with in
	// real time (paper section 5).
	AnalysedBandwidthkHz float64
	// AreaMM2 is the platform's silicon area estimate (paper section 5).
	AreaMM2 float64
	// PowerMW is the platform's power estimate (paper section 5).
	PowerMW float64
	// FFTMults and EstimatorMults count the complex multiplications a
	// software estimator spent in FFTs and in pointwise products
	// (downconversion plus cell products). Zero on the platform path,
	// which reports cycles instead.
	FFTMults, EstimatorMults int
	// ModelCycles is the modeled Montium cycle cost of a fixed-point
	// software backend (fam-q15/ssca-q15), charged via the Table-1-style
	// kernel accounting. Zero for float estimators and on the platform
	// path (which reports measured cycles in CyclesPerBlock/Breakdown).
	ModelCycles int64
}

// CycleBreakdown mirrors the rows of the paper's Table 1.
type CycleBreakdown struct {
	// MultiplyAccumulate counts the folded DSCF loop's cycles.
	MultiplyAccumulate int64
	// ReadData counts the sample-streaming cycles.
	ReadData int64
	// FFT counts the FFT kernel cycles.
	FFT int64
	// Reshuffle counts the memory reshuffling cycles.
	Reshuffle int64
	// Initialisation counts the per-step setup cycles.
	Initialisation int64
	// Total sums the rows (the paper: 13996).
	Total int64
}

// Sense runs the full spectrum-sensing pipeline on the sampled band x
// (complex samples; real signals carry zero imaginary parts). It needs
// K·Blocks samples, all finite. The default configuration follows the
// paper's hardware path; Config.Estimator swaps in a software estimator
// (direct/fam/ssca) for the surface while keeping the decision layer
// identical.
func Sense(x []complex128, cfg Config) (*Sensing, error) {
	pc, err := cfg.pipeline(x)
	if err != nil {
		return nil, err
	}
	res, err := core.Run(x, pc)
	if err != nil {
		return nil, err
	}
	f, a, _ := res.Surface.MaxFeature(true)
	name := "platform"
	if pc.Estimator != nil {
		name = pc.Estimator.Name()
	}
	out := &Sensing{
		Estimator:    name,
		Detector:     res.Decision.Detector,
		Detected:     res.Decision.Detected,
		Statistic:    res.Decision.Statistic,
		Threshold:    res.Decision.Threshold,
		FeatureF:     f,
		FeatureA:     a,
		Surface:      res.Surface.Data,
		AlphaProfile: res.Surface.AlphaProfile(),
	}
	if res.Stats != nil {
		out.FFTMults = res.Stats.FFTMults
		out.EstimatorMults = res.Stats.DSCFMults
		out.ModelCycles = res.Stats.Cycles
	}
	if res.Report != nil {
		busiest := res.Report.Tiles[0].Table1
		for _, tr := range res.Report.Tiles[1:] {
			if tr.Table1.Total() > busiest.Total() {
				busiest = tr.Table1
			}
		}
		out.CyclesPerBlock = res.Report.CyclesPerBlock
		out.TotalMACs = res.Report.TotalMACs
		out.NoCValues = res.Report.NoCSent
		out.Breakdown = CycleBreakdown{
			MultiplyAccumulate: busiest.MultiplyAccumulate,
			ReadData:           busiest.ReadData,
			FFT:                busiest.FFT,
			Reshuffle:          busiest.Reshuffle,
			Initialisation:     busiest.Initialisation,
			Total:              busiest.Total(),
		}
		out.BlockTimeMicros = res.BlockTimeMicros
		out.AnalysedBandwidthkHz = res.AnalysedBandwidthkHz
		out.AreaMM2 = res.AreaMM2
		out.PowerMW = res.PowerMW
	}
	return out, nil
}

// WindowVerdict is one window's outcome of a monitored stream.
type WindowVerdict struct {
	// Window is the 0-based window index.
	Window int
	// Detected reports whether the window's statistic exceeded the
	// threshold.
	Detected bool
	// Statistic carries the window's CFD statistic value.
	Statistic float64
	// FeatureA is the strongest cyclic feature's offset in the window.
	FeatureA int
}

// Watch senses a continuous stream window by window (window = K·Blocks
// samples; a trailing partial window is ignored) and returns the
// per-window verdicts — the operational Cognitive-Radio mode: track when
// a licensed user appears in or vacates the band. Every sample must be
// finite.
func Watch(stream []complex128, cfg Config) ([]WindowVerdict, error) {
	pc, err := cfg.pipeline(stream)
	if err != nil {
		return nil, err
	}
	mon, err := core.NewMonitor(pc)
	if err != nil {
		return nil, err
	}
	decisions, err := mon.Process(stream)
	if err != nil {
		return nil, err
	}
	out := make([]WindowVerdict, len(decisions))
	for i, d := range decisions {
		out[i] = WindowVerdict{
			Window:    d.Window,
			Detected:  d.Decision.Detected,
			Statistic: d.Decision.Statistic,
			FeatureA:  d.FeatureA,
		}
	}
	return out, nil
}

// MonitorOptions configures a Monitor: how its engines ingest, schedule
// and decide, and which shards carry them. Estimator, geometry and
// decision layer come from Config (Config.Estimator must name a
// streaming estimator: any but the bit-true platform simulation, which
// has no incremental form; "" defaults to "direct"). Every window's
// decision equals Sense over that window's samples, the Q15 backends'
// conditioned on the window's own peak. The zero value runs one local
// shard.
type MonitorOptions struct {
	// Channels are ids registered at creation; more can be added later
	// with AddChannel.
	Channels []string
	// SnapshotSamples is the per-channel decision cadence in samples
	// (default 8192).
	SnapshotSamples int
	// RingSamples is the per-channel ingestion buffer's capacity limit;
	// memory follows the peak backlog: the first push sizes the buffer,
	// and it doubles when a push needs the room (default
	// 4×SnapshotSamples).
	RingSamples int
	// Workers bounds each shard engine's drain/decision worker pool
	// (default one per CPU core), so the service total is
	// Shards×Workers. Distinct from Config.Workers, which controls
	// intra-estimator parallelism on the batch paths.
	Workers int
	// Backpressure makes Push block when a ring fills instead of
	// dropping the overflow.
	Backpressure bool
	// Shards is the initial local engine count (default 1 when no
	// Remotes are configured). More can be added at runtime with
	// AddShards.
	Shards int
	// Remotes are worker-process shards (cfdserve -shard-of) reached
	// over the wire protocol. Each is wrapped in a robustness layer:
	// per-push deadlines, retries with backoff and jitter, a circuit
	// breaker, heartbeat health checks, and failover that re-homes a
	// dead worker's channels onto healthy shards with counters carried.
	Remotes []RemoteShardOptions
	// Health tunes the remote robustness layer; zero fields take
	// defaults.
	Health RemoteHealthOptions
	// FallbackLocal spills channels onto a lazily created local engine
	// when every shard is down, instead of shedding their samples.
	FallbackLocal bool
	// DecisionBuffer is the capacity of the Decisions channel (default
	// 1024). Decisions overflowing it are dropped and counted; the
	// latest per channel stays available via ChannelStats.
	DecisionBuffer int
	// HandoffTimeout bounds one channel's quiesce during rebalancing
	// (default 30s).
	HandoffTimeout time.Duration
}

// RemoteShardOptions names one worker-process shard.
type RemoteShardOptions struct {
	// Name identifies the shard in stats and health reports (defaults to
	// the next shardN name).
	Name string
	// Addr is the worker's listen address. Required.
	Addr string
}

// RemoteHealthOptions tunes the robustness layer wrapped around every
// remote shard.
type RemoteHealthOptions struct {
	// Interval is the heartbeat cadence per remote shard (default 2s).
	Interval time.Duration
	// PushTimeout bounds one frame write to a worker (default 5s).
	PushTimeout time.Duration
	// MaxRetries is how many times a failed push is retried after a
	// reconnect (default 2).
	MaxRetries int
	// FailThreshold is the consecutive-failure count that opens a
	// worker's circuit breaker (default 3).
	FailThreshold int
	// Cooldown is how long an open circuit waits before its half-open
	// probe (default 5s).
	Cooldown time.Duration
}

// MonitorDecision is one periodic per-channel verdict of a Monitor.
type MonitorDecision struct {
	// Channel names the monitored channel.
	Channel string
	// Shard names the engine instance that owned the channel at decision
	// time.
	Shard string
	// Seq is the 0-based decision index within the channel.
	Seq int64
	// Window is the number of samples the decision's surface integrates:
	// the samples since the channel's last decision (see
	// stream.Decision.WindowSamples).
	Window int
	// Detected reports whether the statistic exceeded the threshold.
	Detected bool
	// Statistic and Threshold carry the decision inputs.
	Statistic, Threshold float64
	// Detector names the decision layer that produced the verdict (one
	// of DetectorNames).
	Detector string
	// TargetPfa is the false-alarm probability the detector was
	// configured for; zero for the detectors that are not calibrated to
	// one (cfar, fixed).
	TargetPfa float64
	// FeatureF/FeatureA locate the strongest cyclic feature (a != 0).
	FeatureF, FeatureA int
}

// toMonitorDecision converts an engine decision made on the named shard.
func toMonitorDecision(d stream.Decision, shard string) MonitorDecision {
	return MonitorDecision{
		Channel:   d.Channel,
		Shard:     shard,
		Seq:       d.Seq,
		Window:    d.WindowSamples,
		Detected:  d.Detected,
		Statistic: d.Statistic,
		Threshold: d.Threshold,
		Detector:  d.Detector,
		TargetPfa: d.TargetPfa,
		FeatureF:  d.FeatureF,
		FeatureA:  d.FeatureA,
	}
}

// The accounting records every layer embeds, declared in internal/stream.
type (
	// Counters are an engine's monotone counts; a Monitor sums them over
	// every shard it has had.
	Counters = stream.Counters
	// Gauges are an engine's momentary ingestion backlog and held memory;
	// a Monitor sums them over its live shards, remote workers included.
	Gauges = stream.Gauges
	// ChannelCounters are one channel's monotone counts, summed over
	// every shard that owned the channel.
	ChannelCounters = stream.ChannelCounters
)

// MonitorStats is session-wide Monitor accounting: live shards plus the
// banked counters of every drained shard, so totals never move
// backwards on rebalancing.
type MonitorStats struct {
	// Channels is the number of registered channels.
	Channels int
	Counters
	Gauges
	// SamplesNonFinite counts the samples of blocks Push rejected for
	// holding a NaN or infinite sample; none of them reached an engine.
	SamplesNonFinite int64
	// SamplesPerSec and SurfacesPerSec are lifetime-average throughput
	// rates.
	SamplesPerSec, SurfacesPerSec float64
	// Shards counts the live engine instances (down remotes excluded;
	// see OpenCircuits).
	Shards int
	// Handoffs counts channel ownership moves across the session.
	Handoffs int64
	// Retries counts remote push retry attempts; DeadlineExceeded the
	// pushes that overran their per-push deadline.
	Retries, DeadlineExceeded int64
	// Failovers counts dead-shard events that re-homed channels;
	// ShedSamples the samples dropped because no healthy owner could
	// take them.
	Failovers, ShedSamples int64
	// OpenCircuits counts remote shards currently failed (circuit open
	// or half-open).
	OpenCircuits int
}

// MonitorChannelStats aggregates one channel's accounting across every
// shard that ever owned it.
type MonitorChannelStats struct {
	// ID names the channel.
	ID string
	// Shard names the channel's current owner.
	Shard string
	// ChannelCounters' SamplesDropped also counts samples shed because
	// the channel's owner was unreachable.
	ChannelCounters
	// Handoffs counts the ownership moves this channel has been through.
	Handoffs int64
	// Last is the most recent decision, nil before the first.
	Last *MonitorDecision
}

// ShardInfo is one shard's public accounting within a Monitor.
type ShardInfo struct {
	// Name identifies the shard (stable across the session).
	Name string
	// Remote reports whether the shard lives in another process; Addr is
	// its dial address when it does.
	Remote bool
	// Addr is the remote worker's address ("" for local shards).
	Addr string
	// State is "ok" for a healthy shard, or the remote circuit-breaker
	// position ("half-open", "open") while degraded.
	State string
	// Channels is the number of channels the shard currently owns.
	Channels int
	// Counters and Gauges are the shard engine's own; for a down remote
	// they are the last reading before the outage.
	Counters
	Gauges
}

// Monitor is a long-running streaming sensing session: the incremental
// counterpart of Sense and Watch. Samples are pushed per channel as they
// arrive; each channel's engine advances incremental estimator state and
// emits a decision every SnapshotSamples samples. Streaming surfaces are
// bit-identical to the batch estimators over the same samples and the
// decision layer is resolved from Config exactly as for Sense, so
// decisions agree exactly with the one-shot API.
//
// Channels are partitioned across shards — one local engine by default —
// by rendezvous hashing, so per-channel sample order and decision
// cadence are preserved while unrelated channels scale across shards.
// The fleet can be grown (AddShards) and shrunk (DrainShard) live:
// ownership moves by explicit handoff — the old shard quiesces the
// channel and flushes any partially integrated window into one final
// decision — so windows are never lost to a rebalance and never counted
// twice.
//
// A Monitor must be Closed when done; Decisions delivers the rolling
// verdicts until then.
type Monitor struct {
	r         *shard.Router
	out       chan MonitorDecision
	dropped   atomic.Int64 // decisions lost to a full out channel
	nonFinite atomic.Int64 // samples in blocks rejected by checkFinite
	once      sync.Once
}

// streamConfig validates the estimator selection and builds the
// per-engine streaming configuration shared by NewMonitor and
// NewShardWorker.
func streamConfig(cfg Config, opts MonitorOptions) (stream.Config, error) {
	if cfg.Estimator == "" {
		cfg.Estimator = "direct"
	}
	est, err := cfg.estimator()
	if err != nil {
		return stream.Config{}, err
	}
	if est == nil {
		return stream.Config{}, fmt.Errorf("tiledcfd: the %q path has no incremental form; "+
			"pick a streaming estimator (%s) or use Watch",
			cfg.Estimator, strings.Join(streamingEstimatorNames(), ", "))
	}
	sest, ok := est.(scf.StreamingEstimator)
	if !ok {
		return stream.Config{}, fmt.Errorf("tiledcfd: estimator %q cannot stream; pick one of %s",
			cfg.Estimator, strings.Join(streamingEstimatorNames(), ", "))
	}
	dec, err := cfg.decider()
	if err != nil {
		return stream.Config{}, err
	}
	return stream.Config{
		Estimator:       sest,
		SnapshotSamples: opts.SnapshotSamples,
		RingSamples:     opts.RingSamples,
		Workers:         opts.Workers,
		Block:           opts.Backpressure,
		AlphaCandidates: cfg.AlphaCandidates,
		MinAbsA:         cfg.MinAbsA,
		Decider:         dec,
	}, nil
}

// NewMonitor creates a streaming sensing session. cfg selects the
// estimator, geometry and decision layer exactly as for Sense (software
// estimators only); opts configures ingestion, scheduling and the shard
// topology.
func NewMonitor(cfg Config, opts MonitorOptions) (*Monitor, error) {
	scfg, err := streamConfig(cfg, opts)
	if err != nil {
		return nil, err
	}
	remotes := make([]shard.RemoteShard, len(opts.Remotes))
	for i, rc := range opts.Remotes {
		remotes[i] = shard.RemoteShard{Name: rc.Name, Addr: rc.Addr}
	}
	r, err := shard.New(shard.Config{
		Shards:  opts.Shards,
		Engine:  scfg,
		Remotes: remotes,
		Guard: shard.GuardConfig{
			HealthInterval: opts.Health.Interval,
			PushTimeout:    opts.Health.PushTimeout,
			MaxRetries:     opts.Health.MaxRetries,
			FailThreshold:  opts.Health.FailThreshold,
			Cooldown:       opts.Health.Cooldown,
		},
		FallbackLocal:  opts.FallbackLocal,
		DecisionBuffer: opts.DecisionBuffer,
		HandoffTimeout: opts.HandoffTimeout,
	})
	if err != nil {
		return nil, err
	}
	for _, id := range opts.Channels {
		if err := r.AddChannel(id); err != nil {
			r.Close()
			return nil, err
		}
	}
	m := &Monitor{r: r, out: make(chan MonitorDecision, cap(r.Decisions()))}
	go func() {
		defer close(m.out)
		for d := range r.Decisions() {
			// Never stall on an unread Decisions channel, so Close
			// cannot strand this goroutine.
			select {
			case m.out <- toMonitorDecision(d.Decision, d.Shard):
			default:
				m.dropped.Add(1)
			}
		}
	}()
	return m, nil
}

// AddChannel registers a channel on its rendezvous-chosen shard, pruned
// to the session's Config.AlphaCandidates when that is set.
func (m *Monitor) AddChannel(id string) error { return m.r.AddChannel(id) }

// AddChannelCandidates registers a channel on its rendezvous-chosen
// shard with an alpha-candidate set (overriding the session default;
// nil falls back to it) that follows the channel across handoffs and
// failovers — for remote shards the set travels in the wire open frame,
// so the worker process prunes identically.
func (m *Monitor) AddChannelCandidates(id string, alphas []int) error {
	return m.r.AddChannelCandidates(id, alphas)
}

// RemoveChannel unregisters a channel, flushing any partially integrated
// window into one final decision, and returns its aggregate accounting
// across every shard that owned it.
func (m *Monitor) RemoveChannel(id string) (MonitorChannelStats, error) {
	cs, err := m.r.RemoveChannel(id)
	if err != nil {
		return MonitorChannelStats{}, err
	}
	return toMonitorChannelStats(cs), nil
}

// Push appends samples to a channel's stream on its current owner,
// returning how many were accepted (fewer than len(samples) only in
// drop mode under overload). A block holding a NaN or infinite sample
// is rejected whole. Pushes to one channel serialise with each other
// and with rebalancing, so a handoff never interleaves with a
// half-delivered block. A rejected block's samples are counted in
// Stats.SamplesNonFinite.
func (m *Monitor) Push(id string, samples []complex128) (int, error) {
	if err := checkFinite(samples); err != nil {
		m.nonFinite.Add(int64(len(samples)))
		return 0, err
	}
	return m.r.Push(id, samples)
}

// Decisions returns the merged rolling verdicts across all shards,
// closed by Close. A slow consumer never stalls sensing; overflowing
// decisions are dropped and counted in Stats.DecisionsDropped.
func (m *Monitor) Decisions() <-chan MonitorDecision { return m.out }

// toMonitorChannelStats converts the router's channel record.
func toMonitorChannelStats(cs shard.ChannelStats) MonitorChannelStats {
	out := MonitorChannelStats{
		ID:              cs.ID,
		Shard:           cs.Shard,
		ChannelCounters: cs.ChannelCounters,
		Handoffs:        cs.Handoffs,
	}
	if cs.Last != nil {
		last := toMonitorDecision(*cs.Last, cs.Shard)
		out.Last = &last
	}
	return out
}

// Stats returns session-wide accounting summed over live shards and the
// banked counters of drained ones.
func (m *Monitor) Stats() MonitorStats {
	s := m.r.Stats()
	out := MonitorStats{
		Channels:         s.Channels,
		Counters:         s.Counters,
		Gauges:           s.Gauges,
		SamplesNonFinite: m.nonFinite.Load(),
		SamplesPerSec:    s.SamplesPerSec,
		Shards:           s.Shards,
		Handoffs:         s.Handoffs,
		Retries:          s.Retries,
		DeadlineExceeded: s.DeadlineExceeded,
		Failovers:        s.Failovers,
		ShedSamples:      s.ShedSamples,
		OpenCircuits:     s.OpenCircuits,
	}
	out.DecisionsDropped += m.dropped.Load()
	if sec := s.Elapsed.Seconds(); sec > 0 {
		out.SurfacesPerSec = float64(s.Surfaces) / sec
	}
	return out
}

// OpenCircuits returns the names of remote shards whose circuit breaker
// is not closed — the degraded set a health endpoint should report.
func (m *Monitor) OpenCircuits() []string { return m.r.OpenCircuits() }

// ChannelStats returns one channel's aggregate accounting across every
// owner it has had; ok is false for an unknown id.
func (m *Monitor) ChannelStats(id string) (MonitorChannelStats, bool) {
	cs, ok := m.r.ChannelStats(id)
	if !ok {
		return MonitorChannelStats{}, false
	}
	return toMonitorChannelStats(cs), true
}

// Channels returns the registered channel ids (unordered).
func (m *Monitor) Channels() []string { return m.r.Channels() }

// Shards returns per-shard accounting in registration order.
func (m *Monitor) Shards() []ShardInfo {
	ss := m.r.ShardStats()
	out := make([]ShardInfo, len(ss))
	for i, s := range ss {
		out[i] = ShardInfo{
			Name:     s.Name,
			Remote:   s.Remote,
			Addr:     s.Addr,
			State:    s.State,
			Channels: s.Channels,
			Counters: s.Stats.Counters,
			Gauges:   s.Stats.Gauges,
		}
	}
	return out
}

// AddShards grows the fleet by n engines and rebalances; only channels
// whose rendezvous maximum is a newcomer move. Returns the new shard
// names.
func (m *Monitor) AddShards(n int) ([]string, error) { return m.r.AddShards(n) }

// DrainShard hands every channel off the named shard to the survivors
// (flushing partial windows, preserving counters) and retires it. The
// last shard cannot be drained.
func (m *Monitor) DrainShard(name string) error { return m.r.DrainShard(name) }

// Flush blocks until every shard has processed its pushed samples and
// made its due decisions, or the timeout elapses — the quiesce point
// before reading final stats or closing after a batch feed.
func (m *Monitor) Flush(timeout time.Duration) error { return m.r.Flush(timeout) }

// Close stops every shard engine and closes Decisions. Unprocessed
// buffered samples are discarded (Flush first to avoid that). Close is
// idempotent.
func (m *Monitor) Close() error {
	var err error
	m.once.Do(func() { err = m.r.Close() })
	return err
}

// ShardWorkerOptions configures a NewShardWorker process: the hosted
// engine's ingestion and scheduling, and where it listens.
type ShardWorkerOptions struct {
	// SnapshotSamples is the per-channel decision cadence in samples
	// (default 8192).
	SnapshotSamples int
	// RingSamples is the per-channel ingestion buffer's capacity limit;
	// memory follows the peak backlog: the first push sizes the buffer,
	// and it doubles when a push needs the room (default
	// 4×SnapshotSamples).
	RingSamples int
	// Workers bounds the engine's drain/decision worker pool (default
	// one per CPU core).
	Workers int
	// Backpressure makes pushes block when a ring fills instead of
	// dropping the overflow.
	Backpressure bool
	// Listen is the TCP address the worker serves the wire protocol on
	// (":port" or "host:port"; a ":0" port picks a free one).
	Listen string
	// Logf, when set, receives per-connection diagnostics.
	Logf func(format string, args ...any)
}

// ShardWorker hosts one streaming engine as a remote shard for another
// process's Monitor (cfdserve worker mode, `-shard-of`). The parent
// router dials Addr, opens channels, streams samples in lossless
// cf64_le, drives the engine surface over control frames, and
// subscribes to the decision stream. When the parent's connection
// drops, the worker sweeps that connection's channels out of the engine
// so a reconnect re-opens fresh estimator state — the accepted window
// restart; the router carries the counters across incarnations.
type ShardWorker struct {
	eng  *stream.Engine
	sink *shardWorkerSink
	srv  *wire.Server
	addr net.Addr
	once sync.Once
}

// shardWorkerSink adapts the hosted engine to the wire data plane. It
// keeps the worker's Config so an open frame naming a detector can build
// the per-channel decider with the worker's own geometry and knobs.
type shardWorkerSink struct {
	eng       *stream.Engine
	cfg       Config
	nonFinite atomic.Int64 // samples in blocks rejected by checkFinite
}

func (s *shardWorkerSink) OpenChannel(meta wire.Meta) error {
	if meta.Detector == "" {
		return s.eng.AddChannelCandidates(meta.ID, meta.AlphaCandidates)
	}
	// The parent router pinned the channel's decision layer: rebuild it
	// here from the shipped name, target Pfa and cycle set, over the
	// worker's geometry — so a remote shard decides exactly as a local
	// engine would.
	c := s.cfg
	c.Detector = meta.Detector
	if meta.TargetPfa > 0 {
		c.TargetPfa = meta.TargetPfa
	}
	if len(meta.AlphaCandidates) > 0 {
		c.AlphaCandidates = meta.AlphaCandidates
	}
	dec, err := c.decider()
	if err != nil {
		return err
	}
	return s.eng.AddChannelDecider(meta.ID, meta.AlphaCandidates, dec)
}

func (s *shardWorkerSink) Push(id string, samples []complex128) (int, error) {
	if err := checkFinite(samples); err != nil {
		s.nonFinite.Add(int64(len(samples)))
		return 0, err
	}
	return s.eng.Push(id, samples)
}

// NewShardWorker builds a bare engine from cfg/opts and serves it over
// the wire protocol's worker mode on opts.Listen.
func NewShardWorker(cfg Config, opts ShardWorkerOptions) (*ShardWorker, error) {
	scfg, err := streamConfig(cfg, MonitorOptions{
		SnapshotSamples: opts.SnapshotSamples,
		RingSamples:     opts.RingSamples,
		Workers:         opts.Workers,
		Backpressure:    opts.Backpressure,
	})
	if err != nil {
		return nil, err
	}
	eng, err := stream.New(scfg)
	if err != nil {
		return nil, err
	}
	sink := &shardWorkerSink{eng: eng, cfg: cfg}
	srv, err := wire.NewServer(wire.ServerConfig{
		Sink:          sink,
		Engine:        eng,
		RemoveOnClose: true,
		Logf:          opts.Logf,
	})
	if err != nil {
		eng.Close()
		return nil, err
	}
	addr, err := srv.Listen(opts.Listen)
	if err != nil {
		srv.Close()
		eng.Close()
		return nil, err
	}
	return &ShardWorker{eng: eng, sink: sink, srv: srv, addr: addr}, nil
}

// Addr is the bound listen address the parent router should dial.
func (w *ShardWorker) Addr() net.Addr { return w.addr }

// Stats returns the hosted engine's accounting, plus the samples of
// pushed blocks rejected for holding a NaN or infinite sample.
func (w *ShardWorker) Stats() MonitorStats {
	s := w.eng.Stats()
	return MonitorStats{
		Channels:         s.Channels,
		Counters:         s.Counters,
		Gauges:           s.Gauges,
		SamplesNonFinite: w.sink.nonFinite.Load(),
		SamplesPerSec:    s.SamplesPerSec,
		SurfacesPerSec:   s.SurfacesPerSec,
	}
}

// ActiveConns reports how many parent connections are live.
func (w *ShardWorker) ActiveConns() int { return w.srv.ActiveConns() }

// Flush blocks until the engine has processed its pushed samples and
// made its due decisions, or the timeout elapses.
func (w *ShardWorker) Flush(timeout time.Duration) error { return w.eng.Flush(timeout) }

// Close stops serving and shuts the engine down. Idempotent.
func (w *ShardWorker) Close() error {
	var err error
	w.once.Do(func() {
		err = w.srv.Close()
		if cerr := w.eng.Close(); err == nil {
			err = cerr
		}
	})
	return err
}

// DSCF computes the reference (float64) Discrete Spectral Correlation
// Function of x: a (2m-1)×(2m-1) grid indexed [a+m-1][f+m-1], accumulated
// over blocks non-overlapping k-sample FFT blocks and normalised by the
// block count.
//
// DSCF is the direct-only entry point; SpectralCorrelation supersedes it
// with estimator selection (direct, FAM, SSCA) and work statistics.
func DSCF(x []complex128, k, m, blocks int) ([][]complex128, error) {
	s, _, err := scf.Compute(x, scf.Params{K: k, M: m, Blocks: blocks})
	if err != nil {
		return nil, err
	}
	return s.Data, nil
}

// SCResult is a computed spectral-correlation surface with its strongest
// cyclic feature and the work spent computing it.
type SCResult struct {
	// Estimator names the estimator that produced the surface.
	Estimator string
	// Surface is the (2M-1)×(2M-1) grid indexed [a+M-1][f+M-1].
	Surface [][]complex128
	// AlphaProfile is the cycle-frequency profile Σ_f |S_f^a| per offset.
	AlphaProfile []float64
	// FeatureF/FeatureA locate the strongest cyclic feature (a != 0).
	FeatureF, FeatureA int
	// FeatureMagnitude is that feature's magnitude.
	FeatureMagnitude float64
	// Blocks is the number of smoothing steps the estimator averaged
	// (integration blocks, channelizer hops, or strip samples).
	Blocks int
	// FFTMults and EstimatorMults count complex multiplications spent in
	// FFTs and in pointwise products respectively — the complexity
	// figures the estimator benchmarks compare.
	FFTMults, EstimatorMults int
	// ModelCycles is the modeled Montium cycle cost of a fixed-point
	// backend (zero for float estimators).
	ModelCycles int64
}

// SpectralCorrelation computes the spectral-correlation surface of x
// with the estimator selected by cfg.Estimator ("" defaults to
// "direct"; "platform" runs the full fixed-point tiled-SoC simulation).
// Every sample must be finite. It supersedes DSCF, which only exposes
// the direct method.
func SpectralCorrelation(x []complex128, cfg Config) (*SCResult, error) {
	if err := checkFinite(x); err != nil {
		return nil, err
	}
	if cfg.Estimator == "" {
		cfg.Estimator = "direct"
	}
	est, err := cfg.estimator()
	if err != nil {
		return nil, err
	}
	var (
		s     *scf.Surface
		stats *scf.Stats
	)
	if est == nil {
		// Platform path: read the surface out of the simulated tiles.
		res, err := core.Run(x, core.Config{SoC: soc.Config{
			K: cfg.K, M: cfg.M, Q: cfg.Q,
			Blocks: cfg.Blocks, ClockMHz: cfg.ClockMHz,
		}})
		if err != nil {
			return nil, err
		}
		s = res.Surface
	} else {
		if s, stats, err = est.Estimate(x); err != nil {
			return nil, err
		}
	}
	f, a, mag := s.MaxFeature(true)
	out := &SCResult{
		Estimator:        cfg.Estimator,
		Surface:          s.Data,
		AlphaProfile:     s.AlphaProfile(),
		FeatureF:         f,
		FeatureA:         a,
		FeatureMagnitude: mag,
	}
	if stats != nil {
		out.Blocks = stats.Blocks
		out.FFTMults = stats.FFTMults
		out.EstimatorMults = stats.DSCFMults
		out.ModelCycles = stats.Cycles
	}
	return out, nil
}

// Mapping summarises a step-1 derivation for half-extent m on q cores.
type Mapping struct {
	// P is the logical processor count 2m-1; T the tasks-per-core bound.
	P, Q, T int
	// TaskRanges lists each core's half-open task interval [lo, hi).
	TaskRanges [][2]int
	// ChainRegisters is the per-chain register count of the minimal
	// structure (one per inter-PE hop).
	ChainRegisters int
	// MemoryWordsPerCore is the per-core DSCF accumulator footprint in
	// 16-bit words (2·T·F).
	MemoryWordsPerCore int
}

// DeriveMapping runs the paper's verified step-1 derivation (projections,
// space-time transform, register synthesis, folding) for half-extent m
// and q cores.
func DeriveMapping(m, q int) (*Mapping, error) {
	la, err := mapping.DeriveLineArray(m, 2)
	if err != nil {
		return nil, err
	}
	chains, err := mapping.SynthesiseChains(m)
	if err != nil {
		return nil, err
	}
	fold, err := mapping.NewFolding(la.P(), q)
	if err != nil {
		return nil, err
	}
	if err := fold.Validate(); err != nil {
		return nil, err
	}
	out := &Mapping{
		P: la.P(), Q: q, T: fold.T,
		ChainRegisters:     chains[0].Registers,
		MemoryWordsPerCore: 2 * fold.T * la.F(),
	}
	for c := 0; c < q; c++ {
		lo, hi := fold.TasksOf(c)
		out.TaskRanges = append(out.TaskRanges, [2]int{lo, hi})
	}
	return out, nil
}

// Evaluation bundles the section 5 figures for a platform of q cores
// whose integration step takes the given cycle count.
type Evaluation struct {
	// BlockTimeMicros is one integration step's duration.
	BlockTimeMicros float64
	// AnalysedBandwidthkHz is the real-time analysable band.
	AnalysedBandwidthkHz float64
	// AreaMM2 is the silicon area estimate.
	AreaMM2 float64
	// PowerMW is the power estimate.
	PowerMW float64
}

// Evaluate applies the paper's technology constants (100 MHz, 2 mm²/core,
// 500 µW/MHz) to a measured cycle count.
func Evaluate(k, q int, cyclesPerBlock int64) (*Evaluation, error) {
	if k < 1 || q < 1 || cyclesPerBlock < 1 {
		return nil, fmt.Errorf("tiledcfd: Evaluate(k=%d, q=%d, cycles=%d) needs positive arguments",
			k, q, cyclesPerBlock)
	}
	m := perf.Paper()
	bt := m.BlockTimeMicros(cyclesPerBlock)
	return &Evaluation{
		BlockTimeMicros:      bt,
		AnalysedBandwidthkHz: m.AnalysedBandwidthkHz(k, bt),
		AreaMM2:              m.AreaMM2(q),
		PowerMW:              m.PowerMW(q),
	}, nil
}

// NewBPSKBand synthesises a test band: a real BPSK carrier (normalised
// carrier frequency, samples per symbol) in real white Gaussian noise at
// the given SNR, n samples long, deterministic in seed. It is the
// licensed-user scenario used throughout the examples.
func NewBPSKBand(n int, carrierFreq float64, symbolLen int, snrDB float64, seed uint64) ([]complex128, error) {
	if n < 1 || symbolLen < 1 {
		return nil, fmt.Errorf("tiledcfd: NewBPSKBand(n=%d, symbolLen=%d) needs positive sizes", n, symbolLen)
	}
	rng := sig.NewRand(seed)
	b := &sig.BPSK{Amp: 1, Carrier: carrierFreq, SymbolLen: symbolLen, Rng: rng}
	x := sig.Samples(b, n)
	noisy, _, err := sig.AddAWGN(x, snrDB, true, rng)
	if err != nil {
		return nil, err
	}
	return noisy, nil
}

// NewNoiseBand synthesises an idle band: real white Gaussian noise of the
// given power, n samples, deterministic in seed.
func NewNoiseBand(n int, power float64, seed uint64) ([]complex128, error) {
	if n < 1 || power <= 0 {
		return nil, fmt.Errorf("tiledcfd: NewNoiseBand(n=%d, power=%v) invalid", n, power)
	}
	rng := sig.NewRand(seed)
	return sig.Samples(&sig.WGN{Sigma: math.Sqrt(power), Real: true, Rng: rng}, n), nil
}
