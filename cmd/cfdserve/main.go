// Command cfdserve is the long-running spectrum-sensing daemon: the
// paper's Cognitive-Radio loop run as a network service. A sharded
// streaming engine (tiledcfd.Monitor) partitions channels across
// -shards engine instances by rendezvous hashing; IQ blocks arrive over
// the wire protocol (-listen), from built-in synthetic radio front ends
// (-selftest), or both. Rolling per-channel decisions and engine
// throughput (samples/sec, surfaces/sec) are reported at a fixed
// cadence, and the embedded status server (-http) exposes /healthz,
// /stats (JSON) and /metrics (Prometheus text exposition).
//
// Usage:
//
//	cfdserve [-listen addr] [-shards 1] [-quota 0] [-quota-burst 0]
//	         [-selftest] [-channels 4] [-estimator fam] [-k 256] [-m 0]
//	         [-alpha 16,32] [-hop 0] [-window 16384] [-workers 0]
//	         [-mode block|drop] [-rate 0] [-duration 0] [-report 2s]
//	         [-http addr] [-seed 1] [-threshold 0] [-cfar-scale 2]
//	         [-cumulative] [-quiet] [-drain-grace 5s] [-shard-addrs a,b]
//	         [-health-interval 2s] [-push-timeout 5s] [-fallback-local]
//	cfdserve -shard-of addr [-estimator fam] [-k 256] [-window 16384]
//	         [-alpha 16,32] [-report 2s] [-duration 0] [-quiet]
//	cfdserve -connect addr [-channels 4] [-format cf32_le|ci16_le]
//	         [-alpha 16,32] [-rate 0] [-duration 0] [-seed 1] [-k 256]
//	         [-quiet]
//
// -alpha restricts estimation to the listed cycle-frequency bin offsets
// (alpha pruning): only those strips of the spectral-correlation
// surface, their mirrors and a=0 are computed — bit-identical to the
// full plane on the computed rows, at a cost that scales with the
// candidate count instead of the grid half-extent M. In serving mode
// the set is the default for every channel; wire clients can override
// it per channel in the open frame (as `-connect -alpha` does), and a
// parent router forwards each channel's set to its remote shard worker,
// so pruning follows the channel across handoffs and failovers. The
// `cfd_pruned_cells_skipped_total` metric counts the cells never
// computed.
//
// With neither -listen nor -selftest the daemon defaults to -selftest
// (the zero-configuration demo). -quota enforces a per-connection
// ingest quota in samples/sec: data frames beyond it are shed whole and
// counted, so one over-rate client cannot crowd out the rest. On
// SIGINT/SIGTERM the daemon drains gracefully: it stops accepting new
// connections and channels, lets in-flight frames land, flushes every
// decision window in flight, prints the final accounting and exits 0.
//
// -shard-addrs spreads the fleet across processes: each address names a
// worker started with `cfdserve -shard-of addr`, which hosts one bare
// engine behind the wire protocol's worker mode. The router wraps every
// remote in a robustness layer — per-push deadlines (-push-timeout),
// retries with jittered exponential backoff, a per-shard circuit
// breaker, and a heartbeat every -health-interval. A worker that dies
// is failed over: its channels re-home onto the surviving shards (or a
// local fallback engine with -fallback-local) with counters carried, and
// /healthz reports the degraded set until the circuit closes again.
//
// -connect turns cfdserve into a wire-protocol feeder instead: it dials
// a serving instance, opens -channels channels and streams the synthetic
// scenario at it — the loopback load generator the CI smoke test uses.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tiledcfd"
	"tiledcfd/internal/wire"
)

// options collects the daemon configuration (flag-parsed in main,
// constructed directly in tests).
type options struct {
	// Serving side.
	listen     string
	shards     int
	quota      float64
	quotaBurst float64
	drainGrace time.Duration
	selftest   bool

	// Remote-shard topology.
	shardOf        string
	shardAddrs     string
	healthInterval time.Duration
	pushTimeout    time.Duration
	fallbackLocal  bool

	// Client (feeder) side.
	connect string
	format  string

	channels   int
	k, m       int
	estimator  string
	alpha      string
	hop        int
	window     int
	ring       int
	workers    int
	mode       string
	rate       int
	duration   time.Duration
	report     time.Duration
	httpAddr   string
	seed       uint64
	threshold  float64
	cfarScale  float64
	detector   string
	targetPfa  float64
	cumulative bool
	quiet      bool

	// notifyListen, when set, receives the bound wire listener address
	// (tests bind port 0 and need the assignment).
	notifyListen func(net.Addr)
	// notifyHTTP likewise receives the bound status-server address.
	notifyHTTP func(net.Addr)
}

// sensingConfig is the estimator, geometry and decision layer shared by
// the router and worker modes.
func (o options) sensingConfig(candidates []int) tiledcfd.Config {
	return tiledcfd.Config{
		K: o.k, M: o.m, Estimator: o.estimator, Hop: o.hop,
		Threshold: o.threshold, CFARScale: o.cfarScale, AlphaCandidates: candidates,
		Detector: o.detector, TargetPfa: o.targetPfa,
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfdserve: ")
	var o options
	flag.StringVar(&o.listen, "listen", "", "wire-protocol ingest listener, e.g. :7373 (empty = disabled)")
	flag.IntVar(&o.shards, "shards", 1, "engine instances to partition channels across")
	flag.Float64Var(&o.quota, "quota", 0, "per-connection ingest quota in samples/sec (0 = unlimited)")
	flag.Float64Var(&o.quotaBurst, "quota-burst", 0, "quota bucket depth in samples (0 = one second of quota)")
	flag.DurationVar(&o.drainGrace, "drain-grace", 5*time.Second, "graceful-shutdown wait for in-flight connections")
	flag.BoolVar(&o.selftest, "selftest", false, "run synthetic radio front ends (implied when -listen is unset)")
	flag.StringVar(&o.shardOf, "shard-of", "", "run as a remote shard worker serving one engine on this address (dial it from a parent's -shard-addrs)")
	flag.StringVar(&o.shardAddrs, "shard-addrs", "", "comma-separated worker addresses to route shards to (each a cfdserve -shard-of)")
	flag.DurationVar(&o.healthInterval, "health-interval", 2*time.Second, "remote-shard heartbeat cadence")
	flag.DurationVar(&o.pushTimeout, "push-timeout", 5*time.Second, "per-push deadline to a remote shard")
	flag.BoolVar(&o.fallbackLocal, "fallback-local", false, "spill channels of a failed remote shard to a local fallback engine instead of shedding")
	flag.StringVar(&o.connect, "connect", "", "run as a wire-protocol feeder against this server address")
	flag.StringVar(&o.format, "format", "cf32_le", "wire sample format in -connect mode: cf32_le or ci16_le")
	flag.IntVar(&o.channels, "channels", 4, "concurrent channels (selftest front ends or -connect streams)")
	flag.StringVar(&o.estimator, "estimator", "fam", "surface estimator: "+strings.Join(tiledcfd.EstimatorNames(), ", "))
	flag.StringVar(&o.alpha, "alpha", "", "comma-separated alpha-candidate bin offsets: restrict estimation to these cycle-frequency strips (mirrors and a=0 implied)")
	flag.IntVar(&o.k, "k", 256, "FFT / channelizer size K")
	flag.IntVar(&o.m, "m", 0, "grid half-extent M (0 = K/4)")
	flag.IntVar(&o.hop, "hop", 0, "block/channelizer advance (0 = estimator default; rejected with ssca)")
	flag.IntVar(&o.window, "window", 16384, "samples per decision window")
	flag.IntVar(&o.ring, "ring", 0, "per-channel ingestion ring capacity limit in samples; memory follows the peak backlog (0 = 4×window)")
	flag.IntVar(&o.workers, "workers", 0, "worker pool size per shard (0 = one per CPU core)")
	flag.StringVar(&o.mode, "mode", "block", "overload policy: block (backpressure) or drop (count overflow)")
	flag.IntVar(&o.rate, "rate", 0, "per-channel feed rate in samples/sec (0 = as fast as the engine accepts)")
	flag.DurationVar(&o.duration, "duration", 0, "run time (0 = until SIGINT/SIGTERM)")
	flag.DurationVar(&o.report, "report", 2*time.Second, "stats report interval")
	flag.StringVar(&o.httpAddr, "http", "", "status server address, e.g. :8080 (empty = disabled)")
	flag.Uint64Var(&o.seed, "seed", 1, "scenario seed")
	flag.Float64Var(&o.threshold, "threshold", 0, "fixed CFD decision threshold (0 = self-calibrating CFAR)")
	flag.Float64Var(&o.cfarScale, "cfar-scale", 2, "CFAR peak-over-floor detection ratio")
	flag.StringVar(&o.detector, "detector", "", "decision layer: "+strings.Join(tiledcfd.DetectorNames(), ", ")+" (empty = fixed when -threshold > 0, else cfar)")
	flag.Float64Var(&o.targetPfa, "pfa", 0, "target false-alarm probability for -detector=dg|urriza (0 = 0.05)")
	flag.BoolVar(&o.cumulative, "cumulative", false, "integrate estimator state across windows instead of per-window reset")
	flag.BoolVar(&o.quiet, "quiet", false, "suppress per-decision transition logging")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if o.connect != "" {
		if err := runClient(ctx, o, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if o.shardOf != "" {
		if err := runWorker(ctx, o, os.Stdout); err != nil {
			log.Fatal(err)
		}
		return
	}
	if _, err := run(ctx, o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// feeder is one channel's synthetic radio front end: a deterministic
// occupancy timeline (idle and busy segments a few windows long, offset
// per channel so the fleet stays heterogeneous) pushed chunk by chunk.
type feeder struct {
	id      string
	idx     int
	carrier float64
	seed    uint64
	busy    atomic.Bool // current ground truth, for the report
}

// pusher is the ingest surface a feeder needs — satisfied by
// tiledcfd.Monitor locally and by wireSender over the protocol.
type pusher interface {
	Push(id string, samples []complex128) (int, error)
}

// segment returns the ground truth and length in windows of segment s.
func (f *feeder) segment(s int) (busy bool, windows int) {
	busy = s%2 == 1 // start idle, alternate
	if busy {
		return true, 1 + (f.idx+s)%3
	}
	return false, 2 + (f.idx+s)%2
}

// feed pushes the scenario until ctx is cancelled or push fails.
func (f *feeder) feed(ctx context.Context, o options, mon pusher) {
	const chunk = 2048
	var pace *time.Ticker
	if o.rate > 0 {
		pace = time.NewTicker(time.Duration(float64(chunk) / float64(o.rate) * float64(time.Second)))
		defer pace.Stop()
	}
	for s := 0; ; s++ {
		busy, windows := f.segment(s)
		f.busy.Store(busy)
		n := windows * o.window
		var seg []complex128
		var err error
		segSeed := f.seed + uint64(f.idx)*1_000_003 + uint64(s)*7919
		if busy {
			seg, err = tiledcfd.NewBPSKBand(n, f.carrier, 8, 8, segSeed)
		} else {
			seg, err = tiledcfd.NewNoiseBand(n, 0.1, segSeed)
		}
		if err != nil {
			log.Printf("%s: scenario: %v", f.id, err)
			return
		}
		for i := 0; i < len(seg); i += chunk {
			end := i + chunk
			if end > len(seg) {
				end = len(seg)
			}
			if _, err := mon.Push(f.id, seg[i:end]); err != nil {
				return // engine closed
			}
			if pace != nil {
				select {
				case <-ctx.Done():
					return
				case <-pace.C:
				}
			} else if ctx.Err() != nil {
				return
			}
		}
	}
}

// syncWriter serialises output: the reporter and the decision logger
// write to the same stream from different goroutines.
type syncWriter struct {
	mu sync.Mutex
	w  io.Writer
}

// Write implements io.Writer.
func (s *syncWriter) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.w.Write(p)
}

// monitorSink adapts the sharded monitor to the wire server's Sink.
type monitorSink struct {
	mon *tiledcfd.Monitor
}

// OpenChannel registers the stream's channel id on its shard, honouring
// the alpha-candidate set the client put in the open frame (nil falls
// back to the daemon's -alpha default).
func (s monitorSink) OpenChannel(meta wire.Meta) error {
	return s.mon.AddChannelCandidates(meta.ID, meta.AlphaCandidates)
}

// Push forwards decoded samples to the owning shard.
func (s monitorSink) Push(id string, samples []complex128) (int, error) {
	return s.mon.Push(id, samples)
}

// serveStats is the daemon's final accounting record.
type serveStats = tiledcfd.MonitorStats

// run builds the sharded monitor, starts the wire listener and/or the
// synthetic feeders, reporter, decision logger and optional status
// server, and blocks until ctx is cancelled (or o.duration elapses),
// then drains gracefully. It returns the final session stats.
func run(ctx context.Context, o options, out io.Writer) (*serveStats, error) {
	out = &syncWriter{w: out}
	if o.listen == "" {
		o.selftest = true // zero-configuration demo mode
	}
	if o.selftest && o.channels < 1 {
		return nil, fmt.Errorf("cfdserve: -channels=%d must be >= 1", o.channels)
	}
	if o.mode != "block" && o.mode != "drop" {
		return nil, fmt.Errorf("cfdserve: -mode=%q must be block or drop", o.mode)
	}
	candidates, err := parseAlpha(o.alpha)
	if err != nil {
		return nil, err
	}
	remotes := parseRemotes(o.shardAddrs)
	if o.shards == 0 && len(remotes) == 0 {
		o.shards = 1
	}
	if o.drainGrace == 0 {
		o.drainGrace = 5 * time.Second
	}
	if o.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}
	var feeders []*feeder
	var ids []string
	if o.selftest {
		feeders = make([]*feeder, o.channels)
		ids = make([]string, o.channels)
		for i := range feeders {
			ids[i] = fmt.Sprintf("ch%02d", i)
			feeders[i] = &feeder{
				id:  ids[i],
				idx: i,
				// Spread carriers across the band so channels stay distinct.
				carrier: float64(4+3*(i%8)) / float64(o.k),
				seed:    o.seed,
			}
		}
	}
	mon, err := tiledcfd.NewMonitor(
		o.sensingConfig(candidates),
		tiledcfd.MonitorOptions{
			Channels:        ids,
			SnapshotSamples: o.window,
			RingSamples:     o.ring,
			Workers:         o.workers,
			Cumulative:      o.cumulative,
			Backpressure:    o.mode == "block",
			Shards:          o.shards,
			Remotes:         remotes,
			Health: tiledcfd.RemoteHealthOptions{
				Interval:    o.healthInterval,
				PushTimeout: o.pushTimeout,
			},
			FallbackLocal: o.fallbackLocal,
		},
	)
	if err != nil {
		return nil, err
	}
	defer mon.Close()
	if len(remotes) > 0 {
		fmt.Fprintf(out, "routing to %d remote shard(s): %s\n", len(remotes), o.shardAddrs)
	}

	// Wire-protocol ingest listener.
	var srv *wire.Server
	if o.listen != "" {
		srv, err = wire.NewServer(wire.ServerConfig{
			Sink:               monitorSink{mon},
			QuotaSamplesPerSec: o.quota,
			QuotaBurst:         o.quotaBurst,
			Logf:               log.Printf,
		})
		if err != nil {
			return nil, err
		}
		addr, err := srv.Listen(o.listen)
		if err != nil {
			return nil, err
		}
		defer srv.Close()
		fmt.Fprintf(out, "listening on %s (%d shards)\n", addr, o.shards)
		if o.notifyListen != nil {
			o.notifyListen(addr)
		}
	}

	var wg sync.WaitGroup
	for _, f := range feeders {
		wg.Add(1)
		go func(f *feeder) {
			defer wg.Done()
			f.feed(ctx, o, mon)
		}(f)
	}

	// Decision logger: drains the rolling verdicts and logs occupancy
	// transitions.
	var logWG sync.WaitGroup
	logWG.Add(1)
	go func() {
		defer logWG.Done()
		occupied := map[string]bool{}
		for d := range mon.Decisions() {
			if o.quiet || d.Detected == occupied[d.Channel] {
				continue
			}
			occupied[d.Channel] = d.Detected
			state := "VACATED"
			if d.Detected {
				state = "OCCUPIED"
			}
			fmt.Fprintf(out, "%s %s window %d [%s]: %s (stat %.2f vs %.2f, feature a=%d)\n",
				time.Now().Format("15:04:05"), d.Channel, d.Seq, d.Shard, state,
				d.Statistic, d.Threshold, d.FeatureA)
		}
	}()

	if o.httpAddr != "" {
		hs, err := statusServer(o.httpAddr, mon, srv)
		if err != nil {
			return nil, err
		}
		if o.notifyHTTP != nil {
			o.notifyHTTP(hs.addr)
		}
		defer hs.srv.Shutdown(context.Background()) //nolint:errcheck // best-effort shutdown
	}

	ticker := time.NewTicker(o.report)
	defer ticker.Stop()
	var prev tiledcfd.MonitorStats
	prevAt := time.Now()
	for running := true; running; {
		select {
		case <-ctx.Done():
			running = false
		case <-ticker.C:
			prev, prevAt = report(out, mon, feeders, prev, prevAt)
		}
	}
	// Graceful drain: stop admitting new connections and channels first,
	// give in-flight frames a grace period to land, then stop the
	// listener hard.
	if srv != nil {
		srv.Drain()
		if !srv.WaitIdle(o.drainGrace) {
			fmt.Fprintf(out, "drain: %d connections still active after %v, closing\n",
				srv.ActiveConns(), o.drainGrace)
		}
		srv.Close()
	}
	wg.Wait()
	// Let in-flight rings drain so every decision window in flight is
	// decided and the final figures are complete, then stop. Flush can
	// only time out if the engine is wedged — report it rather than
	// hanging shutdown.
	if err := mon.Flush(10 * time.Second); err != nil {
		fmt.Fprintf(out, "shutdown: %v\n", err)
	}
	report(out, mon, feeders, prev, prevAt)
	st := mon.Stats()
	if err := mon.Close(); err != nil {
		return nil, err
	}
	logWG.Wait()
	fmt.Fprintf(out, "final: %d channels on %d shards, %d samples in (%d dropped), %d surfaces, %d detections\n",
		st.Channels, st.Shards, st.SamplesIn, st.SamplesDropped, st.Surfaces, st.Detections)
	if st.Retries > 0 || st.Failovers > 0 || st.ShedSamples > 0 {
		fmt.Fprintf(out, "robustness: %d retries, %d deadline overruns, %d failovers, %d samples shed\n",
			st.Retries, st.DeadlineExceeded, st.Failovers, st.ShedSamples)
	}
	return &st, nil
}

// parseAlpha turns the -alpha CSV into the candidate bin-offset set
// (nil when the flag is unset, meaning full-plane estimation).
func parseAlpha(csv string) ([]int, error) {
	if csv == "" {
		return nil, nil
	}
	var out []int
	for _, f := range strings.Split(csv, ",") {
		a, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil {
			return nil, fmt.Errorf("cfdserve: -alpha: bad bin offset %q: %v", f, err)
		}
		out = append(out, a)
	}
	return out, nil
}

// parseRemotes turns the -shard-addrs CSV into the remote topology.
func parseRemotes(csv string) []tiledcfd.RemoteShardOptions {
	var remotes []tiledcfd.RemoteShardOptions
	for _, addr := range strings.Split(csv, ",") {
		addr = strings.TrimSpace(addr)
		if addr == "" {
			continue
		}
		remotes = append(remotes, tiledcfd.RemoteShardOptions{Addr: addr})
	}
	return remotes
}

// runWorker is -shard-of mode: host one bare engine behind the wire
// protocol's worker mode and let a parent cfdserve route channels at
// it. The worker holds no routing state of its own — channels appear
// when the parent opens them and are swept out when its connection
// drops (the parent carries the counters across such restarts).
func runWorker(ctx context.Context, o options, out io.Writer) error {
	out = &syncWriter{w: out}
	if o.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}
	logf := log.Printf
	if o.quiet {
		logf = func(string, ...any) {}
	}
	candidates, err := parseAlpha(o.alpha)
	if err != nil {
		return err
	}
	w, err := tiledcfd.NewShardWorker(
		o.sensingConfig(candidates),
		tiledcfd.ShardWorkerOptions{
			SnapshotSamples: o.window,
			RingSamples:     o.ring,
			Workers:         o.workers,
			Cumulative:      o.cumulative,
			Backpressure:    o.mode == "block",
			Listen:          o.shardOf,
			Logf:            logf,
		},
	)
	if err != nil {
		return err
	}
	defer w.Close()
	fmt.Fprintf(out, "shard worker listening on %s\n", w.Addr())
	if o.notifyListen != nil {
		o.notifyListen(w.Addr())
	}
	ticker := time.NewTicker(o.report)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			// Let in-flight rings drain so the parent's final flush sees
			// every due decision, then stop.
			if err := w.Flush(10 * time.Second); err != nil {
				fmt.Fprintf(out, "shutdown: %v\n", err)
			}
			st := w.Stats()
			fmt.Fprintf(out, "final: %d channels, %d samples in, %d surfaces, %d detections\n",
				st.Channels, st.SamplesIn, st.Surfaces, st.Detections)
			return w.Close()
		case <-ticker.C:
			st := w.Stats()
			fmt.Fprintf(out, "%s worker %d ch / %d conns | %.2fM samples (%.2fM/s avg) | %d surfaces | queued %d\n",
				time.Now().Format("15:04:05"), st.Channels, w.ActiveConns(),
				float64(st.SamplesIn)/1e6, st.SamplesPerSec/1e6, st.Surfaces, st.QueuedSamples)
		}
	}
}

// report prints one rolling stats block and returns the counters for the
// next interval's rate computation.
func report(out io.Writer, mon *tiledcfd.Monitor, feeders []*feeder,
	prev tiledcfd.MonitorStats, prevAt time.Time) (tiledcfd.MonitorStats, time.Time) {
	st := mon.Stats()
	now := time.Now()
	dt := now.Sub(prevAt).Seconds()
	if dt <= 0 {
		dt = 1
	}
	sps := float64(st.SamplesIn-prev.SamplesIn) / dt
	fps := float64(st.Surfaces-prev.Surfaces) / dt
	fmt.Fprintf(out, "%s %d ch / %d shards | %.2fM samples (%.2fM/s) | %d surfaces (%.1f/s) | dropped %d | queued %d\n",
		now.Format("15:04:05"), st.Channels, st.Shards,
		float64(st.SamplesIn)/1e6, sps/1e6, st.Surfaces, fps,
		st.SamplesDropped, st.QueuedSamples)
	for _, f := range feeders {
		cs, ok := mon.ChannelStats(f.id)
		if !ok {
			continue
		}
		verdict, stat := "-", 0.0
		if cs.Last != nil {
			stat = cs.Last.Statistic
			if cs.Last.Detected {
				verdict = "OCCUPIED"
			} else {
				verdict = "idle"
			}
		}
		truth := "idle"
		if f.busy.Load() {
			truth = "busy"
		}
		fmt.Fprintf(out, "  %-5s %-8s (truth %-4s) [%s] stat %6.2f | windows %4d | detections %4d | dropped %d\n",
			f.id, verdict, truth, cs.Shard, stat, cs.Snapshots, cs.Detections, cs.SamplesDropped)
	}
	return st, now
}

// statusSnapshot is the /stats JSON schema.
type statusSnapshot struct {
	Stats    tiledcfd.MonitorStats          `json:"stats"`
	Shards   []tiledcfd.ShardInfo           `json:"shards"`
	Channels []tiledcfd.MonitorChannelStats `json:"channels"`
}

// collectMetrics fills one Prometheus exposition scrape: engine-level
// counters, per-shard gauges, and (when serving the wire protocol) the
// ingest listener's counters.
func collectMetrics(e *wire.Exposition, mon *tiledcfd.Monitor, srv *wire.Server) {
	st := mon.Stats()
	e.Metric("cfd_engine_samples_in_total", "counter",
		"IQ samples accepted by the sensing engines.", float64(st.SamplesIn))
	e.Metric("cfd_engine_samples_dropped_total", "counter",
		"IQ samples discarded by full ingestion rings (drop mode).", float64(st.SamplesDropped))
	e.Metric("cfd_engine_samples_per_sec", "gauge",
		"Lifetime-average ingest rate in samples/sec.", st.SamplesPerSec)
	e.Metric("cfd_engine_decisions_total", "counter",
		"Decision windows produced across all shards.", float64(st.Surfaces))
	e.Metric("cfd_engine_detections_total", "counter",
		"Decision windows declaring the band occupied.", float64(st.Detections))
	e.Metric("cfd_engine_decisions_dropped_total", "counter",
		"Decisions lost to a full or unread decision stream.", float64(st.DecisionsDropped))
	e.Metric("cfd_windows_failed_total", "counter",
		"Due decision windows that produced no decision because the estimator or detector failed on their data.",
		float64(st.WindowsFailed))
	e.Metric("cfd_engine_channels", "gauge",
		"Registered channels.", float64(st.Channels))
	e.Metric("cfd_pruned_cells_skipped_total", "counter",
		"Surface cells never computed thanks to alpha-candidate pruning.",
		float64(st.PrunedCellsSkipped))
	e.Metric("cfd_engine_shards", "gauge",
		"Live shard engines.", float64(st.Shards))
	e.Metric("cfd_engine_handoffs_total", "counter",
		"Channel ownership moves across rebalances.", float64(st.Handoffs))
	for _, s := range mon.Shards() {
		e.Metric("cfd_shard_queue_depth", "gauge",
			"Momentary ingestion backlog per shard in samples.",
			float64(s.QueuedSamples), "shard", s.Name)
	}
	for _, s := range mon.Shards() {
		e.Metric("cfd_shard_samples_in_total", "counter",
			"IQ samples accepted per shard.", float64(s.SamplesIn), "shard", s.Name)
	}
	for _, s := range mon.Shards() {
		e.Metric("cfd_shard_decisions_total", "counter",
			"Decision windows produced per shard.", float64(s.Surfaces), "shard", s.Name)
	}
	for _, s := range mon.Shards() {
		e.Metric("cfd_shard_channels", "gauge",
			"Channels owned per shard.", float64(s.Channels), "shard", s.Name)
	}
	e.Metric("cfd_shard_retries_total", "counter",
		"Push retries against remote shards.", float64(st.Retries))
	e.Metric("cfd_push_deadline_exceeded_total", "counter",
		"Remote pushes that overran their deadline.", float64(st.DeadlineExceeded))
	e.Metric("cfd_shard_failovers_total", "counter",
		"Remote shards failed over after their circuit opened.", float64(st.Failovers))
	e.Metric("cfd_shard_shed_samples_total", "counter",
		"Samples shed because no healthy shard could take them.", float64(st.ShedSamples))
	for _, s := range mon.Shards() {
		if !s.Remote {
			continue
		}
		e.Metric("cfd_shard_circuit_state", "gauge",
			"Remote shard breaker position: 0 closed, 1 half-open, 2 open.",
			float64(circuitStateValue(s.State)), "shard", s.Name)
	}
	if srv != nil {
		srv.Collect(e)
	}
}

// circuitStateValue maps a shard's breaker name onto the gauge encoding.
func circuitStateValue(state string) int {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return 0
}

// statusHTTP is a started status server and its bound address.
type statusHTTP struct {
	srv  *http.Server
	addr net.Addr
}

// statusServer starts the embedded HTTP endpoint: /healthz, /stats
// (JSON) and /metrics (Prometheus text exposition).
func statusServer(addr string, mon *tiledcfd.Monitor, wsrv *wire.Server) (*statusHTTP, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		// Degraded = at least one remote shard's circuit is not closed:
		// traffic still flows (re-homed or shed with accounting) but the
		// fleet is short, so load balancers should prefer a healthy peer.
		if open := mon.OpenCircuits(); len(open) > 0 {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]any{ //nolint:errcheck // best-effort status
				"status":        "degraded",
				"open_circuits": open,
			})
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) {
		snap := statusSnapshot{Stats: mon.Stats(), Shards: mon.Shards()}
		for _, id := range mon.Channels() {
			if cs, ok := mon.ChannelStats(id); ok {
				snap.Channels = append(snap.Channels, cs)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(snap) //nolint:errcheck // best-effort status
	})
	mux.Handle("/metrics", wire.Handler(func(e *wire.Exposition) {
		collectMetrics(e, mon, wsrv)
	}))
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); err != nil && err != http.ErrServerClosed {
			log.Printf("status server: %v", err)
		}
	}()
	return &statusHTTP{srv: srv, addr: ln.Addr()}, nil
}

// runClient is -connect mode: a wire-protocol load generator streaming
// the synthetic scenario at a serving cfdserve instance.
func runClient(ctx context.Context, o options, out io.Writer) error {
	out = &syncWriter{w: out}
	if o.channels < 1 {
		return fmt.Errorf("cfdserve: -channels=%d must be >= 1", o.channels)
	}
	var format wire.Format
	switch o.format {
	case "", "cf32_le":
		format = wire.FormatCF32
	case "ci16_le":
		format = wire.FormatCI16
	default:
		return fmt.Errorf("cfdserve: -format=%q must be cf32_le or ci16_le", o.format)
	}
	candidates, err := parseAlpha(o.alpha)
	if err != nil {
		return err
	}
	if o.duration > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.duration)
		defer cancel()
	}
	c, err := wire.Dial(o.connect)
	if err != nil {
		return err
	}
	defer c.Close()
	rate := float64(o.rate)
	if rate == 0 {
		rate = 1e6 // nominal front-end rate for the metadata
	}
	var sent atomic.Int64
	var wg sync.WaitGroup
	errs := make(chan error, o.channels)
	for i := 0; i < o.channels; i++ {
		cs, err := c.Open(wire.Meta{
			ID:              fmt.Sprintf("wire%02d", i),
			Format:          format,
			SampleRateHz:    rate,
			AlphaCandidates: candidates,
		})
		if err != nil {
			return err
		}
		f := &feeder{id: cs.ID(), idx: i, carrier: float64(4+3*(i%8)) / float64(o.k), seed: o.seed}
		wg.Add(1)
		go func(cs *wire.ChannelStream, f *feeder) {
			defer wg.Done()
			f.feed(ctx, o, sendCounter{cs, &sent})
			if err := cs.Close(); err != nil && ctx.Err() == nil {
				errs <- err
			}
		}(cs, f)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return fmt.Errorf("cfdserve: stream: %w", err)
	}
	if err := c.Err(); err != nil && ctx.Err() == nil {
		return err
	}
	fmt.Fprintf(out, "sent %d samples on %d channels (%d shed by server quota)\n",
		sent.Load(), o.channels, c.ShedSamples())
	return nil
}

// sendCounter adapts a wire channel stream to the feeder's pusher
// surface, counting samples as they go out.
type sendCounter struct {
	cs   *wire.ChannelStream
	sent *atomic.Int64
}

// Push streams one block, blocking under server backpressure.
func (s sendCounter) Push(_ string, samples []complex128) (int, error) {
	if err := s.cs.Send(samples); err != nil {
		return 0, err
	}
	s.sent.Add(int64(len(samples)))
	return len(samples), nil
}
