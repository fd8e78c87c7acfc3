package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/freelist"
	"tiledcfd/internal/scf"
)

// ErrClosed is returned by Push and AddChannel after Close.
var ErrClosed = fmt.Errorf("stream: engine closed")

// drainChunk is the most samples a worker feeds from a ring to the
// accumulator per segment: large enough to amortise locking, small
// enough to keep decision latency modest and to free ring room to a
// blocked producer often.
const drainChunk = 4096

// maxDrainSpins bounds how many chunks one dispatch drains before the
// worker requeues the channel and moves on — fairness under a firehose
// producer, so one hot channel cannot starve the rest of the pool.
const maxDrainSpins = 16

// Config configures an Engine.
type Config struct {
	// Estimator produces each channel's incremental state: any
	// scf.StreamingEstimator (scf.Direct, fam.FAM, fam.SSCA and their Q15
	// twins). Required.
	Estimator scf.StreamingEstimator
	// SnapshotSamples is the per-channel decision cadence: a decision is
	// emitted every SnapshotSamples samples, and the accumulator is then
	// reset, so every decision covers its own window. Channels of an
	// scf.WindowEstimator (every streaming estimator) buffer only the span
	// of samples the window's estimate reads and fold it at the window's
	// end. The float FAM and SSCA fold straight into the α-profile
	// (scf.Profile) when the decider reads no more (cfar, fixed) or reads
	// the samples alone (dg, urriza); the others fold into the surface
	// the decision reads. Between pushes a channel holds its span and no
	// result. Default 8192.
	SnapshotSamples int
	// RingSamples is the per-channel ingestion ring capacity limit; the
	// ring's memory follows the channel's peak backlog: the first push
	// sizes it, and it doubles, up to this limit, only when a push needs
	// the room. Workers feed the accumulator straight from the ring, so
	// the limit bounds every sample the channel holds before its
	// accumulator, the segment a worker is feeding included. Default
	// 4×SnapshotSamples.
	RingSamples int
	// Workers bounds the drain/decision worker pool. Default
	// runtime.GOMAXPROCS(0).
	Workers int
	// MaxChannels bounds the channel count (and sizes the work queue so
	// scheduling never blocks). Default 1024.
	MaxChannels int
	// Block selects backpressure over dropping: Push blocks until ring
	// space frees instead of discarding the overflow, and a worker waits
	// for room in the Decisions buffer instead of dropping a decision.
	// Default false (drop-newest samples and decisions, counted in the
	// stats).
	Block bool
	// AlphaCandidates, when non-empty, restricts every channel's
	// estimation to the listed non-negative cycle-frequency offsets (plus
	// their mirrors and a=0) — the alpha-pruned mode, where snapshot cost
	// scales with the candidate count instead of M. The Estimator must
	// implement scf.CandidateEstimator. Individual channels can override
	// the set via AddChannelCandidates.
	AlphaCandidates []int
	// MinAbsA is the smallest |a| the decision layer searches (default
	// 2, clear of PSD leakage around a=0).
	MinAbsA int
	// Decider is the decision layer applied to every channel (build one
	// with detect.NewDecider; individual channels can override it via
	// AddChannelDecider). Default: "cfar" with its default scale.
	Decider detect.Decider
	// DecisionBuffer is the capacity of the Decisions channel. In drop
	// mode a slow consumer never stalls sensing: overflowing decisions
	// are dropped and counted (the latest is always available via
	// ChannelStats). With Block set, a full buffer stalls the worker
	// until the consumer reads or Close, which in turn backpressures
	// Push; RemoveChannel waits for room within its timeout. Default 256.
	DecisionBuffer int
}

// withDefaults fills the zero fields.
func (c Config) withDefaults() Config {
	if c.SnapshotSamples == 0 {
		c.SnapshotSamples = 8192
	}
	if c.RingSamples == 0 {
		c.RingSamples = 4 * c.SnapshotSamples
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxChannels == 0 {
		c.MaxChannels = 1024
	}
	if c.MinAbsA == 0 {
		c.MinAbsA = 2
	}
	if c.DecisionBuffer == 0 {
		c.DecisionBuffer = 256
	}
	return c
}

// Decision is one periodic verdict for one channel.
type Decision struct {
	// Channel names the channel the decision belongs to.
	Channel string
	// Seq is the 0-based decision index within the channel.
	Seq int64
	// WindowSamples is the number of samples since the channel's last
	// decision, which the underlying surface integrates: SnapshotSamples,
	// a multiple of it when the estimator needed more than one window to
	// become Ready, or less for a final flush at RemoveChannel.
	WindowSamples int
	// TotalSamples is the cumulative sample count the channel has
	// processed when the decision was made.
	TotalSamples int64
	// Detected carries the verdict of the channel's decider — e.g. the
	// CFAR peak-over-floor ratio against its scale, or an asymptotic
	// chi-square statistic against its closed-form threshold.
	Detected bool
	// Statistic and Threshold are the compared decision inputs.
	Statistic, Threshold float64
	// Detector is the registry name of the decider that produced the
	// verdict (cfar, fixed, dg, urriza).
	Detector string
	// TargetPfa is the configured false-alarm target of an
	// asymptotic-threshold detector (dg, urriza); 0 for detectors
	// thresholded by other means.
	TargetPfa float64
	// FeatureF/FeatureA locate the strongest cell of the window's surface
	// over the rows |a| >= MinAbsA, the first in row-major order on ties,
	// whether the surface was built or only its profile was folded.
	FeatureF, FeatureA int
	// Estimator names the estimator that produced the surface.
	Estimator string
	// At is the wall-clock decision time.
	At time.Time
}

// Counters are an engine's monotone counts, the one record every layer
// that reports engine accounting embeds. They only grow, so the shard
// router banks them across handoffs, drains and worker restarts.
type Counters struct {
	// SamplesIn counts samples accepted into rings; SamplesDropped
	// counts samples discarded because a ring was full (drop mode).
	SamplesIn, SamplesDropped int64
	// Surfaces counts snapshots taken (= decisions made); Detections
	// the decisions declaring the band occupied; DecisionsDropped those
	// lost to a full or unread decision stream.
	Surfaces, Detections, DecisionsDropped int64
	// WindowsFailed counts due windows that produced no decision because
	// the snapshot or the decider failed on their data. Every due window
	// is either a decision (Surfaces) or counted here.
	WindowsFailed int64
	// PrunedCellsSkipped counts surface cells never computed because of
	// alpha-candidate pruning, summed over all snapshots: each pruned
	// snapshot contributes (extent - heldRows) × extent cells. Zero when
	// no channel prunes.
	PrunedCellsSkipped int64
}

// Add adds o's counts to c.
func (c *Counters) Add(o Counters) {
	c.SamplesIn += o.SamplesIn
	c.SamplesDropped += o.SamplesDropped
	c.Surfaces += o.Surfaces
	c.Detections += o.Detections
	c.DecisionsDropped += o.DecisionsDropped
	c.WindowsFailed += o.WindowsFailed
	c.PrunedCellsSkipped += o.PrunedCellsSkipped
}

// Gauges are an engine's momentary readings. They are summed over live
// engines only and never banked: a retired or unreachable engine holds
// nothing and queues nothing.
type Gauges struct {
	// QueuedSamples is the ingestion queue depth: samples accepted into
	// rings whose feed to an accumulator has not finished, the segments
	// workers are feeding included, summed over all channels.
	QueuedSamples int64
	// HeldBytes is the memory the channels hold, summed over them (see
	// ChannelStats.HeldBytes).
	HeldBytes int64
}

// Add adds o's readings to g.
func (g *Gauges) Add(o Gauges) {
	g.QueuedSamples += o.QueuedSamples
	g.HeldBytes += o.HeldBytes
}

// ChannelCounters are one channel's monotone counts, banked across the
// channel's owners as Counters are across engines.
type ChannelCounters struct {
	// SamplesIn counts samples accepted; SamplesDropped those discarded
	// because the channel's ring was full.
	SamplesIn, SamplesDropped int64
	// Snapshots counts the channel's decisions; Detections the subset
	// declaring the band occupied.
	Snapshots, Detections int64
}

// Add adds o's counts to c.
func (c *ChannelCounters) Add(o ChannelCounters) {
	c.SamplesIn += o.SamplesIn
	c.SamplesDropped += o.SamplesDropped
	c.Snapshots += o.Snapshots
	c.Detections += o.Detections
}

// Stats is an engine-wide accounting snapshot.
type Stats struct {
	// Channels is the number of registered channels.
	Channels int
	Counters
	Gauges
	// Elapsed is the time since the engine started.
	Elapsed time.Duration
	// SamplesPerSec and SurfacesPerSec are the lifetime averages
	// SamplesIn/Elapsed and Surfaces/Elapsed.
	SamplesPerSec, SurfacesPerSec float64
}

// ChannelStats is per-channel accounting.
type ChannelStats struct {
	// ID names the channel.
	ID string
	ChannelCounters
	// Last is the most recent decision, nil before the first. The
	// pointee is immutable.
	Last *Decision
	// Err is the non-empty failure message of a dead channel (an
	// accumulator push error; these indicate configuration bugs).
	Err string
	// HeldBytes is the memory the channel holds: 16 B per ring slot,
	// 16 B per sample of window capacity for a decider that reads raw
	// samples, and the accumulator's buffer as its HeldBytes() int
	// method reports it — scf.NewSpanAccumulator's, which every
	// estimator streams through, has one: 16 B a buffered sample. An
	// accumulator without the method, such as one a caller decorates,
	// counts 0. Fold scratch shared across
	// channels and the estimator's plans and tables are not counted. The
	// window's and accumulator's part is refreshed after each fed
	// segment, so it reads 0 before the channel's first.
	HeldBytes int64
}

// Engine is the multi-channel streaming sensing engine. See the package
// documentation for the architecture.
type Engine struct {
	cfg Config
	dec detect.Decider // engine-wide default decision layer

	mu       sync.RWMutex
	channels map[string]*channel
	order    []string
	closed   bool

	work chan *channel
	done chan struct{}
	out  chan Decision
	wg   sync.WaitGroup

	start time.Time

	samplesIn, samplesDropped atomic.Int64
	surfaces, detections      atomic.Int64
	decisionsDropped          atomic.Int64
	windowsFailed             atomic.Int64
	prunedCellsSkipped        atomic.Int64
}

// channel is one monitored stream inside the engine.
type channel struct {
	id string

	mu     sync.Mutex
	cond   *sync.Cond // signalled when ring space frees (backpressure)
	ring   []complex128
	limit  int // capacity len(ring) may grow to (Config.RingSamples)
	head   int // index of the oldest unread sample
	count  int // unread samples in the ring, the segment being fed included
	queued bool

	// Fields below the ring are touched only by the worker currently
	// draining the channel; the queued-flag protocol guarantees there is
	// at most one at a time, with ch.mu handoffs ordering memory.
	acc       scf.Accumulator
	dec       detect.Decider // effective decider, never nil
	win       []complex128   // window samples, buffered only when dec.NeedsSamples()
	sinceSnap int
	processed int64
	seq       int64
	dead      bool

	samplesIn, dropped    atomic.Int64
	snapshots, detections atomic.Int64
	held                  atomic.Int64 // bytes of win and acc, as of the last feed
	last                  atomic.Pointer[Decision]
	err                   atomic.Pointer[string]
}

// New validates the configuration, starts the worker pool, and returns
// an empty engine. Callers must Close it to stop the workers.
func New(cfg Config) (*Engine, error) {
	if cfg.Estimator == nil {
		return nil, fmt.Errorf("stream: Config.Estimator is required")
	}
	cfg = cfg.withDefaults()
	if cfg.SnapshotSamples < 1 {
		return nil, fmt.Errorf("stream: SnapshotSamples=%d must be >= 1", cfg.SnapshotSamples)
	}
	if cfg.RingSamples < cfg.SnapshotSamples {
		return nil, fmt.Errorf("stream: RingSamples=%d smaller than SnapshotSamples=%d",
			cfg.RingSamples, cfg.SnapshotSamples)
	}
	// Surface estimator misconfiguration now rather than at AddChannel.
	if _, err := accumulatorFor(cfg.Estimator, cfg.AlphaCandidates, cfg.SnapshotSamples); err != nil {
		return nil, err
	}
	dec, err := deciderFor(cfg)
	if err != nil {
		return nil, err
	}
	e := &Engine{
		dec:      dec,
		cfg:      cfg,
		channels: make(map[string]*channel),
		work:     make(chan *channel, cfg.MaxChannels),
		done:     make(chan struct{}),
		out:      make(chan Decision, cfg.DecisionBuffer),
		start:    time.Now(),
	}
	for w := 0; w < cfg.Workers; w++ {
		e.wg.Add(1)
		go e.worker()
	}
	return e, nil
}

// accumulatorFor builds a fresh accumulator, restricted to the given
// alpha-candidate set when one is supplied and bound to window (see
// scf.AccumulatorFor). Estimators that cannot prune
// (no scf.CandidateEstimator implementation) are rejected rather than
// silently computing the full plane.
func accumulatorFor(est scf.StreamingEstimator, alphas []int, window int) (scf.Accumulator, error) {
	if len(alphas) > 0 {
		ce, ok := est.(scf.CandidateEstimator)
		if !ok {
			return nil, fmt.Errorf("stream: estimator %q does not support alpha candidates", est.Name())
		}
		pruned, err := ce.WithAlphaCandidates(alphas)
		if err != nil {
			return nil, err
		}
		est = pruned
	}
	return scf.AccumulatorFor(est, window)
}

// deciderFor resolves the engine's default decision layer: the
// configured Decider, or "cfar" with its defaults.
func deciderFor(cfg Config) (detect.Decider, error) {
	if cfg.Decider != nil {
		return cfg.Decider, nil
	}
	return detect.NewDecider("cfar", detect.DeciderParams{MinAbsA: cfg.MinAbsA})
}

// AddChannel registers a new monitored channel with fresh accumulator
// state, pruned to Config.AlphaCandidates when that is set.
func (e *Engine) AddChannel(id string) error {
	return e.AddChannelCandidates(id, nil)
}

// AddChannelCandidates registers a new monitored channel whose estimation
// is restricted to the given non-negative alpha-candidate offsets (plus
// mirrors and a=0). A nil set falls back to Config.AlphaCandidates; an
// explicit non-empty set overrides it. The engine's estimator must
// implement scf.CandidateEstimator whenever the effective set is
// non-empty.
func (e *Engine) AddChannelCandidates(id string, alphas []int) error {
	return e.AddChannelDecider(id, alphas, nil)
}

// AddChannelDecider registers a new monitored channel with its own
// decision layer, overriding the engine-wide decider for this channel
// only — how remote shard workers run the exact detector the router's
// open frame names. A nil decider falls back to the engine default; the
// alpha-candidate semantics match AddChannelCandidates.
func (e *Engine) AddChannelDecider(id string, alphas []int, dec detect.Decider) error {
	if id == "" {
		return fmt.Errorf("stream: empty channel id")
	}
	if alphas == nil {
		alphas = e.cfg.AlphaCandidates
	}
	acc, err := accumulatorFor(e.cfg.Estimator, alphas, e.cfg.SnapshotSamples)
	if err != nil {
		return err
	}
	if dec == nil {
		dec = e.dec
	}
	ch := &channel{id: id, limit: e.cfg.RingSamples, acc: acc, dec: dec}
	ch.cond = sync.NewCond(&ch.mu)
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrClosed
	}
	if _, dup := e.channels[id]; dup {
		return fmt.Errorf("stream: channel %q already exists", id)
	}
	if len(e.channels) >= e.cfg.MaxChannels {
		return fmt.Errorf("stream: channel limit %d reached", e.cfg.MaxChannels)
	}
	e.channels[id] = ch
	e.order = append(e.order, id)
	return nil
}

// RemoveChannel unregisters a channel: it waits for already-pushed
// samples to finish processing (quiesce), emits one final decision for a
// partially integrated window if the accumulator has enough data to be
// Ready, and returns the channel's final accounting. After it returns,
// the id is free for re-registration with fresh state.
//
// RemoveChannel is the ownership-handoff primitive for shard
// rebalancing: every sample pushed before the call ends up in exactly
// one emitted decision window (or, when the residue is too short for
// the estimator, in no window at all — never in two). With Config.Block
// the final decision waits for room in the Decisions buffer within the
// timeout, and is dropped and counted past it. Callers must stop
// pushing to the channel before calling; a Push racing RemoveChannel
// fails with an unknown-channel error once removal begins.
func (e *Engine) RemoveChannel(id string, timeout time.Duration) (ChannelStats, error) {
	e.mu.Lock()
	ch := e.channels[id]
	if ch == nil {
		e.mu.Unlock()
		return ChannelStats{}, fmt.Errorf("stream: unknown channel %q", id)
	}
	// Unregister first so concurrent Push can no longer reach the ring;
	// a worker still draining holds its own *channel pointer and
	// finishes normally.
	delete(e.channels, id)
	for i, o := range e.order {
		if o == id {
			e.order = append(e.order[:i], e.order[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	// Quiesce: wait until the ring is empty and no worker owns the
	// channel (queued clears under ch.mu when the drain completes).
	deadline := time.Now().Add(timeout)
	for {
		ch.mu.Lock()
		idle := ch.count == 0 && !ch.queued
		ch.mu.Unlock()
		if idle {
			break
		}
		if time.Now().After(deadline) {
			return ChannelStats{}, fmt.Errorf("stream: remove %q: quiesce timed out after %v", id, timeout)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Flush the in-flight window: a partial accumulation with enough
	// data for a snapshot becomes the channel's last (shorter) decision
	// window, so its samples are not silently lost at handoff.
	if !ch.dead && ch.sinceSnap > 0 && ch.acc.Ready() {
		e.flush(ch, deadline)
		ch.sinceSnap = 0
	}
	return ch.stats(), nil
}

// flush decides a removed channel's partial window unless Close has
// begun. It joins the worker group meanwhile, so Close cannot close
// Decisions under its send. With Block set the decision waits for room
// until the deadline, and is dropped and counted past it.
func (e *Engine) flush(ch *channel, deadline time.Time) {
	e.mu.RLock()
	closed := e.closed
	if !closed {
		e.wg.Add(1)
	}
	e.mu.RUnlock()
	if closed {
		return
	}
	defer e.wg.Done()
	expire := time.NewTimer(time.Until(deadline))
	defer expire.Stop()
	e.decide(ch, expire.C)
}

// Push appends samples to a channel's ring in arrival order and returns
// how many were accepted. The ring grows as needed up to
// Config.RingSamples; in drop mode (the default) overflow beyond that
// limit is discarded and counted; with Config.Block it blocks until the
// pool frees space. Push is safe for concurrent use across
// channels; pushes to the same channel must come from one producer (or
// be externally ordered) for the stream order to be meaningful.
func (e *Engine) Push(id string, samples []complex128) (int, error) {
	e.mu.RLock()
	ch := e.channels[id]
	closed := e.closed
	e.mu.RUnlock()
	if ch == nil {
		return 0, fmt.Errorf("stream: unknown channel %q", id)
	}
	if closed {
		return 0, ErrClosed
	}
	if msg := ch.err.Load(); msg != nil {
		return 0, fmt.Errorf("stream: channel %q failed: %s", id, *msg)
	}
	accepted := 0
	ch.mu.Lock()
	for {
		n := ch.put(samples)
		accepted += n
		samples = samples[n:]
		if len(samples) == 0 {
			break
		}
		if !e.cfg.Block {
			ch.dropped.Add(int64(len(samples)))
			e.samplesDropped.Add(int64(len(samples)))
			break
		}
		// Backpressure: enqueue what we have so the pool works on it,
		// then wait for room.
		e.enqueueLocked(ch)
		for ch.count == ch.limit && !e.isClosed() {
			ch.cond.Wait()
		}
		if e.isClosed() {
			ch.mu.Unlock()
			e.account(ch, accepted)
			return accepted, ErrClosed
		}
	}
	e.enqueueLocked(ch)
	ch.mu.Unlock()
	e.account(ch, accepted)
	return accepted, nil
}

// account books accepted samples into the counters.
func (e *Engine) account(ch *channel, accepted int) {
	if accepted > 0 {
		ch.samplesIn.Add(int64(accepted))
		e.samplesIn.Add(int64(accepted))
	}
}

// enqueueLocked schedules the channel for draining if it has pending
// samples and is not already queued. ch.mu must be held. The work queue
// holds MaxChannels slots and the queued flag admits one entry per
// channel, so the send cannot block (the done case only fires during
// shutdown).
func (e *Engine) enqueueLocked(ch *channel) {
	if ch.queued || ch.count == 0 {
		return
	}
	ch.queued = true
	select {
	case e.work <- ch:
	case <-e.done:
	}
}

// put copies as much of src as fits under the ring's limit, growing the
// ring first when it is too short. ch.mu must be held.
func (ch *channel) put(src []complex128) int {
	if need := ch.count + len(src); need > len(ch.ring) && len(ch.ring) < ch.limit {
		ch.grow(need)
	}
	n := len(ch.ring) - ch.count
	if n > len(src) {
		n = len(src)
	}
	if n == 0 {
		return 0
	}
	w := (ch.head + ch.count) % len(ch.ring)
	first := len(ch.ring) - w
	if first > n {
		first = n
	}
	copy(ch.ring[w:w+first], src[:first])
	copy(ch.ring[:n-first], src[first:n])
	ch.count += n
	return n
}

// grow reallocates the ring to min(limit, max(2·len, need)) samples,
// moving the unread samples, a segment a worker is feeding included, to
// its front in FIFO order: the first push sizes the ring, and later
// growth doubles it. The old array is left as it was, so a segment
// being fed from it stays valid. The ring never shrinks, so its size is
// the channel's peak backlog rounded up by doubling. ch.mu must be held.
func (ch *channel) grow(need int) {
	n := min(max(2*len(ch.ring), need), ch.limit)
	ring := make([]complex128, n)
	ch.count = ch.take(ring)
	ch.ring, ch.head = ring, 0
}

// take moves up to len(dst) samples out of the ring. ch.mu must be held.
func (ch *channel) take(dst []complex128) int {
	n := ch.count
	if n > len(dst) {
		n = len(dst)
	}
	if n == 0 {
		return 0
	}
	first := len(ch.ring) - ch.head
	if first > n {
		first = n
	}
	copy(dst[:first], ch.ring[ch.head:ch.head+first])
	copy(dst[first:n], ch.ring[:n-first])
	ch.head = (ch.head + n) % len(ch.ring)
	ch.count -= n
	return n
}

// segment returns up to most of the oldest unread samples, in place in
// the ring, stopping at the ring's end. They stay unread until
// release, so a put never writes over them, and a grow meanwhile copies
// them with the rest of the unread span and leaves them where they are.
// ch.mu must be held.
func (ch *channel) segment(most int) []complex128 {
	n := min(ch.count, most, len(ch.ring)-ch.head)
	return ch.ring[ch.head : ch.head+n]
}

// release marks the n > 0 oldest unread samples read. ch.mu must be
// held.
func (ch *channel) release(n int) {
	ch.head = (ch.head + n) % len(ch.ring)
	ch.count -= n
}

// worker is one member of the bounded drain/decision pool.
func (e *Engine) worker() {
	defer e.wg.Done()
	for {
		select {
		case <-e.done:
			return
		case ch := <-e.work:
			e.drain(ch)
		}
	}
}

// drain feeds a claimed channel's ring contents into its accumulator
// until the ring empties (clearing the queued flag) or the fairness
// budget runs out (requeueing the channel). Each segment is fed in place
// with the lock released and freed only once fed, so it counts against
// the ring's limit until then.
func (e *Engine) drain(ch *channel) {
	for spins := 0; ; spins++ {
		ch.mu.Lock()
		seg := ch.segment(drainChunk)
		if len(seg) == 0 {
			ch.queued = false
			ch.mu.Unlock()
			return
		}
		ch.mu.Unlock()
		if !ch.dead {
			e.feed(ch, seg)
		}
		ch.mu.Lock()
		ch.release(len(seg))
		if e.cfg.Block {
			ch.cond.Broadcast()
		}
		ch.mu.Unlock()
		if e.isClosed() {
			return
		}
		if spins >= maxDrainSpins {
			// Yield the worker; the channel stays queued.
			select {
			case e.work <- ch:
			case <-e.done:
			}
			return
		}
	}
}

// feed pushes one ring segment into the accumulator, splitting it at
// decision-window boundaries so every window covers exactly
// SnapshotSamples samples.
func (e *Engine) feed(ch *channel, chunk []complex128) {
	defer ch.noteHeld()
	for len(chunk) > 0 {
		n := e.cfg.SnapshotSamples - ch.sinceSnap
		if n > len(chunk) {
			n = len(chunk)
		}
		if err := ch.acc.Push(chunk[:n]); err != nil {
			// Accumulator push errors indicate configuration bugs; the
			// channel is dead from here on (Push reports the error).
			msg := err.Error()
			ch.err.Store(&msg)
			ch.dead = true
			return
		}
		if ch.dec.NeedsSamples() {
			// Sample-based deciders (dg, urriza) see the raw samples of
			// the span since the last decision; the buffer is emptied
			// once a decision is made. It is allocated at the channel's
			// first feed, one window long, so a channel that never
			// receives a sample holds none.
			if ch.win == nil {
				ch.win = make([]complex128, 0, e.cfg.SnapshotSamples)
			}
			ch.win = append(ch.win, chunk[:n]...)
		}
		ch.sinceSnap += n
		ch.processed += int64(n)
		chunk = chunk[n:]
		if ch.sinceSnap >= e.cfg.SnapshotSamples {
			ch.sinceSnap = 0
			// A window whose estimator needs more smoothing than
			// SnapshotSamples provides simply keeps accumulating; the
			// decision comes at the first boundary where it is Ready.
			if ch.acc.Ready() {
				e.decide(ch, nil)
				ch.win = ch.win[:0]
				ch.acc.Reset()
			}
		}
	}
}

// heldCounter is implemented by the accumulators that report the bytes
// they hold.
type heldCounter interface{ HeldBytes() int }

// noteHeld refreshes the channel's count of the bytes its window and
// accumulator hold. Only the goroutine that owns acc and win calls it.
func (ch *channel) noteHeld() {
	n := 16 * cap(ch.win)
	if hc, ok := ch.acc.(heldCounter); ok {
		n += hc.HeldBytes()
	}
	ch.held.Store(int64(n))
}

// profileSnapshotter is implemented by the accumulators that can fold a
// window straight into its profile (scf.NewSpanAccumulator's).
type profileSnapshotter interface {
	SnapshotProfile(dst *scf.Profile) (ok bool, err error)
}

// profiles lends each decision the profile it reads, so a channel keeps
// none between windows.
var profiles freelist.List[scf.Profile]

// decide evaluates the channel's window, applies the decision layer and
// emits the decision; expire bounds a Block-mode wait (nil: until room
// or Close).
func (e *Engine) decide(ch *channel, expire <-chan time.Time) {
	prof := profiles.Get()
	defer profiles.Put(prof)
	res, err := ch.evaluate(prof)
	if err != nil {
		// Ready() gated the snapshot, so its failures, like the
		// decider's (e.g. a partial flush window too short for an
		// asymptotic test), are data-dependent and rare: skip the window
		// rather than killing the channel.
		e.windowsFailed.Add(1)
		return
	}
	d := Decision{
		Channel:       ch.id,
		WindowSamples: ch.acc.Samples(),
		TotalSamples:  ch.processed,
		Estimator:     ch.acc.Name(),
		Detector:      ch.dec.Name(),
		TargetPfa:     ch.dec.TargetPfa(),
		At:            time.Now(),
	}
	d.Statistic, d.Threshold, d.Detected = res.Statistic, res.Threshold, res.Detected
	// The reported feature is the strongest cell in the offsets the
	// decision layer actually searched (|a| >= MinAbsA), so its
	// coordinates always describe the peak behind the statistic.
	d.FeatureF, d.FeatureA = prof.Feature(e.cfg.MinAbsA)
	// Counters only move once the decision is definitely emitted, so
	// Seq stays gapless and Surfaces == decisions made.
	d.Seq = ch.seq
	ch.seq++
	e.surfaces.Add(1)
	ch.snapshots.Add(1)
	e.prunedCellsSkipped.Add(prof.PrunedCellsSkipped())
	if d.Detected {
		ch.detections.Add(1)
		e.detections.Add(1)
	}
	ch.last.Store(&d)
	e.emit(d, expire)
}

// evaluate decides the channel's window and leaves its profile in prof.
// When the accumulator folds straight into a profile and the decider
// reads no more than that profile (cfar, fixed) or reads the samples
// alone (dg, urriza), no surface is built. Otherwise, for a decorated
// accumulator or decider, say, the window's surface is snapshotted and
// prof is taken from it, its sums only when the decider reads them.
func (ch *channel) evaluate(prof *scf.Profile) (detect.Decision, error) {
	pd, fromProfile := ch.dec.(detect.ProfileDecider)
	if ps, ok := ch.acc.(profileSnapshotter); ok && (fromProfile || ch.dec.NeedsSamples()) {
		folded, err := ps.SnapshotProfile(prof)
		if err != nil {
			return detect.Decision{}, err
		}
		if folded && fromProfile {
			return pd.DecideProfile(prof)
		}
		if folded {
			return ch.dec.Decide(nil, ch.win)
		}
	}
	s, _, err := ch.acc.Snapshot()
	if err != nil {
		return detect.Decision{}, err
	}
	var res detect.Decision
	if fromProfile {
		// Decide(s) would take the same sums again.
		prof.FromSurface(s)
		res, err = pd.DecideProfile(prof)
	} else {
		prof.Reset(s.M, s.Alphas)
		res, err = ch.dec.Decide(s, ch.win)
	}
	prof.SetPeaks(s)
	return res, err
}

// emit sends a decision on the Decisions channel. A consumer that falls
// behind is usually runnable but not running: the workers and the
// feeders hold every P, so past half a buffer emit yields so it can
// drain. On a full buffer, with Block set emit waits for room, Close or
// expire; otherwise it yields once more and, still full, drops the
// decision: a yield is not a wait, so a consumer that stops reading
// never stalls sensing. A decision that finds no room is counted.
func (e *Engine) emit(d Decision, expire <-chan time.Time) {
	select {
	case e.out <- d:
		if 2*len(e.out) > cap(e.out) {
			runtime.Gosched()
		}
		return
	default:
	}
	if e.cfg.Block {
		select {
		case e.out <- d:
			return
		case <-e.done:
		case <-expire:
		}
	} else {
		runtime.Gosched()
		select {
		case e.out <- d:
			return
		default:
		}
	}
	e.decisionsDropped.Add(1)
}

// Decisions returns the stream of periodic verdicts. The channel is
// closed by Close. In drop mode slow consumers never stall sensing:
// overflow decisions are dropped and counted, and the latest decision
// per channel is always available via ChannelStats. With Config.Block
// every decision is delivered: a full buffer stalls the worker, and
// through it the channel's Push, until the consumer reads; only Close,
// or a RemoveChannel timeout for that channel's final decision, drops
// one (counted). A Block-mode engine must therefore have a reader.
func (e *Engine) Decisions() <-chan Decision { return e.out }

// isClosed reports whether Close has begun.
func (e *Engine) isClosed() bool {
	select {
	case <-e.done:
		return true
	default:
		return false
	}
}

// Flush blocks until every ring is drained and every due decision made,
// or the timeout elapses. It is the quiesce point for batch feeds and
// benchmarks; a continuously fed engine never goes idle.
func (e *Engine) Flush(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if e.idle() {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("stream: flush timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// idle reports whether no channel has pending or in-flight samples.
func (e *Engine) idle() bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, ch := range e.channels {
		ch.mu.Lock()
		busy := ch.count > 0 || ch.queued
		ch.mu.Unlock()
		if busy {
			return false
		}
	}
	return true
}

// Close stops the engine: pushes begin returning ErrClosed, blocked
// pushes wake, workers exit, and the Decisions channel is closed.
// Samples still sitting in rings are discarded (Flush first to avoid
// that). Close is idempotent.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()
	close(e.done)
	e.mu.RLock()
	for _, ch := range e.channels {
		ch.mu.Lock()
		ch.cond.Broadcast()
		ch.mu.Unlock()
	}
	e.mu.RUnlock()
	e.wg.Wait()
	close(e.out)
	return nil
}

// Stats returns engine-wide accounting.
func (e *Engine) Stats() Stats {
	e.mu.RLock()
	n := len(e.channels)
	var queued, held int64
	for _, ch := range e.channels {
		ch.mu.Lock()
		queued += int64(ch.count)
		ch.mu.Unlock()
		held += ch.heldBytes()
	}
	e.mu.RUnlock()
	elapsed := time.Since(e.start)
	s := Stats{
		Channels: n,
		Counters: Counters{
			SamplesIn:          e.samplesIn.Load(),
			SamplesDropped:     e.samplesDropped.Load(),
			Surfaces:           e.surfaces.Load(),
			Detections:         e.detections.Load(),
			DecisionsDropped:   e.decisionsDropped.Load(),
			WindowsFailed:      e.windowsFailed.Load(),
			PrunedCellsSkipped: e.prunedCellsSkipped.Load(),
		},
		Gauges:  Gauges{QueuedSamples: queued, HeldBytes: held},
		Elapsed: elapsed,
	}
	if sec := elapsed.Seconds(); sec > 0 {
		s.SamplesPerSec = float64(s.SamplesIn) / sec
		s.SurfacesPerSec = float64(s.Surfaces) / sec
	}
	return s
}

// ChannelStats returns one channel's accounting; ok is false for an
// unknown id.
func (e *Engine) ChannelStats(id string) (ChannelStats, bool) {
	e.mu.RLock()
	ch := e.channels[id]
	e.mu.RUnlock()
	if ch == nil {
		return ChannelStats{}, false
	}
	return ch.stats(), true
}

// stats returns the channel's accounting.
func (ch *channel) stats() ChannelStats {
	cs := ChannelStats{
		ID: ch.id,
		ChannelCounters: ChannelCounters{
			SamplesIn:      ch.samplesIn.Load(),
			SamplesDropped: ch.dropped.Load(),
			Snapshots:      ch.snapshots.Load(),
			Detections:     ch.detections.Load(),
		},
		Last:      ch.last.Load(),
		HeldBytes: ch.heldBytes(),
	}
	if msg := ch.err.Load(); msg != nil {
		cs.Err = *msg
	}
	return cs
}

// heldBytes returns the bytes the channel holds: its ring, and its
// window and accumulator as of the last feed.
func (ch *channel) heldBytes() int64 {
	ch.mu.Lock()
	ring := len(ch.ring)
	ch.mu.Unlock()
	return 16*int64(ring) + ch.held.Load()
}
