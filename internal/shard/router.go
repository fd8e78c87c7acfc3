package shard

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/stream"
)

// ErrClosed is returned by router operations after Close.
var ErrClosed = fmt.Errorf("shard: router closed")

// DefaultHandoffTimeout bounds one channel's quiesce during an
// ownership move.
const DefaultHandoffTimeout = 30 * time.Second

// RemoteShard names one worker-process shard reached over the wire
// protocol (a cfdserve started with -shard-of).
type RemoteShard struct {
	// Name identifies the shard in stats and health reports; defaults to
	// the next shardN name.
	Name string
	// Addr is the worker's listen address. Required.
	Addr string
}

// Config configures a Router.
type Config struct {
	// Shards is the initial local shard count. Each local shard is its
	// own stream.Engine built from the Engine template. Defaults to 1
	// when no Remotes are configured, 0 otherwise.
	Shards int
	// Engine is the per-shard engine template; Engine.Estimator is
	// required. Engine.Workers applies per shard, so the service's
	// total worker count is Shards × Workers.
	Engine stream.Config
	// Remotes are worker-process shards driven over the wire protocol.
	// Each is wrapped in the robustness layer (Guard): per-push
	// deadlines, retries with backoff, a circuit breaker, heartbeat
	// health checks, and failover re-homing onto healthy shards.
	Remotes []RemoteShard
	// Guard tunes the robustness layer around every remote sink.
	Guard GuardConfig
	// FallbackLocal spills channels onto a lazily created local engine
	// (named "fallback") when every shard is down, instead of shedding
	// their samples.
	FallbackLocal bool
	// DecisionBuffer is the capacity of the merged Decisions channel
	// (default 1024). Overflowing decisions are dropped and counted;
	// the latest per channel stays available via ChannelStats.
	DecisionBuffer int
	// HandoffTimeout bounds one channel's quiesce during rebalancing
	// (default 30s).
	HandoffTimeout time.Duration
}

// Decision is one engine decision tagged with the shard that made it.
type Decision struct {
	stream.Decision
	// Shard names the owning shard at decision time.
	Shard string
}

// ShardStats is one shard's public accounting.
type ShardStats struct {
	// Name identifies the shard.
	Name string
	// Remote reports whether the shard lives in another process; Addr is
	// its dial address when it does.
	Remote bool
	// Addr is the remote worker's address ("" for local shards).
	Addr string
	// State is "ok" for a healthy shard, or the remote circuit-breaker
	// position ("half-open", "open") while the robustness layer is
	// degraded.
	State string
	// Channels is the number of channels the shard currently owns.
	Channels int
	// Stats is the shard engine's accounting (lifetime counters plus
	// the momentary QueuedSamples ingestion depth). For a down remote it
	// is the last snapshot fetched before the outage.
	Stats stream.Stats
}

// ChannelStats aggregates one channel's accounting across every shard
// that ever owned it.
type ChannelStats struct {
	// ID names the channel; Shard its current owner.
	ID, Shard string
	// SamplesIn, SamplesDropped, Snapshots and Detections sum the
	// channel's counters across all owners. SamplesDropped includes
	// samples shed because the owner was unreachable.
	SamplesIn, SamplesDropped, Snapshots, Detections int64
	// Handoffs counts ownership moves the channel has been through.
	Handoffs int64
	// Last is the most recent decision on the current owner (nil before
	// the first since the last handoff).
	Last *stream.Decision
	// Err is the failure message of a dead channel.
	Err string
}

// Stats is router-wide accounting: live shards summed with every
// drained shard's final counters, so totals never move backwards on
// rebalancing.
type Stats struct {
	// Shards and Channels count the live topology (down remotes are not
	// in Shards; see OpenCircuits).
	Shards, Channels int
	// SamplesIn, SamplesDropped, Surfaces, Detections, DecisionsDropped
	// and WindowsFailed aggregate the engine counters.
	SamplesIn, SamplesDropped, Surfaces, Detections, DecisionsDropped, WindowsFailed int64
	// QueuedSamples is the momentary ingestion depth summed over live
	// shards.
	QueuedSamples int64
	// PrunedCellsSkipped aggregates the surface cells never computed
	// because of alpha-candidate pruning, across all shards (local and
	// remote).
	PrunedCellsSkipped int64
	// Handoffs counts channel ownership moves.
	Handoffs int64
	// Retries counts remote push retry attempts; DeadlineExceeded the
	// pushes that overran their per-push deadline.
	Retries, DeadlineExceeded int64
	// Failovers counts dead-shard events that re-homed channels;
	// ShedSamples the samples dropped because no healthy owner could
	// take them.
	Failovers, ShedSamples int64
	// OpenCircuits is the number of remote shards currently failed
	// (breaker open or half-open).
	OpenCircuits int
	// Elapsed is the time since the router started.
	Elapsed time.Duration
	// SamplesPerSec is the lifetime-average ingest rate.
	SamplesPerSec float64
}

// shardState is one sink (local engine or guarded remote) plus its
// identity and health.
type shardState struct {
	name   string
	sink   Sink
	remote bool
	addr   string
	g      *guard      // nil for local shards
	down   atomic.Bool // true while failed over; not in the live set
}

// epoch identifies the sink's state incarnation: a remote worker's
// engine state restarts with each connection, so the dial count is the
// incarnation number. Local engines never restart under the router.
func (s *shardState) epoch() int64 {
	if s.g != nil {
		return s.g.rs.Dials()
	}
	return 0
}

// entry is one channel's routing record. Pushes and handoffs serialise
// on mu; owner is additionally atomic so stats readers never block on a
// backpressured push.
type entry struct {
	id string
	// alphas is the channel's alpha-candidate set (nil = the shard
	// engines' configured default), re-applied at every handoff so the
	// channel keeps pruning identically wherever it lands.
	alphas []int

	mu       sync.Mutex
	owner    atomic.Pointer[shardState]
	removed  bool
	handoffs atomic.Int64
	// epoch is the owner's state incarnation the trackers cover; when
	// the owner's epoch moves past it (a remote reconnect restarted the
	// engine state) the trackers are banked into the carry.
	epoch int64
	// Carryover accumulates the counters of previous incarnations
	// (former owners, and former connections of the same remote owner),
	// added at each handoff or restart so aggregate channel stats never
	// move backwards.
	carryIn, carryDropped, carrySnapshots, carryDetections int64
	// carryLast preserves the most recent decision across a handoff
	// (including a partial window flushed by the quiesce) until the new
	// owner produces one.
	carryLast *stream.Decision
	// track* shadow the current incarnation's counters router-side
	// (pushes accepted, decisions observed): the carry source when the
	// incarnation dies unreachably and its engine-side counters cannot
	// be read — the counter-carry that keeps a forced failover from
	// double-counting or silently losing windows.
	trackIn, trackSnapshots, trackDetections atomic.Int64
	// shed counts samples dropped because the owner was unreachable and
	// no healthy shard could take the channel.
	shed atomic.Int64
}

// bankTrackersLocked folds the router-side shadow counters into the
// carry — the forced-failover path where the dying incarnation's
// engine-side counters are unreachable. Caller holds e.mu.
func (e *entry) bankTrackersLocked() {
	e.carryIn += e.trackIn.Swap(0)
	e.carrySnapshots += e.trackSnapshots.Swap(0)
	e.carryDetections += e.trackDetections.Swap(0)
}

// syncEpochLocked banks the trackers if the owner's state incarnation
// moved past the one they cover (a remote reconnect restarted the
// engine under us). Caller holds e.mu.
func (e *entry) syncEpochLocked(own *shardState) {
	if cur := own.epoch(); cur != e.epoch {
		e.bankTrackersLocked()
		e.epoch = cur
	}
}

// resetTrackersLocked discards the shadow counters after a clean
// handoff banked the engine-reported ones. Caller holds e.mu.
func (e *entry) resetTrackersLocked() {
	e.trackIn.Store(0)
	e.trackSnapshots.Store(0)
	e.trackDetections.Store(0)
}

// Router owns the channel→shard mapping and the shard sinks.
type Router struct {
	cfg Config

	// topo serialises topology changes (AddShards, DrainShard, failover,
	// Close).
	topo sync.Mutex
	// mu guards the lookup maps.
	mu      sync.RWMutex
	shards  map[string]*shardState
	live    []string // names eligible for ownership, registration order
	entries map[string]*entry
	nextID  int
	closed  bool
	// retired accumulates final counters of drained shards.
	retiredIn, retiredDropped, retiredSurfaces, retiredDetections, retiredDecDropped int64
	retiredRetries, retiredDeadline, retiredPruned, retiredFailed                    int64

	out              chan Decision
	fwdWG            sync.WaitGroup
	decisionsDropped atomic.Int64
	handoffs         atomic.Int64
	failovers        atomic.Int64
	shedSamples      atomic.Int64
	healthDone       chan struct{}
	healthStop       sync.Once
	healthWG         sync.WaitGroup
	start            time.Time
}

// New builds the initial shard fleet — local engines plus guarded
// remote workers — and starts its engines and, when remotes are
// configured, the health-check loop that drives failover and recovery.
// A remote that cannot be reached at startup begins down and joins the
// fleet when its first health probe succeeds.
func New(cfg Config) (*Router, error) {
	if cfg.Shards == 0 && len(cfg.Remotes) == 0 {
		cfg.Shards = 1
	}
	if cfg.Shards < 0 {
		return nil, fmt.Errorf("shard: Shards=%d must be >= 0", cfg.Shards)
	}
	if cfg.Shards+len(cfg.Remotes) < 1 {
		return nil, fmt.Errorf("shard: no shards configured")
	}
	if cfg.DecisionBuffer == 0 {
		cfg.DecisionBuffer = 1024
	}
	if cfg.HandoffTimeout == 0 {
		cfg.HandoffTimeout = DefaultHandoffTimeout
	}
	cfg.Guard = cfg.Guard.withDefaults()
	r := &Router{
		cfg:        cfg,
		shards:     make(map[string]*shardState),
		entries:    make(map[string]*entry),
		out:        make(chan Decision, cfg.DecisionBuffer),
		healthDone: make(chan struct{}),
		start:      time.Now(),
	}
	for i := 0; i < cfg.Shards; i++ {
		if _, err := r.addShardLocked(""); err != nil {
			r.closeShards()
			return nil, err
		}
	}
	for i, rc := range cfg.Remotes {
		if err := r.addRemoteShardLocked(rc, cfg.Guard.Seed+int64(i)); err != nil {
			r.closeShards()
			return nil, err
		}
	}
	if len(r.live) == 0 && cfg.FallbackLocal {
		if err := r.ensureFallbackLocked(); err != nil {
			r.closeShards()
			return nil, err
		}
	}
	if len(cfg.Remotes) > 0 {
		r.healthWG.Add(1)
		go r.healthLoop()
	}
	return r, nil
}

// closeShards tears down a partially built fleet on a New failure.
func (r *Router) closeShards() {
	for _, s := range r.shards {
		s.sink.Close()
	}
}

// addShardLocked creates one local engine shard and its decision
// forwarder. Caller holds no locks during New, or r.mu during growth —
// the maps are only touched here.
func (r *Router) addShardLocked(name string) (*shardState, error) {
	eng, err := stream.New(r.cfg.Engine)
	if err != nil {
		return nil, err
	}
	if name == "" {
		name = fmt.Sprintf("shard%d", r.nextID)
		r.nextID++
	}
	if _, dup := r.shards[name]; dup {
		eng.Close()
		return nil, fmt.Errorf("shard: duplicate shard name %q", name)
	}
	s := &shardState{name: name, sink: eng}
	r.shards[s.name] = s
	r.live = append(r.live, s.name)
	r.startForwarder(s)
	return s, nil
}

// addRemoteShardLocked registers one guarded remote worker. The initial
// connection is attempted once; on failure the shard starts down and
// the health loop keeps probing it.
func (r *Router) addRemoteShardLocked(rc RemoteShard, seed int64) error {
	if rc.Addr == "" {
		return fmt.Errorf("shard: remote shard needs an address")
	}
	name := rc.Name
	if name == "" {
		name = fmt.Sprintf("shard%d", r.nextID)
		r.nextID++
	}
	if _, dup := r.shards[name]; dup {
		return fmt.Errorf("shard: duplicate shard name %q", name)
	}
	gcfg := r.cfg.Guard
	gcfg.Seed = seed
	rs := NewRemoteSink(rc.Addr, gcfg.PushTimeout)
	if dec := r.cfg.Engine.Decider; dec != nil && dec.TargetPfa() > 0 {
		// Ship the asymptotic decision layer with every channel open so
		// the worker decides identically — name, target Pfa and the
		// cycle set (per-channel, or the session default) fully specify
		// it. The surface detectors (cfar, fixed) stay the worker's own
		// configuration, as their scalar knobs do not travel on the wire
		// (like geometry, they come from matching worker flags).
		rs.SetDetector(dec.Name(), dec.TargetPfa(), r.cfg.Engine.AlphaCandidates)
	}
	g := newGuard(rs, gcfg)
	s := &shardState{name: name, sink: g, remote: true, addr: rc.Addr, g: g}
	r.shards[name] = s
	if g.probe() == nil {
		r.live = append(r.live, name)
	} else {
		s.down.Store(true)
	}
	r.startForwarder(s)
	return nil
}

// ensureFallbackLocked lazily creates the local fallback shard when the
// live set is empty and the config allows spilling. Caller holds r.mu
// (or no locks during New).
func (r *Router) ensureFallbackLocked() error {
	if len(r.live) > 0 || !r.cfg.FallbackLocal {
		return nil
	}
	if s, ok := r.shards["fallback"]; ok {
		// Already built by an earlier outage; just re-admit it.
		r.live = append(r.live, s.name)
		return nil
	}
	_, err := r.addShardLocked("fallback")
	return err
}

// startForwarder pumps one shard's decision stream onto the merged
// output, shadow-counting each decision for the failover carry.
func (r *Router) startForwarder(s *shardState) {
	r.fwdWG.Add(1)
	go func() {
		defer r.fwdWG.Done()
		for d := range s.sink.Decisions() {
			r.noteDecision(s, d)
		}
	}()
}

// noteDecision tags and forwards one decision, updating the owning
// entry's shadow counters (the carry source for forced failover).
func (r *Router) noteDecision(s *shardState, d stream.Decision) {
	r.mu.RLock()
	e := r.entries[d.Channel]
	r.mu.RUnlock()
	if e != nil && e.owner.Load() == s {
		e.trackSnapshots.Add(1)
		if d.Detected {
			e.trackDetections.Add(1)
		}
	}
	select {
	case r.out <- Decision{Decision: d, Shard: s.name}:
	default:
		r.decisionsDropped.Add(1)
	}
}

// healthLoop heartbeats every remote shard on the configured cadence,
// failing over the channels of a shard whose circuit opens and
// re-homing them back when it recovers.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	t := time.NewTicker(r.cfg.Guard.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.healthDone:
			return
		case <-t.C:
		}
		r.checkRemotes()
	}
}

// checkRemotes runs one health pass: probe each remote, react to state
// transitions, and retry any channels stranded on a down shard.
func (r *Router) checkRemotes() {
	r.mu.RLock()
	remotes := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		if s.remote {
			remotes = append(remotes, s)
		}
	}
	r.mu.RUnlock()
	for _, s := range remotes {
		wasDown := s.down.Load()
		switch s.g.check() {
		case CircuitOpen:
			if !wasDown {
				r.failShard(s)
			}
		case CircuitClosed:
			if wasDown {
				r.reinstateShard(s)
			}
		}
	}
	if r.orphaned() {
		r.rebalanceAll()
	}
}

// orphaned reports whether any channel is stranded on a down shard
// while healthy shards exist to take it.
func (r *Router) orphaned() bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.live) == 0 {
		return false
	}
	for _, e := range r.entries {
		if own := e.owner.Load(); own != nil && own.down.Load() {
			return true
		}
	}
	return false
}

// failShard takes a dead shard out of the ownership set and re-homes
// its channels onto the survivors (or the local fallback), carrying the
// router-side shadow counters since the dead engine cannot be asked.
func (r *Router) failShard(s *shardState) {
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed || s.down.Load() {
		r.mu.Unlock()
		return
	}
	s.down.Store(true)
	for i, n := range r.live {
		if n == s.name {
			r.live = append(r.live[:i], r.live[i+1:]...)
			break
		}
	}
	r.failovers.Add(1)
	r.ensureFallbackLocked() //nolint:errcheck // on failure channels shed with accounting instead
	moves, targets := r.rebalanceLocked()
	r.mu.Unlock()
	for i, e := range moves {
		r.handoff(e, targets[i]) //nolint:errcheck // stranded channels retry on the next health pass
	}
}

// reinstateShard re-admits a recovered shard and rebalances channels
// back onto it. Channels that stayed on the shard through the outage
// were re-opened by the reconnect (fresh windows); their counter carry
// settles lazily through the epoch check on the next push or stats
// read.
func (r *Router) reinstateShard(s *shardState) {
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed || !s.down.Load() {
		r.mu.Unlock()
		return
	}
	s.down.Store(false)
	r.live = append(r.live, s.name)
	moves, targets := r.rebalanceLocked()
	r.mu.Unlock()
	for i, e := range moves {
		r.handoff(e, targets[i]) //nolint:errcheck // retried on the next health pass
	}
}

// rebalanceAll recomputes ownership over the current live set and
// executes the required moves — the health loop's retry path for
// channels a previous failover could not place.
func (r *Router) rebalanceAll() {
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return
	}
	moves, targets := r.rebalanceLocked()
	r.mu.Unlock()
	for i, e := range moves {
		r.handoff(e, targets[i]) //nolint:errcheck // retried on the next health pass
	}
}

// fmix64 is the murmur3 64-bit finalizer. FNV-1a alone is too linear
// for rendezvous scoring — names differing in one trailing digit keep a
// near-constant score offset across ids, so one shard wins every key.
// The finalizer's full avalanche breaks that structure.
func fmix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// owner picks the rendezvous (highest-random-weight) shard for id over
// the live set: the shard maximising hash(shard‖id). Deterministic,
// and minimally disruptive under resizing — a key moves only when its
// maximum enters or leaves the set.
func (r *Router) ownerLocked(id string) *shardState {
	var best *shardState
	var bestScore uint64
	for _, name := range r.live {
		h := fnv.New64a()
		h.Write([]byte(name))
		h.Write([]byte{0})
		h.Write([]byte(id))
		score := fmix64(h.Sum64())
		if best == nil || score > bestScore || (score == bestScore && name > best.name) {
			best, bestScore = r.shards[name], score
		}
	}
	return best
}

// AddChannel registers a channel on its rendezvous owner.
func (r *Router) AddChannel(id string) error {
	return r.AddChannelCandidates(id, nil)
}

// AddChannelCandidates registers a channel on its rendezvous owner with
// an alpha-candidate set that follows the channel across handoffs and
// failovers. A nil set means the shard engines' configured default.
func (r *Router) AddChannelCandidates(id string, alphas []int) error {
	if id == "" {
		return fmt.Errorf("shard: empty channel id")
	}
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	if _, dup := r.entries[id]; dup {
		r.mu.Unlock()
		return fmt.Errorf("shard: channel %q already exists", id)
	}
	own := r.ownerLocked(id)
	if own == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: no healthy shard to own %q", id)
	}
	e := &entry{id: id, alphas: append([]int(nil), alphas...), epoch: own.epoch()}
	e.owner.Store(own)
	r.entries[id] = e
	r.mu.Unlock()
	if err := own.sink.AddChannelCandidates(id, e.alphas); err != nil {
		r.mu.Lock()
		delete(r.entries, id)
		r.mu.Unlock()
		return err
	}
	return nil
}

// Push appends samples to a channel's stream on its current owner.
// Pushes to one channel serialise with each other and with handoffs, so
// a rebalance never interleaves with a half-delivered block. A push
// that fails against a remote owner — after the guard's deadline,
// retries, and circuit breaker have had their say — is shed with
// accounting rather than surfaced, so one dead shard degrades its own
// channels without killing upstream feeder connections.
func (r *Router) Push(id string, samples []complex128) (int, error) {
	r.mu.RLock()
	e := r.entries[id]
	closed := r.closed
	r.mu.RUnlock()
	if closed {
		return 0, ErrClosed
	}
	if e == nil {
		return 0, fmt.Errorf("shard: unknown channel %q", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return 0, fmt.Errorf("shard: channel %q removed", id)
	}
	own := e.owner.Load()
	e.syncEpochLocked(own)
	n, err := own.sink.Push(id, samples)
	if err != nil {
		if own.g != nil {
			// Remote failure: the block is lost to this shard. Account it
			// as shed and keep the caller's ingest path alive; failover
			// re-homes the channel on the next health pass.
			e.syncEpochLocked(own)
			e.shed.Add(int64(len(samples)))
			r.shedSamples.Add(int64(len(samples)))
			return 0, nil
		}
		return n, err
	}
	// A mid-push reconnect restarts the remote engine state; settle the
	// carry before crediting this block to the new incarnation.
	e.syncEpochLocked(own)
	e.trackIn.Add(int64(n))
	return n, nil
}

// handoff moves one channel to a new owner. From a healthy owner it is
// lossless: quiesce and unregister on the old engine (flushing a
// partial window into one final decision) and carry the engine-reported
// counters. From a down owner it is forced: the engine cannot be asked,
// so the router's shadow counters are carried instead (the in-flight
// window restarts — accepted, and accounted, never double-counted) and
// the dead sink just forgets the channel locally.
func (r *Router) handoff(e *entry, to *shardState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return nil
	}
	from := e.owner.Load()
	if from == to {
		return nil
	}
	if from.down.Load() {
		e.syncEpochLocked(from)
		e.bankTrackersLocked()
		if f, ok := from.sink.(forgetter); ok {
			f.Forget(e.id)
		}
	} else {
		cs, err := from.sink.RemoveChannel(e.id, r.cfg.HandoffTimeout)
		if err != nil {
			return fmt.Errorf("shard: handoff %q off %s: %w", e.id, from.name, err)
		}
		e.carryIn += cs.SamplesIn
		e.carryDropped += cs.SamplesDropped
		e.carrySnapshots += cs.Snapshots
		e.carryDetections += cs.Detections
		if cs.Last != nil {
			e.carryLast = cs.Last
		}
		e.resetTrackersLocked()
	}
	if err := to.sink.AddChannelCandidates(e.id, e.alphas); err != nil {
		return fmt.Errorf("shard: handoff %q onto %s: %w", e.id, to.name, err)
	}
	e.epoch = to.epoch()
	e.owner.Store(to)
	e.handoffs.Add(1)
	r.handoffs.Add(1)
	return nil
}

// rebalanceLocked computes the moves a topology change requires.
// r.mu must be held; the returned moves are executed after release.
func (r *Router) rebalanceLocked() (moves []*entry, targets []*shardState) {
	for _, e := range r.entries {
		want := r.ownerLocked(e.id)
		if want != nil && e.owner.Load() != want {
			moves = append(moves, e)
			targets = append(targets, want)
		}
	}
	return moves, targets
}

// AddShards grows the fleet by n local shards and rebalances: only
// channels whose rendezvous maximum is a newcomer move. Returns the new
// shard names.
func (r *Router) AddShards(n int) ([]string, error) {
	if n < 1 {
		return nil, fmt.Errorf("shard: AddShards(%d) must add at least one", n)
	}
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	names := make([]string, 0, n)
	for i := 0; i < n; i++ {
		s, err := r.addShardLocked("")
		if err != nil {
			r.mu.Unlock()
			return names, err
		}
		names = append(names, s.name)
	}
	moves, targets := r.rebalanceLocked()
	r.mu.Unlock()
	for i, e := range moves {
		if err := r.handoff(e, targets[i]); err != nil {
			return names, err
		}
	}
	return names, nil
}

// DrainShard hands every channel off a shard to the survivors, retires
// the shard's final counters into the aggregate, and closes its sink.
// The last healthy shard cannot be drained; a down remote can (its
// stranded channels are force-rehomed, carrying the shadow counters).
func (r *Router) DrainShard(name string) error {
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return ErrClosed
	}
	s := r.shards[name]
	if s == nil {
		r.mu.Unlock()
		return fmt.Errorf("shard: unknown shard %q", name)
	}
	inLive := false
	for _, n := range r.live {
		if n == name {
			inLive = true
			break
		}
	}
	if inLive && len(r.live) == 1 {
		r.mu.Unlock()
		return fmt.Errorf("shard: cannot drain the last shard %q", name)
	}
	// Remove from the ownership set first: rendezvous owners for its
	// channels are recomputed over the survivors.
	if inLive {
		for i, n := range r.live {
			if n == name {
				r.live = append(r.live[:i], r.live[i+1:]...)
				break
			}
		}
	}
	moves, targets := r.rebalanceLocked()
	r.mu.Unlock()
	for i, e := range moves {
		if err := r.handoff(e, targets[i]); err != nil {
			return err
		}
	}
	// The shard is empty now; bank its lifetime counters and retire it.
	final := s.sink.Stats()
	r.mu.Lock()
	r.retiredIn += final.SamplesIn
	r.retiredDropped += final.SamplesDropped
	r.retiredSurfaces += final.Surfaces
	r.retiredDetections += final.Detections
	r.retiredDecDropped += final.DecisionsDropped
	r.retiredFailed += final.WindowsFailed
	r.retiredPruned += final.PrunedCellsSkipped
	if s.g != nil {
		r.retiredRetries += s.g.retries.Load()
		r.retiredDeadline += s.g.deadlineExceeded.Load()
	}
	delete(r.shards, name)
	r.mu.Unlock()
	return s.sink.Close()
}

// RemoveChannel unregisters a channel entirely (quiescing it and
// flushing a partial window, as stream.Engine.RemoveChannel), returning
// its aggregate final stats. Removing a channel stranded on a down
// shard succeeds locally, carrying the shadow counters.
func (r *Router) RemoveChannel(id string) (ChannelStats, error) {
	r.mu.RLock()
	e := r.entries[id]
	r.mu.RUnlock()
	if e == nil {
		return ChannelStats{}, fmt.Errorf("shard: unknown channel %q", id)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return ChannelStats{}, fmt.Errorf("shard: channel %q removed", id)
	}
	own := e.owner.Load()
	var cs stream.ChannelStats
	if own.down.Load() {
		e.syncEpochLocked(own)
		e.bankTrackersLocked()
		if f, ok := own.sink.(forgetter); ok {
			f.Forget(id)
		}
	} else {
		var err error
		cs, err = own.sink.RemoveChannel(id, r.cfg.HandoffTimeout)
		if err != nil {
			return ChannelStats{}, err
		}
	}
	e.removed = true
	r.mu.Lock()
	delete(r.entries, id)
	r.mu.Unlock()
	return e.statsLocked(own, cs), nil
}

// statsLocked merges the current owner's channel stats with the entry's
// carryover. Caller holds e.mu.
func (e *entry) statsLocked(own *shardState, cs stream.ChannelStats) ChannelStats {
	last := cs.Last
	if last == nil {
		last = e.carryLast
	}
	return ChannelStats{
		ID:             e.id,
		Shard:          own.name,
		SamplesIn:      e.carryIn + cs.SamplesIn,
		SamplesDropped: e.carryDropped + cs.SamplesDropped + e.shed.Load(),
		Snapshots:      e.carrySnapshots + cs.Snapshots,
		Detections:     e.carryDetections + cs.Detections,
		Handoffs:       e.handoffs.Load(),
		Last:           last,
		Err:            cs.Err,
	}
}

// Decisions returns the merged decision stream across all shards,
// tagged with the emitting shard. Closed by Close.
func (r *Router) Decisions() <-chan Decision { return r.out }

// Channels returns the registered channel ids (unordered).
func (r *Router) Channels() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for id := range r.entries {
		out = append(out, id)
	}
	return out
}

// ChannelStats returns one channel's aggregate accounting across every
// owner it has had; ok is false for an unknown id. It serialises with
// pushes and handoffs on that channel, so the sums are exact (never
// read mid-move).
func (r *Router) ChannelStats(id string) (ChannelStats, bool) {
	r.mu.RLock()
	e := r.entries[id]
	r.mu.RUnlock()
	if e == nil {
		return ChannelStats{}, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.removed {
		return ChannelStats{}, false
	}
	own := e.owner.Load()
	e.syncEpochLocked(own)
	cs, _ := own.sink.ChannelStats(id)
	return e.statsLocked(own, cs), true
}

// ShardStats returns per-shard accounting: the live fleet in ownership
// order, then any down remotes (sorted by name) so a failed shard stays
// visible while degraded.
func (r *Router) ShardStats() []ShardStats {
	r.mu.RLock()
	names := append([]string(nil), r.live...)
	seen := make(map[string]bool, len(names))
	for _, n := range names {
		seen[n] = true
	}
	var downNames []string
	for n := range r.shards {
		if !seen[n] {
			downNames = append(downNames, n)
		}
	}
	sort.Strings(downNames)
	names = append(names, downNames...)
	shards := make([]*shardState, len(names))
	for i, n := range names {
		shards[i] = r.shards[n]
	}
	counts := make(map[string]int)
	for _, e := range r.entries {
		if own := e.owner.Load(); own != nil {
			counts[own.name]++
		}
	}
	r.mu.RUnlock()
	out := make([]ShardStats, len(shards))
	for i, s := range shards {
		st := ShardStats{
			Name:     s.name,
			Remote:   s.remote,
			Addr:     s.addr,
			State:    "ok",
			Channels: counts[s.name],
			Stats:    s.sink.Stats(),
		}
		if s.g != nil {
			if cs := s.g.State(); cs != CircuitClosed {
				st.State = cs.String()
			}
		}
		out[i] = st
	}
	return out
}

// Stats returns router-wide accounting: live engines plus retired
// shards' banked counters, plus the robustness layer's counters.
func (r *Router) Stats() Stats {
	r.mu.RLock()
	shards := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	st := Stats{
		Shards:             len(r.live),
		Channels:           len(r.entries),
		SamplesIn:          r.retiredIn,
		SamplesDropped:     r.retiredDropped,
		Surfaces:           r.retiredSurfaces,
		Detections:         r.retiredDetections,
		DecisionsDropped:   r.retiredDecDropped + r.decisionsDropped.Load(),
		WindowsFailed:      r.retiredFailed,
		Retries:            r.retiredRetries,
		DeadlineExceeded:   r.retiredDeadline,
		PrunedCellsSkipped: r.retiredPruned,
	}
	r.mu.RUnlock()
	for _, s := range shards {
		es := s.sink.Stats()
		st.SamplesIn += es.SamplesIn
		st.SamplesDropped += es.SamplesDropped
		st.Surfaces += es.Surfaces
		st.Detections += es.Detections
		st.DecisionsDropped += es.DecisionsDropped
		st.WindowsFailed += es.WindowsFailed
		st.PrunedCellsSkipped += es.PrunedCellsSkipped
		if !s.down.Load() {
			st.QueuedSamples += es.QueuedSamples
		}
		if s.g != nil {
			st.Retries += s.g.retries.Load()
			st.DeadlineExceeded += s.g.deadlineExceeded.Load()
			if s.g.State() != CircuitClosed {
				st.OpenCircuits++
			}
		}
	}
	st.Handoffs = r.handoffs.Load()
	st.Failovers = r.failovers.Load()
	st.ShedSamples = r.shedSamples.Load()
	st.Elapsed = time.Since(r.start)
	if sec := st.Elapsed.Seconds(); sec > 0 {
		st.SamplesPerSec = float64(st.SamplesIn) / sec
	}
	return st
}

// OpenCircuits returns the names of remote shards whose circuit is not
// closed — the /healthz degraded report.
func (r *Router) OpenCircuits() []string {
	r.mu.RLock()
	shards := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	r.mu.RUnlock()
	var open []string
	for _, s := range shards {
		if s.g != nil && s.g.State() != CircuitClosed {
			open = append(open, s.name)
		}
	}
	sort.Strings(open)
	return open
}

// Flush drains every live shard's rings and due decisions, or times
// out. Down shards are skipped — their channels have either been
// re-homed or are shedding.
func (r *Router) Flush(timeout time.Duration) error {
	r.mu.RLock()
	shards := make([]*shardState, 0, len(r.live))
	for _, n := range r.live {
		shards = append(shards, r.shards[n])
	}
	r.mu.RUnlock()
	deadline := time.Now().Add(timeout)
	for _, s := range shards {
		left := time.Until(deadline)
		if left <= 0 {
			return fmt.Errorf("shard: flush timed out after %v", timeout)
		}
		if err := s.sink.Flush(left); err != nil {
			return err
		}
	}
	return nil
}

// Close stops the health loop and every shard sink, then closes the
// merged Decisions channel. Idempotent.
func (r *Router) Close() error {
	r.healthStop.Do(func() { close(r.healthDone) })
	r.healthWG.Wait()
	r.topo.Lock()
	defer r.topo.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	shards := make([]*shardState, 0, len(r.shards))
	for _, s := range r.shards {
		shards = append(shards, s)
	}
	r.mu.Unlock()
	var first error
	for _, s := range shards {
		if err := s.sink.Close(); err != nil && first == nil {
			first = err
		}
	}
	r.fwdWG.Wait()
	close(r.out)
	return first
}
