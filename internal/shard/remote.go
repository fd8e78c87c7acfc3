package shard

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// ErrNotConnected is returned by remote-sink operations while the sink
// has no live connection to its worker.
var ErrNotConnected = fmt.Errorf("shard: remote sink not connected")

// DefaultDialTimeout bounds one connection attempt to a remote worker.
const DefaultDialTimeout = 5 * time.Second

// remoteDecisionBuffer is the capacity of a remote sink's persistent
// decision stream, which must absorb the burst a reconnect replays.
const remoteDecisionBuffer = 1024

// RemoteSink drives a shard living in another cfdserve process (worker
// mode, `-shard-of`) over the wire protocol: channel opens and sample
// pushes travel as data-plane frames in lossless cf64_le, the remaining
// engine surface as worker-mode control frames, and the worker's
// decisions stream back over a subscription. The sink survives
// reconnects — Redial replaces the connection and re-opens every wanted
// channel, and Decisions stays the same channel across connections —
// so the router's robustness layer (guard) can heal a link failure
// without disturbing the routing state above it.
type RemoteSink struct {
	addr        string
	dialTimeout time.Duration
	pushTimeout time.Duration

	// detector and targetPfa, when set via SetDetector, ride in every
	// channel-open frame so the remote worker runs the same decision
	// layer the local engines do ("" leaves the worker's default).
	// defaultAlphas is the session-wide candidate set that rides along
	// for channels without a per-channel override — the asymptotic
	// detectors are built from the cycle set, so it must travel with
	// them.
	detector      string
	targetPfa     float64
	defaultAlphas []int

	mu      sync.Mutex
	cli     *wire.Client
	streams map[string]*wire.ChannelStream
	// want maps each registered channel to its alpha-candidate set (nil =
	// unpruned), so reconnects re-open channels with the same pruning.
	want   map[string][]int
	closed bool
	// lastStats is the latest raw engine reading of the current worker
	// incarnation, served while the link is down so aggregate accounting
	// does not dip during an outage. base accumulates the counters of
	// previous incarnations: a worker process restart resets its engine
	// to zero, detected as a counter regression between fetches, and the
	// dead incarnation's last reading is banked so shard-level aggregates
	// never move backwards either.
	lastStats stream.Stats
	base      stream.Stats

	out        chan stream.Decision
	outDropped atomic.Int64
	pumps      sync.WaitGroup
	dials      atomic.Int64
}

// NewRemoteSink returns a sink for the worker at addr without dialing;
// the first Redial (the guard's initial health probe, or an explicit
// call) establishes the connection. pushTimeout bounds each frame write
// (0 = none).
func NewRemoteSink(addr string, pushTimeout time.Duration) *RemoteSink {
	return &RemoteSink{
		addr:        addr,
		dialTimeout: DefaultDialTimeout,
		pushTimeout: pushTimeout,
		streams:     make(map[string]*wire.ChannelStream),
		want:        make(map[string][]int),
		out:         make(chan stream.Decision, remoteDecisionBuffer),
	}
}

// SetDetector selects the decision layer every subsequently opened
// channel asks the remote worker to run (a detect registry name plus
// the target false-alarm probability for the asymptotic detectors).
// defaultAlphas is the session candidate set shipped with channels that
// have no per-channel override, so the worker builds its decider from
// the same cycle set the local engines default to. Call before
// registering channels; "" keeps the worker's default.
func (rs *RemoteSink) SetDetector(name string, targetPfa float64, defaultAlphas []int) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	rs.detector = name
	rs.targetPfa = targetPfa
	rs.defaultAlphas = append([]int(nil), defaultAlphas...)
}

// openMeta assembles the open-frame metadata for one channel under
// rs.mu.
func (rs *RemoteSink) openMeta(id string, alphas []int) wire.Meta {
	if alphas == nil {
		alphas = rs.defaultAlphas
	}
	return wire.Meta{
		ID:              id,
		Format:          wire.FormatCF64,
		AlphaCandidates: alphas,
		Detector:        rs.detector,
		TargetPfa:       rs.targetPfa,
	}
}

// Addr returns the worker's dial address.
func (rs *RemoteSink) Addr() string { return rs.addr }

// Connected reports whether the sink currently holds a live connection.
func (rs *RemoteSink) Connected() bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.cli != nil && rs.cli.Err() == nil
}

// Dials counts connection attempts that completed the preamble —
// lets a test wait for a reconnect.
func (rs *RemoteSink) Dials() int64 { return rs.dials.Load() }

// Redial replaces the sink's connection: tears down the old one, dials
// the worker, subscribes to its decision stream, and re-opens every
// wanted channel into fresh remote state (the worker's remove-on-close
// hygiene cleared the old registrations when the previous connection
// died — an accepted window restart, with counters carried by the
// router).
func (rs *RemoteSink) Redial() error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.closed {
		return fmt.Errorf("shard: remote sink closed")
	}
	if rs.cli != nil {
		rs.cli.Close()
		rs.cli = nil
	}
	rs.streams = make(map[string]*wire.ChannelStream)
	conn, err := net.DialTimeout("tcp", rs.addr, rs.dialTimeout)
	if err != nil {
		return fmt.Errorf("shard: dial %s: %w", rs.addr, err)
	}
	cli, err := wire.NewClient(conn)
	if err != nil {
		return fmt.Errorf("shard: connect %s: %w", rs.addr, err)
	}
	// Bound every reconnect round-trip by the push deadline: a wedged
	// (rather than dead) worker must fail a redial quickly so the guard
	// can open the circuit instead of stalling the health loop.
	cli.SetWriteTimeout(rs.pushTimeout)
	cli.SetAckTimeout(rs.pushTimeout)
	if err := cli.Subscribe(rs.pushTimeout); err != nil {
		cli.Close()
		return fmt.Errorf("shard: subscribe %s: %w", rs.addr, err)
	}
	for id, alphas := range rs.want {
		cs, err := cli.Open(rs.openMeta(id, alphas))
		if err != nil {
			cli.Close()
			return fmt.Errorf("shard: reopen %q on %s: %w", id, rs.addr, err)
		}
		rs.streams[id] = cs
	}
	rs.cli = cli
	rs.dials.Add(1)
	rs.pumps.Add(1)
	go rs.pump(cli)
	return nil
}

// pump forwards one connection's subscribed decisions onto the sink's
// persistent stream; it exits when that connection dies.
func (rs *RemoteSink) pump(cli *wire.Client) {
	defer rs.pumps.Done()
	for d := range cli.Decisions() {
		select {
		case rs.out <- d:
		default:
			rs.outDropped.Add(1)
		}
	}
}

// client returns the live connection or ErrNotConnected.
func (rs *RemoteSink) client() (*wire.Client, error) {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.cli == nil {
		return nil, ErrNotConnected
	}
	return rs.cli, nil
}

// Ping probes the worker's liveness over the current connection.
func (rs *RemoteSink) Ping(timeout time.Duration) error {
	cli, err := rs.client()
	if err != nil {
		return err
	}
	return cli.Ping(timeout)
}

// AddChannel registers a channel on the worker and records it as
// wanted, so reconnects re-open it.
func (rs *RemoteSink) AddChannel(id string) error {
	return rs.AddChannelCandidates(id, nil)
}

// AddChannelCandidates registers a channel restricted to the given
// alpha-candidate set. The set travels in the wire open frame — the
// worker's engine prunes server-side — and is remembered so reconnects
// re-open the channel with the same pruning.
func (rs *RemoteSink) AddChannelCandidates(id string, alphas []int) error {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if rs.cli == nil {
		return ErrNotConnected
	}
	if _, dup := rs.want[id]; dup {
		return fmt.Errorf("shard: channel %q already exists on %s", id, rs.addr)
	}
	cs, err := rs.cli.Open(rs.openMeta(id, alphas))
	if err != nil {
		return err
	}
	rs.want[id] = alphas
	rs.streams[id] = cs
	return nil
}

// Push streams one block to the worker, lossless cf64_le on the wire.
func (rs *RemoteSink) Push(id string, samples []complex128) (int, error) {
	rs.mu.Lock()
	cs := rs.streams[id]
	rs.mu.Unlock()
	if cs == nil {
		if !rs.wanted(id) {
			return 0, fmt.Errorf("shard: unknown channel %q on %s", id, rs.addr)
		}
		return 0, ErrNotConnected
	}
	if err := cs.Send(samples); err != nil {
		return 0, err
	}
	return len(samples), nil
}

// wanted reports whether id is registered on the sink.
func (rs *RemoteSink) wanted(id string) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	_, ok := rs.want[id]
	return ok
}

// RemoveChannel quiesces and unregisters a channel on the worker,
// returning its final accounting, and drops it from the wanted set.
func (rs *RemoteSink) RemoveChannel(id string, timeout time.Duration) (stream.ChannelStats, error) {
	cli, err := rs.client()
	if err != nil {
		return stream.ChannelStats{}, err
	}
	cs, err := cli.RemoveChannel(id, timeout)
	if err != nil {
		return stream.ChannelStats{}, err
	}
	rs.Forget(id)
	return cs, nil
}

// Forget drops a channel's local registration without a remote
// round-trip — the forced-failover path, where the peer holding the
// state is already dead and a reconnect must not re-open the channel.
func (rs *RemoteSink) Forget(id string) {
	rs.mu.Lock()
	delete(rs.want, id)
	delete(rs.streams, id)
	rs.mu.Unlock()
}

// ChannelStats returns one channel's accounting on the worker; ok is
// false for an unknown id or a dead link.
func (rs *RemoteSink) ChannelStats(id string) (stream.ChannelStats, bool) {
	cli, err := rs.client()
	if err != nil {
		return stream.ChannelStats{}, false
	}
	cs, ok, err := cli.EngineChannelStats(id, 0)
	if err != nil {
		return stream.ChannelStats{}, false
	}
	return cs, ok
}

// Stats returns the worker's engine accounting, summed across worker
// incarnations; while the link is down it serves the last snapshot
// fetched, so aggregates do not dip during an outage.
func (rs *RemoteSink) Stats() stream.Stats {
	cli, err := rs.client()
	if err == nil {
		if st, serr := cli.EngineStats(rs.pushTimeout); serr == nil {
			rs.mu.Lock()
			if st.SamplesIn < rs.lastStats.SamplesIn || st.Surfaces < rs.lastStats.Surfaces {
				// Counter regression: the worker process restarted and its
				// engine began from zero. Bank the dead incarnation's last
				// reading. (A restart that outruns the old counters before
				// the first fetch is indistinguishable and not banked.)
				rs.base = sumStats(rs.base, rs.lastStats)
			}
			rs.lastStats = st
			out := sumStats(rs.base, st)
			rs.mu.Unlock()
			return out
		}
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return sumStats(rs.base, rs.lastStats)
}

// sumStats adds base's lifetime counters onto cur, keeping cur's
// momentary fields (Channels, QueuedSamples, rates) as they are.
func sumStats(base, cur stream.Stats) stream.Stats {
	cur.SamplesIn += base.SamplesIn
	cur.SamplesDropped += base.SamplesDropped
	cur.Surfaces += base.Surfaces
	cur.Detections += base.Detections
	cur.DecisionsDropped += base.DecisionsDropped
	cur.WindowsFailed += base.WindowsFailed
	cur.PrunedCellsSkipped += base.PrunedCellsSkipped
	return cur
}

// Flush asks the worker to drain its rings and make due decisions.
func (rs *RemoteSink) Flush(timeout time.Duration) error {
	cli, err := rs.client()
	if err != nil {
		return err
	}
	return cli.Flush(timeout)
}

// Decisions is the sink's persistent decision stream: the same channel
// across reconnects, closed only by Close. Decisions overflowing its
// buffer are dropped and counted.
func (rs *RemoteSink) Decisions() <-chan stream.Decision { return rs.out }

// DecisionsDropped counts decisions dropped off the persistent stream's
// buffer.
func (rs *RemoteSink) DecisionsDropped() int64 { return rs.outDropped.Load() }

// Close tears the connection down and closes the decision stream.
// Idempotent.
func (rs *RemoteSink) Close() error {
	rs.mu.Lock()
	if rs.closed {
		rs.mu.Unlock()
		return nil
	}
	rs.closed = true
	cli := rs.cli
	rs.cli = nil
	rs.mu.Unlock()
	if cli != nil {
		cli.Close()
	}
	rs.pumps.Wait()
	close(rs.out)
	return nil
}
