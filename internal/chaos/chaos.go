// Package chaos is the fault-injection harness for the service's
// network robustness tests: net.Conn and net.Listener wrappers that
// inject latency, jitter, byte truncation, mid-stream resets,
// blackholes (accepted but silent), and one-way partitions, all driven
// deterministically from a seed. The shard-router failover tests and
// the cfdserve chaos e2e use it to prove the retry/circuit/failover
// machinery against every failure mode a remote shard link can show.
package chaos

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// pollInterval paces the wait loop of a blocked (blackholed or
// partitioned) direction: short enough that lifting a fault is
// near-immediate at test scale, long enough not to spin.
const pollInterval = 2 * time.Millisecond

// Controller owns one set of fault switches shared by every connection
// it wraps. All switches flip atomically and apply to in-flight
// connections immediately; randomness (jitter) comes from the seed, so
// a failing test replays byte-identically.
type Controller struct {
	mu  sync.Mutex
	rng *rand.Rand

	latency int64 // atomic nanoseconds added to every read and write
	jitter  int64 // atomic nanoseconds of uniform extra delay

	blackhole  atomic.Bool // accepted-but-silent: writes swallowed, reads block
	dropWrites atomic.Bool // one-way partition: this side's writes vanish

	truncateNext atomic.Int64 // >=0: truncate the next write to N bytes, then reset
	resetNext    atomic.Bool  // reset the connection on the next read or write

	conns   map[*Conn]struct{}
	wrapped atomic.Int64
}

// NewController returns a controller whose injected randomness is fully
// determined by seed.
func NewController(seed int64) *Controller {
	c := &Controller{
		rng:   rand.New(rand.NewSource(seed)),
		conns: make(map[*Conn]struct{}),
	}
	c.truncateNext.Store(-1)
	return c
}

// SetLatency adds latency (plus a uniform random extra up to jitter,
// drawn from the controller's seed) to every subsequent read and write.
func (c *Controller) SetLatency(latency, jitter time.Duration) {
	atomic.StoreInt64(&c.latency, int64(latency))
	atomic.StoreInt64(&c.jitter, int64(jitter))
}

// Blackhole turns the link into an accepted-but-silent peer: writes
// report success and vanish, reads block until the fault lifts or the
// connection closes. The TCP layer stays up, so only deadline or
// heartbeat machinery can notice.
func (c *Controller) Blackhole(on bool) { c.blackhole.Store(on) }

// DropWrites installs a one-way partition: this side's writes report
// success and vanish while the peer's traffic still arrives.
func (c *Controller) DropWrites(on bool) { c.dropWrites.Store(on) }

// TruncateNextWrite arms a byte-truncation fault: the next write sends
// only its first n bytes to the peer and then resets the connection —
// a mid-frame cut that exercises partial-frame handling.
func (c *Controller) TruncateNextWrite(n int) { c.truncateNext.Store(int64(n)) }

// ResetNext arms a mid-stream reset: the next read or write on any
// wrapped connection fails and tears the connection down.
func (c *Controller) ResetNext() { c.resetNext.Store(true) }

// Cut closes every live wrapped connection immediately — the abrupt
// peer death (process kill, cable pull) failure mode.
func (c *Controller) Cut() {
	c.mu.Lock()
	conns := make([]*Conn, 0, len(c.conns))
	for cn := range c.conns {
		conns = append(conns, cn)
	}
	c.mu.Unlock()
	for _, cn := range conns {
		cn.Close()
	}
}

// Wrapped returns how many connections the controller has wrapped over
// its lifetime (live or not) — lets a test wait for a redial.
func (c *Controller) Wrapped() int64 { return c.wrapped.Load() }

// delay sleeps the configured latency plus seeded jitter.
func (c *Controller) delay() {
	lat := time.Duration(atomic.LoadInt64(&c.latency))
	jit := time.Duration(atomic.LoadInt64(&c.jitter))
	if jit > 0 {
		c.mu.Lock()
		lat += time.Duration(c.rng.Int63n(int64(jit)))
		c.mu.Unlock()
	}
	if lat > 0 {
		time.Sleep(lat)
	}
}

// Wrap returns conn with the controller's faults injected on both
// directions.
func (c *Controller) Wrap(conn net.Conn) *Conn {
	cn := &Conn{Conn: conn, ctl: c, closed: make(chan struct{})}
	c.mu.Lock()
	c.conns[cn] = struct{}{}
	c.mu.Unlock()
	c.wrapped.Add(1)
	return cn
}

// forget drops a closed connection from the live set.
func (c *Controller) forget(cn *Conn) {
	c.mu.Lock()
	delete(c.conns, cn)
	c.mu.Unlock()
}

// Conn is one fault-injected connection. It passes deadlines and
// addresses through to the wrapped conn.
type Conn struct {
	net.Conn
	ctl       *Controller
	closed    chan struct{}
	closeOnce sync.Once
}

// errReset is the injected mid-stream reset failure.
var errReset = fmt.Errorf("chaos: connection reset")

// reset tears the connection down and reports the injected failure.
func (cn *Conn) reset() (int, error) {
	cn.Close()
	return 0, errReset
}

// Read applies latency and the read-direction faults, then reads from
// the wrapped conn.
func (cn *Conn) Read(p []byte) (int, error) {
	cn.ctl.delay()
	if cn.ctl.resetNext.CompareAndSwap(true, false) {
		return cn.reset()
	}
	// While blackholed the peer has gone silent: block until the fault
	// lifts or the connection dies. The underlying
	// Read is not issued, so bytes sent during the fault are delivered
	// (late) once it lifts — exactly a stalled link, not a lossy one.
	for cn.ctl.blackhole.Load() {
		select {
		case <-cn.closed:
			return 0, net.ErrClosed
		case <-time.After(pollInterval):
		}
	}
	return cn.Conn.Read(p)
}

// Write applies latency and the write-direction faults, then writes to
// the wrapped conn.
func (cn *Conn) Write(p []byte) (int, error) {
	cn.ctl.delay()
	if cn.ctl.resetNext.CompareAndSwap(true, false) {
		return cn.reset()
	}
	if n := cn.ctl.truncateNext.Swap(-1); n >= 0 {
		if int(n) > len(p) {
			n = int64(len(p))
		}
		cn.Conn.Write(p[:n]) //nolint:errcheck // the truncation itself is the injected failure
		_, err := cn.reset()
		return int(n), err
	}
	if cn.ctl.blackhole.Load() || cn.ctl.dropWrites.Load() {
		// Swallowed: report success so the sender believes the peer got it.
		return len(p), nil
	}
	return cn.Conn.Write(p)
}

// Close closes the wrapped connection and releases any blocked reads.
func (cn *Conn) Close() error {
	var err error
	cn.closeOnce.Do(func() {
		close(cn.closed)
		err = cn.Conn.Close()
		cn.ctl.forget(cn)
	})
	return err
}

// Listener wraps a net.Listener so every accepted connection carries
// the controller's faults — the server-side harness for
// accepted-but-silent and mid-stream failure tests.
type Listener struct {
	net.Listener
	ctl *Controller
}

// NewListener wraps l with the controller's fault injection.
func NewListener(l net.Listener, ctl *Controller) *Listener {
	return &Listener{Listener: l, ctl: ctl}
}

// Accept accepts from the wrapped listener and injects faults into the
// returned connection.
func (l *Listener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.ctl.Wrap(conn), nil
}
