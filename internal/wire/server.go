package wire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Sink is where the server delivers ingested streams — implemented by
// the shard router (and by the public Monitor facade).
type Sink interface {
	// OpenChannel registers a channel before its first samples; an error
	// rejects the client's open frame (duplicate id, channel limit, …).
	OpenChannel(meta Meta) error
	// Push appends decoded samples to the channel's stream in arrival
	// order. It may block (engine backpressure) — the server stops
	// reading that connection while it does, which is the protocol's
	// flow control.
	Push(id string, samples []complex128) (int, error)
}

// DefaultIdleTimeout is how long an accepted connection may go without
// delivering a complete frame before the server drops it. Combined with
// TCP keepalive it keeps a half-open or silent peer from pinning a
// serve goroutine forever.
const DefaultIdleTimeout = 5 * time.Minute

// DefaultWriteTimeout bounds one outgoing frame write on an accepted
// connection.
const DefaultWriteTimeout = 30 * time.Second

// DefaultKeepAlivePeriod is the TCP keepalive probe interval set on
// accepted connections.
const DefaultKeepAlivePeriod = 30 * time.Second

// ServerConfig configures a Server.
type ServerConfig struct {
	// Sink receives every opened channel and ingested block. Required.
	Sink Sink
	// Engine, when set, runs the server in worker mode: control frames
	// (remove/flush/stats/chanstats) are answered against it and
	// subscribed connections receive its decision stream — the surface a
	// shard router's RemoteSink drives. Nil servers reject control
	// frames.
	Engine RemoteEngine
	// RemoveOnClose, in worker mode, unregisters a connection's channels
	// from the Engine (flushing partial windows) when the connection
	// closes — so a router reconnecting after a link failure re-opens
	// its channels into fresh state instead of colliding with stale
	// registrations. Requires Engine.
	RemoveOnClose bool
	// QuotaSamplesPerSec, when positive, enforces a per-connection
	// token-bucket ingest quota: data frames beyond the rate are shed
	// whole before reaching the Sink and counted in the metrics.
	QuotaSamplesPerSec float64
	// QuotaBurst is the bucket depth in samples (default one second of
	// quota): how far a client may exceed the rate transiently.
	QuotaBurst float64
	// MaxFrameBytes bounds one frame's length field (default
	// DefaultMaxFrameBytes).
	MaxFrameBytes int
	// MaxChannelsPerConn bounds opens per connection (default 1024).
	MaxChannelsPerConn int
	// IdleTimeout is the per-frame read deadline on accepted
	// connections (default DefaultIdleTimeout; negative disables). A
	// peer that goes silent longer than this is dropped.
	IdleTimeout time.Duration
	// WriteTimeout bounds one outgoing frame write (default
	// DefaultWriteTimeout; negative disables), so a peer that stops
	// reading cannot wedge the server's responses.
	WriteTimeout time.Duration
	// KeepAlivePeriod is the TCP keepalive probe interval on accepted
	// connections (default DefaultKeepAlivePeriod; negative disables),
	// detecting dead peers below the protocol.
	KeepAlivePeriod time.Duration
	// Logf, when set, receives connection-level diagnostics.
	Logf func(format string, args ...any)
}

// withDefaults fills the zero fields.
func (c ServerConfig) withDefaults() ServerConfig {
	if c.MaxFrameBytes == 0 {
		c.MaxFrameBytes = DefaultMaxFrameBytes
	}
	if c.MaxChannelsPerConn == 0 {
		c.MaxChannelsPerConn = 1024
	}
	if c.QuotaBurst == 0 {
		c.QuotaBurst = c.QuotaSamplesPerSec
	}
	if c.IdleTimeout == 0 {
		c.IdleTimeout = DefaultIdleTimeout
	}
	if c.WriteTimeout == 0 {
		c.WriteTimeout = DefaultWriteTimeout
	}
	if c.KeepAlivePeriod == 0 {
		c.KeepAlivePeriod = DefaultKeepAlivePeriod
	}
	return c
}

// ServerMetrics is the server's ingest accounting, all fields safe for
// concurrent reads while serving.
type ServerMetrics struct {
	// ConnectionsTotal counts accepted connections; ConnectionsActive
	// the momentarily open subset.
	ConnectionsTotal, ConnectionsActive atomic.Int64
	// ChannelsOpened counts accepted open frames; OpensRejected the
	// refused ones (duplicate id, draining, limits).
	ChannelsOpened, OpensRejected atomic.Int64
	// FramesIn and BytesIn count everything successfully read.
	FramesIn, BytesIn atomic.Int64
	// SamplesIn counts samples delivered to the sink; SamplesShed the
	// samples discarded by the quota; ShedFrames the data frames those
	// sheds came from.
	SamplesIn, SamplesShed, ShedFrames atomic.Int64
	// ProtocolErrors counts connections dropped for malformed input.
	ProtocolErrors atomic.Int64
}

// Server accepts wire-protocol connections and feeds a Sink.
type Server struct {
	cfg ServerConfig

	ln       net.Listener
	mu       sync.Mutex
	conns    map[net.Conn]struct{}
	subs     map[*connWriter]struct{}
	draining atomic.Bool
	closed   bool
	done     chan struct{}
	wg       sync.WaitGroup

	// Metrics is the server's ingest accounting.
	Metrics ServerMetrics
}

// NewServer validates the configuration and returns an idle server;
// Listen or Serve starts it. In worker mode (cfg.Engine set) the
// decision forwarder starts immediately and runs until the engine's
// decision stream closes or the server is closed.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Sink == nil {
		return nil, fmt.Errorf("wire: ServerConfig.Sink is required")
	}
	if cfg.RemoveOnClose && cfg.Engine == nil {
		return nil, fmt.Errorf("wire: ServerConfig.RemoveOnClose requires Engine")
	}
	s := &Server{
		cfg:   cfg.withDefaults(),
		conns: make(map[net.Conn]struct{}),
		subs:  make(map[*connWriter]struct{}),
		done:  make(chan struct{}),
	}
	if s.cfg.Engine != nil {
		go s.forwardDecisions()
	}
	return s, nil
}

// forwardDecisions drains the worker engine's decision stream and
// broadcasts each decision to every subscribed connection. It is not on
// the server WaitGroup: it exits when the engine's stream closes — the
// engine's lifetime is the caller's, not the server's. Once the server
// shuts down it drains without forwarding, so a Block-mode engine's
// workers and the remove-on-close flushes never wait on a server that
// is gone.
func (s *Server) forwardDecisions() {
	var buf []byte
	for {
		select {
		case d, ok := <-s.cfg.Engine.Decisions():
			if !ok {
				return
			}
			buf = appendDecision(buf[:0], d)
			s.mu.Lock()
			subs := make([]*connWriter, 0, len(s.subs))
			for cw := range s.subs {
				subs = append(subs, cw)
			}
			s.mu.Unlock()
			for _, cw := range subs {
				if err := cw.write(frameDecision, buf); err != nil {
					// The connection is dying; its serve loop will clean
					// up. Stop wasting writes on it now.
					s.unsubscribe(cw)
				}
			}
		case <-s.done:
			for range s.cfg.Engine.Decisions() {
			}
			return
		}
	}
}

// unsubscribe removes a connection from the decision broadcast set.
func (s *Server) unsubscribe(cw *connWriter) {
	s.mu.Lock()
	delete(s.subs, cw)
	s.mu.Unlock()
}

// Listen binds addr and serves in the background until Close.
func (s *Server) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s.Serve(ln)
	return ln.Addr(), nil
}

// Serve adopts an already-bound listener — e.g. one wrapped by a
// fault-injection layer — and serves it in the background until Close.
func (s *Server) Serve(ln net.Listener) {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(ln)
	}()
}

// acceptLoop admits connections until the listener closes.
func (s *Server) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed (Drain/Close)
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.Metrics.ConnectionsTotal.Add(1)
		s.Metrics.ConnectionsActive.Add(1)
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
			s.Metrics.ConnectionsActive.Add(-1)
		}()
	}
}

// logf forwards to the configured logger, if any.
func (s *Server) logf(format string, args ...any) {
	if s.cfg.Logf != nil {
		s.cfg.Logf(format, args...)
	}
}

// connState is the per-connection protocol state.
type connState struct {
	channels map[uint16]Meta
	bucket   *bucket
	scratch  []complex128
}

// connWriter serialises outgoing frames on one connection under a write
// deadline. The serve loop's responses and the decision forwarder share
// it, so their frames interleave whole.
type connWriter struct {
	mu      sync.Mutex
	conn    net.Conn
	bw      *bufio.Writer
	timeout time.Duration
}

// write emits one frame, bounded by the write timeout.
func (cw *connWriter) write(typ byte, payload []byte) error {
	cw.mu.Lock()
	defer cw.mu.Unlock()
	if cw.timeout > 0 {
		cw.conn.SetWriteDeadline(time.Now().Add(cw.timeout)) //nolint:errcheck // write below surfaces the failure
	}
	return writeFrame(cw.bw, typ, payload)
}

// configureConn applies the keepalive policy to an accepted TCP
// connection, detecting dead peers below the protocol.
func (s *Server) configureConn(conn net.Conn) {
	tc, ok := conn.(*net.TCPConn)
	if !ok || s.cfg.KeepAlivePeriod < 0 {
		return
	}
	tc.SetKeepAlive(true)                        //nolint:errcheck // best-effort hardening
	tc.SetKeepAlivePeriod(s.cfg.KeepAlivePeriod) //nolint:errcheck // best-effort hardening
}

// serveConn runs one connection's read-decode-route loop. Responses go
// through a shared connWriter so the decision forwarder can interleave.
func (s *Server) serveConn(conn net.Conn) {
	defer conn.Close()
	s.configureConn(conn)
	br := bufio.NewReaderSize(conn, 64<<10)
	cw := &connWriter{conn: conn, bw: bufio.NewWriter(conn), timeout: s.cfg.WriteTimeout}
	defer s.unsubscribe(cw)
	st := &connState{channels: make(map[uint16]Meta)}
	if s.cfg.Engine != nil && s.cfg.RemoveOnClose {
		// Worker-mode hygiene: when the router's connection dies its
		// channels leave the engine too (flushing partial windows), so a
		// reconnect — or a failover to another shard — starts from fresh
		// state instead of colliding with stale registrations.
		defer func() {
			for _, meta := range st.channels {
				if _, err := s.cfg.Engine.RemoveChannel(meta.ID, maxRemoveTimeout); err != nil {
					s.logf("wire: %s: remove-on-close %q: %v", conn.RemoteAddr(), meta.ID, err)
				}
			}
		}()
	}
	if s.cfg.IdleTimeout > 0 {
		conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //nolint:errcheck // read below surfaces the failure
	}
	if err := readPreamble(br); err != nil {
		s.Metrics.ProtocolErrors.Add(1)
		s.logf("wire: %s: %v", conn.RemoteAddr(), err)
		return
	}
	if s.cfg.QuotaSamplesPerSec > 0 {
		st.bucket = newBucket(s.cfg.QuotaSamplesPerSec, s.cfg.QuotaBurst)
	}
	var buf []byte
	for {
		if s.cfg.IdleTimeout > 0 {
			conn.SetReadDeadline(time.Now().Add(s.cfg.IdleTimeout)) //nolint:errcheck // read below surfaces the failure
		}
		typ, p, next, err := readFrame(br, buf, s.cfg.MaxFrameBytes)
		if err != nil {
			if !errors.Is(err, net.ErrClosed) && !errors.Is(err, io.EOF) {
				s.logf("wire: %s: %v", conn.RemoteAddr(), err)
			}
			return
		}
		buf = next
		s.Metrics.FramesIn.Add(1)
		s.Metrics.BytesIn.Add(int64(len(p) + 5))
		if err := s.handleFrame(cw, st, typ, p); err != nil {
			s.Metrics.ProtocolErrors.Add(1)
			s.logf("wire: %s: %v", conn.RemoteAddr(), err)
			s.writeError(cw, err)
			return
		}
	}
}

// writeError best-effort sends a fatal error frame before the
// connection closes.
func (s *Server) writeError(cw *connWriter, err error) {
	msg := err.Error()
	if len(msg) > 1024 {
		msg = msg[:1024]
	}
	p := binary.BigEndian.AppendUint16(nil, uint16(len(msg)))
	p = append(p, msg...)
	_ = cw.write(frameError, p) //nolint:errcheck // connection is going away
}

// writeResult sends one control-frame response: ok with a
// request-specific payload, or an error message.
func (cw *connWriter) writeResult(req uint16, err error, payload func(dst []byte) []byte) error {
	p := binary.BigEndian.AppendUint16(nil, req)
	if err != nil {
		p = append(p, 1)
		msg := err.Error()
		if len(msg) > 1024 {
			msg = msg[:1024]
		}
		p = append(p, msg...)
	} else {
		p = append(p, resultOK)
		if payload != nil {
			p = payload(p)
		}
	}
	return cw.write(frameResult, p)
}

// handleFrame routes one client frame; a non-nil error is fatal to the
// connection.
func (s *Server) handleFrame(cw *connWriter, st *connState, typ byte, p []byte) error {
	switch typ {
	case frameRemove, frameFlush, frameStats, frameChanStats, frameSubscribe:
		if s.cfg.Engine == nil {
			return fmt.Errorf("wire: control frame %d on a non-worker server", typ)
		}
		return s.handleControl(cw, st, typ, p)

	case framePing:
		if len(p) != 2 {
			return fmt.Errorf("wire: short ping frame (%d bytes)", len(p))
		}
		return cw.writeResult(binary.BigEndian.Uint16(p), nil, nil)

	case frameOpen:
		ref, meta, err := parseMeta(p)
		if err != nil {
			return err
		}
		if _, dup := st.channels[ref]; dup {
			return fmt.Errorf("wire: ref %d already open on this connection", ref)
		}
		status, msg := byte(ackOK), ""
		switch {
		case s.draining.Load():
			status, msg = 1, "server draining: not accepting new channels"
		case len(st.channels) >= s.cfg.MaxChannelsPerConn:
			status, msg = 1, fmt.Sprintf("channel limit %d per connection", s.cfg.MaxChannelsPerConn)
		default:
			if err := s.cfg.Sink.OpenChannel(meta); err != nil {
				status, msg = 1, err.Error()
			}
		}
		if status == ackOK {
			st.channels[ref] = meta
			s.Metrics.ChannelsOpened.Add(1)
		} else {
			s.Metrics.OpensRejected.Add(1)
		}
		ack := binary.BigEndian.AppendUint16(nil, ref)
		ack = append(ack, status)
		ack = binary.BigEndian.AppendUint16(ack, uint16(len(msg)))
		ack = append(ack, msg...)
		return cw.write(frameAck, ack)

	case frameData:
		if len(p) < 6 {
			return fmt.Errorf("wire: short data frame (%d bytes)", len(p))
		}
		ref := binary.BigEndian.Uint16(p)
		count := int(binary.BigEndian.Uint32(p[2:]))
		meta, ok := st.channels[ref]
		if !ok {
			return fmt.Errorf("wire: data for unopened ref %d", ref)
		}
		if st.bucket != nil && !st.bucket.take(float64(count), time.Now()) {
			// Load shed: over-quota frames are discarded whole before
			// decode, counted, and reported so the client can adapt.
			s.Metrics.SamplesShed.Add(int64(count))
			s.Metrics.ShedFrames.Add(1)
			shed := binary.BigEndian.AppendUint16(nil, ref)
			shed = binary.BigEndian.AppendUint64(shed, uint64(count))
			return cw.write(frameShed, shed)
		}
		var err error
		st.scratch, err = decodeSamples(st.scratch[:0], meta.Format, p[6:], count)
		if err != nil {
			return err
		}
		if _, err := s.cfg.Sink.Push(meta.ID, st.scratch); err != nil {
			return fmt.Errorf("wire: push %q: %w", meta.ID, err)
		}
		s.Metrics.SamplesIn.Add(int64(count))
		return nil

	case frameClose:
		if len(p) != 2 {
			return fmt.Errorf("wire: short close frame (%d bytes)", len(p))
		}
		ref := binary.BigEndian.Uint16(p)
		if _, ok := st.channels[ref]; !ok {
			return fmt.Errorf("wire: close for unopened ref %d", ref)
		}
		delete(st.channels, ref)
		return nil

	default:
		return fmt.Errorf("wire: unknown frame type %d", typ)
	}
}

// handleControl answers one worker-mode control request. Request
// failures are reported in the result frame, not fatal to the
// connection; only malformed payloads are.
func (s *Server) handleControl(cw *connWriter, st *connState, typ byte, p []byte) error {
	r := &byteReader{p: p}
	req := r.u16()
	switch typ {
	case frameRemove:
		timeout := time.Duration(r.u32()) * time.Millisecond
		id := r.str()
		if r.err != nil {
			return fmt.Errorf("wire: malformed remove frame: %w", r.err)
		}
		if timeout <= 0 || timeout > maxRemoveTimeout {
			timeout = maxRemoveTimeout
		}
		cs, err := s.cfg.Engine.RemoveChannel(id, timeout)
		if err == nil {
			// Drop the connection-local refs pointing at the channel so a
			// remove-on-close sweep does not remove it twice.
			for ref, meta := range st.channels {
				if meta.ID == id {
					delete(st.channels, ref)
				}
			}
		}
		return cw.writeResult(req, err, func(dst []byte) []byte {
			return appendChannelStats(dst, cs)
		})

	case frameFlush:
		timeout := time.Duration(r.u32()) * time.Millisecond
		if r.err != nil {
			return fmt.Errorf("wire: malformed flush frame: %w", r.err)
		}
		if timeout <= 0 || timeout > maxFlushTimeout {
			timeout = maxFlushTimeout
		}
		return cw.writeResult(req, s.cfg.Engine.Flush(timeout), nil)

	case frameStats:
		if r.err != nil {
			return fmt.Errorf("wire: malformed stats frame: %w", r.err)
		}
		st := s.cfg.Engine.Stats()
		return cw.writeResult(req, nil, func(dst []byte) []byte {
			return appendStats(dst, st)
		})

	case frameChanStats:
		id := r.str()
		if r.err != nil {
			return fmt.Errorf("wire: malformed chanstats frame: %w", r.err)
		}
		cs, ok := s.cfg.Engine.ChannelStats(id)
		return cw.writeResult(req, nil, func(dst []byte) []byte {
			if !ok {
				return append(dst, 0)
			}
			dst = append(dst, 1)
			return appendChannelStats(dst, cs)
		})

	case frameSubscribe:
		if r.err != nil {
			return fmt.Errorf("wire: malformed subscribe frame: %w", r.err)
		}
		s.mu.Lock()
		s.subs[cw] = struct{}{}
		s.mu.Unlock()
		return cw.writeResult(req, nil, nil)
	}
	return fmt.Errorf("wire: unknown control frame type %d", typ)
}

// Drain stops accepting new connections and rejects new channel opens
// on existing ones; established streams keep flowing. It is the first
// phase of a graceful shutdown.
func (s *Server) Drain() {
	s.draining.Store(true)
	s.mu.Lock()
	ln := s.ln
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
}

// ActiveConns returns the number of currently served connections.
func (s *Server) ActiveConns() int { return int(s.Metrics.ConnectionsActive.Load()) }

// WaitIdle blocks until every connection has finished or the timeout
// elapses, reporting whether the server went idle. Meaningful after
// Drain.
func (s *Server) WaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for s.ActiveConns() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(5 * time.Millisecond)
	}
	return true
}

// Close force-closes the listener and every connection and waits for
// the handlers to exit. Close is idempotent.
func (s *Server) Close() error {
	s.draining.Store(true)
	s.mu.Lock()
	if !s.closed {
		close(s.done)
	}
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// bucket is a token bucket in sample units.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
}

// newBucket starts full, so a client may burst immediately.
func newBucket(rate, burst float64) *bucket {
	return &bucket{rate: rate, burst: burst, tokens: burst}
}

// take refills by elapsed time and withdraws n tokens atomically; a
// frame is admitted whole or not at all, keeping shed accounting exact.
func (b *bucket) take(n float64, now time.Time) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.last.IsZero() {
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens < n {
		return false
	}
	b.tokens -= n
	return true
}
