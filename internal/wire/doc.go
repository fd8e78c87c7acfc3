// Package wire is the network ingestion layer of the sensing service: a
// length-prefixed binary streaming protocol carrying IQ sample blocks
// from radio front ends (or recorded captures) into the streaming
// engine, plus the serving-side niceties a real daemon needs — per-client
// ingest quotas with load shedding, and a dependency-free Prometheus
// text-exposition /metrics endpoint.
//
// # Protocol
//
// A connection opens with a 5-byte preamble (magic "CFDW", version 2;
// a peer with another version is refused) and then carries frames in
// both directions. Every frame is
//
//	uint32  length   big-endian, bytes after this field (type + payload)
//	uint8   type
//	payload
//
// Client→server frames:
//
//	open      (1): ref uint16, format uint8, sample_rate float64,
//	               center_freq float64, id_len uint16, id bytes
//	data      (2): ref uint16, count uint32, count × sample bytes
//	close     (3): ref uint16
//	remove    (4): req uint16, timeout_ms uint32, id_len uint16, id
//	flush     (5): req uint16, timeout_ms uint32
//	stats     (6): req uint16
//	chanstats (7): req uint16, id_len uint16, id
//	ping      (8): req uint16
//	subscribe (9): req uint16
//
// Server→client frames:
//
//	ack      (16): ref uint16, status uint8 (0 = ok), msg_len uint16, msg
//	shed     (17): ref uint16, samples uint64 — quota load-shed notice
//	error    (18): msg_len uint16, msg — fatal; the server closes the
//	               connection after sending it
//	result   (19): req uint16, status uint8 (0 = ok), then the request's
//	               result payload on success or the error message
//	decision (20): one encoded engine decision (after subscribe)
//
// The stats and chanstats results carry internal/stream's accounting
// records, each field a big-endian int64 in declared order. A stats
// result is channels, Counters, Gauges and elapsed_ns, then samples/s
// and surfaces/s as float64; version 2 added Gauges.HeldBytes. A
// chanstats result is id_len uint16, id, ChannelCounters, has_last
// uint8 with the optional decision, then err_len uint16, err.
//
// Frames 4–9 and 19–20 are the worker-mode control plane. A server
// configured with a RemoteEngine (worker mode, e.g. `cfdserve
// -shard-of`) exposes the rest of the stream.Engine surface over the
// same connection as the data plane, so a shard router can drive the
// remote engine as one of its sinks: remove/flush/stats/chanstats map
// onto the engine methods, ping is the router's heartbeat, and
// subscribe routes the engine's decision stream back as decision
// frames. Ping also works on non-worker servers; the other control
// frames are rejected there.
//
// The open frame carries SigMF-style per-channel metadata: the channel
// id (SigMF capture label), the sample rate in Hz (core:sample_rate),
// the centre frequency in Hz (core:frequency), and the sample format
// (core:datatype) — cf32_le (two little-endian float32 per sample),
// ci16_le (two little-endian int16, Q15), or cf64_le (two little-endian
// float64 — lossless for the engine's complex128, used for
// router→worker shard traffic). Integer headers are big-endian; sample
// payloads are little-endian per the SigMF _le datatypes.
//
// A client opens any number of channels over one connection, each under
// a connection-local uint16 ref, then streams data frames. Flow control
// is TCP's own: when the engine applies backpressure the server stops
// reading and the client's writes block, so a saturating client runs
// exactly at the service rate without dropping anything.
//
// # Deadlines and keepalive
//
// Both ends arm TCP keepalive, the server bounds each read by an idle
// timeout and each write by a write timeout (ServerConfig knobs), and
// the client applies an optional per-frame write deadline
// (SetWriteTimeout) — so a half-open or wedged peer fails the
// connection instead of pinning a goroutine forever. A push that
// overruns the client deadline surfaces os.ErrDeadlineExceeded in its
// error chain, which the shard router's robustness layer counts as a
// deadline breach.
//
// # Quotas and load shedding
//
// The server optionally enforces a per-connection token-bucket ingest
// quota (samples/sec with a burst allowance). Data frames that exceed
// the bucket are shed whole: the samples are discarded before they
// reach the engine, counted in the server metrics, and reported to the
// client with a shed frame — so one over-rate client degrades only its
// own stream while in-quota clients keep their throughput. This extends
// the drop/backpressure accounting of internal/stream one layer out:
// ring overflow is counted per channel by the engine, quota shedding
// per client by the wire server.
//
// # Metrics
//
// Exposition builds Prometheus text-format (version 0.0.4) output with
// no external dependencies, and Handler serves it over HTTP. The server
// contributes its connection/frame/sample/shed counters via Collect;
// callers compose further sources (engine and shard-router gauges) into
// the same endpoint.
package wire
