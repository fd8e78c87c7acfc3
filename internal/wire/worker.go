package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"tiledcfd/internal/stream"
)

// RemoteEngine is the control surface a worker-mode server exposes on
// top of the data plane: the remaining stream.Engine methods a shard
// router needs to treat the worker as one of its sinks. *stream.Engine
// satisfies it directly. Pushes and opens still travel through the
// ServerConfig.Sink; RemoteEngine answers the control frames
// (remove/flush/stats/chanstats) and feeds subscribed connections the
// decision stream.
type RemoteEngine interface {
	// RemoveChannel quiesces and unregisters a channel, flushing a
	// partially integrated window into one final decision, and returns
	// the channel's final accounting.
	RemoveChannel(id string, timeout time.Duration) (stream.ChannelStats, error)
	// ChannelStats returns one channel's accounting; ok is false for an
	// unknown id.
	ChannelStats(id string) (stream.ChannelStats, bool)
	// Stats returns engine-wide accounting.
	Stats() stream.Stats
	// Flush blocks until pushed samples are processed and due decisions
	// made, or the timeout elapses.
	Flush(timeout time.Duration) error
	// Decisions is the engine's decision stream, forwarded to subscribed
	// connections. Closed when the engine closes.
	Decisions() <-chan stream.Decision
}

// resultOK is the frameResult status byte for a successful request.
const resultOK = 0

// maxRemoveTimeout and maxFlushTimeout clamp client-supplied control
// timeouts so a hostile peer cannot park the connection's read loop
// arbitrarily long in a quiesce.
const (
	maxRemoveTimeout = time.Minute
	maxFlushTimeout  = 5 * time.Minute
)

// byteReader is a bounds-checked cursor over one frame payload; the
// first out-of-range read latches err and zero-values every read after
// it, so parsers can decode straight-line and check once.
type byteReader struct {
	p   []byte
	err error
}

// fail latches the first error.
func (r *byteReader) fail() {
	if r.err == nil {
		r.err = fmt.Errorf("wire: truncated control payload")
	}
	r.p = nil
}

// u8 reads one byte.
func (r *byteReader) u8() byte {
	if len(r.p) < 1 {
		r.fail()
		return 0
	}
	v := r.p[0]
	r.p = r.p[1:]
	return v
}

// u16 reads a big-endian uint16.
func (r *byteReader) u16() uint16 {
	if len(r.p) < 2 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint16(r.p)
	r.p = r.p[2:]
	return v
}

// u32 reads a big-endian uint32.
func (r *byteReader) u32() uint32 {
	if len(r.p) < 4 {
		r.fail()
		return 0
	}
	v := binary.BigEndian.Uint32(r.p)
	r.p = r.p[4:]
	return v
}

// i64 reads a big-endian int64.
func (r *byteReader) i64() int64 {
	if len(r.p) < 8 {
		r.fail()
		return 0
	}
	v := int64(binary.BigEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

// f64 reads a big-endian float64.
func (r *byteReader) f64() float64 {
	if len(r.p) < 8 {
		r.fail()
		return 0
	}
	v := math.Float64frombits(binary.BigEndian.Uint64(r.p))
	r.p = r.p[8:]
	return v
}

// str reads a uint16-length-prefixed string.
func (r *byteReader) str() string {
	n := int(r.u16())
	if len(r.p) < n {
		r.fail()
		return ""
	}
	v := string(r.p[:n])
	r.p = r.p[n:]
	return v
}

// appendStr emits a uint16-length-prefixed string.
func appendStr(dst []byte, s string) []byte {
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(s)))
	return append(dst, s...)
}

// appendDecision encodes one engine decision for a decision frame or a
// channel-stats result.
func appendDecision(dst []byte, d stream.Decision) []byte {
	dst = appendStr(dst, d.Channel)
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.Seq))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(d.WindowSamples)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(d.TotalSamples))
	if d.Detected {
		dst = append(dst, 1)
	} else {
		dst = append(dst, 0)
	}
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Statistic))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(d.Threshold))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(d.FeatureF)))
	dst = binary.BigEndian.AppendUint64(dst, uint64(int64(d.FeatureA)))
	dst = appendStr(dst, d.Estimator)
	return binary.BigEndian.AppendUint64(dst, uint64(d.At.UnixNano()))
}

// readDecision decodes one encoded decision.
func readDecision(r *byteReader) stream.Decision {
	var d stream.Decision
	d.Channel = r.str()
	d.Seq = r.i64()
	d.WindowSamples = int(r.i64())
	d.TotalSamples = r.i64()
	d.Detected = r.u8() == 1
	d.Statistic = r.f64()
	d.Threshold = r.f64()
	d.FeatureF = int(r.i64())
	d.FeatureA = int(r.i64())
	d.Estimator = r.str()
	d.At = time.Unix(0, r.i64())
	return d
}

// appendChannelStats encodes one channel's accounting: the id, the
// ChannelCounters in declared order, the optional last decision and the
// error message.
func appendChannelStats(dst []byte, cs stream.ChannelStats) []byte {
	dst = appendStr(dst, cs.ID)
	c := cs.ChannelCounters
	for _, v := range [...]int64{c.SamplesIn, c.SamplesDropped, c.Snapshots, c.Detections} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	if cs.Last != nil {
		dst = append(dst, 1)
		dst = appendDecision(dst, *cs.Last)
	} else {
		dst = append(dst, 0)
	}
	return appendStr(dst, cs.Err)
}

// readChannelStats decodes one channel's accounting.
func readChannelStats(r *byteReader) stream.ChannelStats {
	var cs stream.ChannelStats
	cs.ID = r.str()
	c := &cs.ChannelCounters
	for _, p := range [...]*int64{&c.SamplesIn, &c.SamplesDropped, &c.Snapshots, &c.Detections} {
		*p = r.i64()
	}
	if r.u8() == 1 {
		d := readDecision(r)
		cs.Last = &d
	}
	cs.Err = r.str()
	return cs
}

// appendStats encodes engine-wide accounting: the channel count, the
// Counters and then the Gauges in declared order, the elapsed time and
// the two rates.
func appendStats(dst []byte, st stream.Stats) []byte {
	c, g := st.Counters, st.Gauges
	for _, v := range [...]int64{int64(st.Channels),
		c.SamplesIn, c.SamplesDropped, c.Surfaces, c.Detections, c.DecisionsDropped, c.WindowsFailed, c.PrunedCellsSkipped,
		g.QueuedSamples, g.HeldBytes, st.Elapsed.Nanoseconds()} {
		dst = binary.BigEndian.AppendUint64(dst, uint64(v))
	}
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(st.SamplesPerSec))
	return binary.BigEndian.AppendUint64(dst, math.Float64bits(st.SurfacesPerSec))
}

// readStats decodes engine-wide accounting.
func readStats(r *byteReader) stream.Stats {
	var st stream.Stats
	st.Channels = int(r.i64())
	c, g := &st.Counters, &st.Gauges
	for _, p := range [...]*int64{&c.SamplesIn, &c.SamplesDropped, &c.Surfaces, &c.Detections,
		&c.DecisionsDropped, &c.WindowsFailed, &c.PrunedCellsSkipped, &g.QueuedSamples, &g.HeldBytes} {
		*p = r.i64()
	}
	st.Elapsed = time.Duration(r.i64())
	st.SamplesPerSec = r.f64()
	st.SurfacesPerSec = r.f64()
	return st
}
