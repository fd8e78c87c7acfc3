package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic is the 4-byte connection preamble identifying the protocol.
var Magic = [4]byte{'C', 'F', 'D', 'W'}

// Version is the protocol version carried in the preamble. Both ends
// must carry the same one: version 2 added HeldBytes to the stats
// result, and each control payload is laid out as the record it carries
// is declared (see the package documentation).
const Version = 2

// Frame types. Client→server types are low, server→client types start
// at 16. Types 4–9 and 19–20 are the worker-mode control plane: a shard
// router driving a remote engine (see RemoteEngine) speaks them over the
// same connection as the data plane.
const (
	frameOpen      = 1
	frameData      = 2
	frameClose     = 3
	frameRemove    = 4 // remove a channel from the remote engine, returning its final stats
	frameFlush     = 5 // flush the remote engine's rings and due decisions
	frameStats     = 6 // query remote engine-wide stats
	frameChanStats = 7 // query one channel's stats on the remote engine
	framePing      = 8 // liveness probe (heartbeat)
	frameSubscribe = 9 // subscribe this connection to the remote decision stream
	frameAck       = 16
	frameShed      = 17
	frameError     = 18
	frameResult    = 19 // response to one control request (remove/flush/stats/chanstats/ping/subscribe)
	frameDecision  = 20 // one pushed engine decision (after subscribe)
)

// ackOK is the ack status byte for an accepted open.
const ackOK = 0

// maxIDLen bounds channel id length on the wire.
const maxIDLen = 256

// DefaultMaxFrameBytes is the default bound on one frame's length field:
// generous for IQ blocks (half a million cf32 samples) while keeping a
// garbage length prefix from allocating gigabytes.
const DefaultMaxFrameBytes = 4 << 20

// Format identifies the on-wire sample encoding of one channel —
// the SigMF core:datatype of the stream.
type Format uint8

// Sample formats. Samples are interleaved I,Q pairs, little-endian per
// the SigMF _le datatypes.
const (
	// FormatCF32 is cf32_le: two little-endian float32 per sample.
	FormatCF32 Format = 0
	// FormatCI16 is ci16_le: two little-endian int16 per sample, Q15
	// (±32767 maps to ±1.0).
	FormatCI16 Format = 1
	// FormatCF64 is cf64_le: two little-endian float64 per sample —
	// lossless for the engine's complex128 samples, used by the shard
	// router's remote sinks so a channel's numbers do not change when
	// its shard moves out of process.
	FormatCF64 Format = 2
)

// String returns the SigMF datatype name of the format.
func (f Format) String() string {
	switch f {
	case FormatCF32:
		return "cf32_le"
	case FormatCI16:
		return "ci16_le"
	case FormatCF64:
		return "cf64_le"
	}
	return fmt.Sprintf("format(%d)", uint8(f))
}

// SampleBytes is the encoded size of one sample in the format.
func (f Format) SampleBytes() int {
	switch f {
	case FormatCF32:
		return 8
	case FormatCI16:
		return 4
	case FormatCF64:
		return 16
	}
	return 0
}

// valid reports whether the format is one the codec understands.
func (f Format) valid() bool { return f == FormatCF32 || f == FormatCI16 || f == FormatCF64 }

// Meta is the SigMF-style per-channel metadata carried by an open
// frame.
type Meta struct {
	// ID names the channel; unique across the whole service (the shard
	// router keys ownership on it). Required, at most 256 bytes.
	ID string
	// Format is the on-wire sample encoding (core:datatype).
	Format Format
	// SampleRateHz is the stream's sample rate (core:sample_rate);
	// informational for the detector, which works in normalised
	// frequency.
	SampleRateHz float64
	// CenterFreqHz is the tuned centre frequency (core:frequency);
	// informational.
	CenterFreqHz float64
	// AlphaCandidates, when non-empty, restricts the channel's estimation
	// to the listed non-negative cycle-frequency bin offsets (alpha
	// pruning) — shipped in the open frame so a remote shard worker prunes
	// exactly as a local engine would. Empty means the receiver's default
	// (its configured candidate set, or the full plane). Encoded as a
	// trailing extension, so peers that never set it interoperate with
	// ones that do.
	AlphaCandidates []int
	// Detector, when non-empty, names the decision layer the channel
	// should run (a detect registry name) — shipped in the open frame so
	// a remote shard worker decides exactly as the local engine would.
	// Empty means the receiver's configured default. Encoded as a second
	// trailing extension after the candidate list, so peers that never
	// set it keep the earlier layouts byte for byte.
	Detector string
	// TargetPfa rides with Detector: the false-alarm probability the
	// asymptotic detectors are calibrated to (0 means the receiver's
	// default). Ignored when Detector is empty.
	TargetPfa float64
}

// maxAlphaCandidates bounds the candidate list length on the wire; each
// candidate is a u16 bin offset.
const maxAlphaCandidates = 1024

// maxDetectorLen bounds the detector name length on the wire (u8 length
// prefix).
const maxDetectorLen = 255

// validate checks the metadata bounds shared by client and server.
func (m Meta) validate() error {
	if m.ID == "" {
		return fmt.Errorf("wire: empty channel id")
	}
	if len(m.ID) > maxIDLen {
		return fmt.Errorf("wire: channel id %d bytes long, max %d", len(m.ID), maxIDLen)
	}
	if !m.Format.valid() {
		return fmt.Errorf("wire: unknown sample format %d", m.Format)
	}
	if len(m.AlphaCandidates) > maxAlphaCandidates {
		return fmt.Errorf("wire: %d alpha candidates, max %d", len(m.AlphaCandidates), maxAlphaCandidates)
	}
	for _, a := range m.AlphaCandidates {
		if a < 0 || a > math.MaxUint16 {
			return fmt.Errorf("wire: alpha candidate %d outside [0, %d]", a, math.MaxUint16)
		}
	}
	if len(m.Detector) > maxDetectorLen {
		return fmt.Errorf("wire: detector name %d bytes long, max %d", len(m.Detector), maxDetectorLen)
	}
	if m.TargetPfa < 0 || m.TargetPfa >= 1 || math.IsNaN(m.TargetPfa) {
		return fmt.Errorf("wire: target pfa %v outside [0, 1)", m.TargetPfa)
	}
	if m.Detector == "" && m.TargetPfa != 0 {
		return fmt.Errorf("wire: target pfa %v without a detector name", m.TargetPfa)
	}
	return nil
}

// writePreamble sends the magic and version.
func writePreamble(w io.Writer) error {
	var p [5]byte
	copy(p[:4], Magic[:])
	p[4] = Version
	_, err := w.Write(p[:])
	return err
}

// readPreamble validates the magic and version.
func readPreamble(r io.Reader) error {
	var p [5]byte
	if _, err := io.ReadFull(r, p[:]); err != nil {
		return fmt.Errorf("wire: reading preamble: %w", err)
	}
	if [4]byte(p[:4]) != Magic {
		return fmt.Errorf("wire: bad magic %q", p[:4])
	}
	if p[4] != Version {
		return fmt.Errorf("wire: protocol version %d, want %d", p[4], Version)
	}
	return nil
}

// writeFrame emits one length-prefixed frame: payload must already hold
// everything after the type byte.
func writeFrame(w *bufio.Writer, typ byte, payload []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(1+len(payload)))
	hdr[4] = typ
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	return w.Flush()
}

// readFrame reads one frame, enforcing the length bound. The returned
// payload is only valid until the next call when buf is reused.
func readFrame(r *bufio.Reader, buf []byte, maxBytes int) (typ byte, payload, nextBuf []byte, err error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, nil, buf, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 1 {
		return 0, nil, buf, fmt.Errorf("wire: zero-length frame")
	}
	if n > maxBytes {
		return 0, nil, buf, fmt.Errorf("wire: frame of %d bytes exceeds limit %d", n, maxBytes)
	}
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := io.ReadFull(r, buf); err != nil {
		return 0, nil, buf, fmt.Errorf("wire: truncated frame: %w", err)
	}
	return buf[0], buf[1:], buf, nil
}

// appendMeta encodes an open-frame payload. The alpha-candidate list is
// a trailing extension (u16 count, then one u16 per candidate) emitted
// only when non-empty, so frames from peers that never prune keep the
// original layout byte for byte. The detector selection is a second
// trailing extension (u8 name length, name bytes, f64 target Pfa)
// emitted only when a detector is named; because extensions are
// positional, naming a detector forces the candidate extension too
// (possibly with count zero).
func appendMeta(dst []byte, ref uint16, m Meta) []byte {
	dst = binary.BigEndian.AppendUint16(dst, ref)
	dst = append(dst, byte(m.Format))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.SampleRateHz))
	dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.CenterFreqHz))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.ID)))
	dst = append(dst, m.ID...)
	if len(m.AlphaCandidates) > 0 || m.Detector != "" {
		dst = binary.BigEndian.AppendUint16(dst, uint16(len(m.AlphaCandidates)))
		for _, a := range m.AlphaCandidates {
			dst = binary.BigEndian.AppendUint16(dst, uint16(a))
		}
	}
	if m.Detector != "" {
		dst = append(dst, byte(len(m.Detector)))
		dst = append(dst, m.Detector...)
		dst = binary.BigEndian.AppendUint64(dst, math.Float64bits(m.TargetPfa))
	}
	return dst
}

// parseMeta decodes an open-frame payload, accepting both the original
// layout and the alpha-candidate trailing extension.
func parseMeta(p []byte) (ref uint16, m Meta, err error) {
	if len(p) < 2+1+8+8+2 {
		return 0, m, fmt.Errorf("wire: open frame %d bytes, too short", len(p))
	}
	ref = binary.BigEndian.Uint16(p)
	m.Format = Format(p[2])
	m.SampleRateHz = math.Float64frombits(binary.BigEndian.Uint64(p[3:]))
	m.CenterFreqHz = math.Float64frombits(binary.BigEndian.Uint64(p[11:]))
	idLen := int(binary.BigEndian.Uint16(p[19:]))
	if len(p) < 21+idLen {
		return 0, m, fmt.Errorf("wire: open frame %d bytes, want %d for id of %d", len(p), 21+idLen, idLen)
	}
	m.ID = string(p[21 : 21+idLen])
	ext := p[21+idLen:]
	if len(ext) > 0 {
		if len(ext) < 2 {
			return 0, m, fmt.Errorf("wire: open frame candidate extension %d bytes, too short", len(ext))
		}
		count := int(binary.BigEndian.Uint16(ext))
		if len(ext) < 2+2*count {
			return 0, m, fmt.Errorf("wire: open frame candidate extension %d bytes, want %d for %d candidates",
				len(ext), 2+2*count, count)
		}
		if count > 0 {
			m.AlphaCandidates = make([]int, count)
			for i := range m.AlphaCandidates {
				m.AlphaCandidates[i] = int(binary.BigEndian.Uint16(ext[2+2*i:]))
			}
		}
		ext = ext[2+2*count:]
	}
	if len(ext) > 0 {
		nameLen := int(ext[0])
		if len(ext) != 1+nameLen+8 {
			return 0, m, fmt.Errorf("wire: open frame detector extension %d bytes, want %d for name of %d",
				len(ext), 1+nameLen+8, nameLen)
		}
		m.Detector = string(ext[1 : 1+nameLen])
		m.TargetPfa = math.Float64frombits(binary.BigEndian.Uint64(ext[1+nameLen:]))
	}
	return ref, m, m.validate()
}

// appendSamples encodes samples in the format.
func appendSamples(dst []byte, f Format, samples []complex128) []byte {
	switch f {
	case FormatCF32:
		for _, s := range samples {
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(real(s))))
			dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(float32(imag(s))))
		}
	case FormatCI16:
		for _, s := range samples {
			dst = binary.LittleEndian.AppendUint16(dst, uint16(q15(real(s))))
			dst = binary.LittleEndian.AppendUint16(dst, uint16(q15(imag(s))))
		}
	case FormatCF64:
		for _, s := range samples {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(real(s)))
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(imag(s)))
		}
	}
	return dst
}

// q15 clamps v to ±1 and scales to the int16 Q15 grid.
func q15(v float64) int16 {
	v = math.Round(v * 32767)
	if v > 32767 {
		return 32767
	}
	if v < -32768 {
		return -32768
	}
	return int16(v)
}

// decodeSamples converts an on-wire sample payload into complex128 for
// the engine, appending to dst.
func decodeSamples(dst []complex128, f Format, p []byte, count int) ([]complex128, error) {
	if want := count * f.SampleBytes(); len(p) != want {
		return dst, fmt.Errorf("wire: data frame carries %d payload bytes for %d %s samples, want %d",
			len(p), count, f, want)
	}
	switch f {
	case FormatCF32:
		for i := 0; i < count; i++ {
			re := math.Float32frombits(binary.LittleEndian.Uint32(p[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(p[8*i+4:]))
			dst = append(dst, complex(float64(re), float64(im)))
		}
	case FormatCI16:
		for i := 0; i < count; i++ {
			re := int16(binary.LittleEndian.Uint16(p[4*i:]))
			im := int16(binary.LittleEndian.Uint16(p[4*i+2:]))
			dst = append(dst, complex(float64(re)/32767, float64(im)/32767))
		}
	case FormatCF64:
		for i := 0; i < count; i++ {
			re := math.Float64frombits(binary.LittleEndian.Uint64(p[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(p[16*i+8:]))
			dst = append(dst, complex(re, im))
		}
	default:
		return dst, fmt.Errorf("wire: undecodable format %d", f)
	}
	return dst, nil
}
