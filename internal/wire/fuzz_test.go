package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
	"time"

	"tiledcfd/internal/stream"
)

// FuzzFrameDecode drives the server's decoders over arbitrary bytes:
// readFrame splits the stream into frames, and every payload goes
// through parseMeta and, as a data frame (u16 ref, u32 count, samples),
// through decodeSamples in each sample format. Nothing may panic, a
// frame never exceeds the length bound, a decode that succeeds yields
// exactly count samples, and any Meta that parseMeta accepts parses back
// equal after appendMeta. Seeds live in testdata/fuzz/FuzzFrameDecode.
func FuzzFrameDecode(f *testing.F) {
	const maxBytes = 1 << 16
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bufio.NewReader(bytes.NewReader(data))
		var buf []byte
		for {
			var typ byte
			var payload []byte
			var err error
			typ, payload, buf, err = readFrame(r, buf, maxBytes)
			if err != nil {
				return
			}
			if len(payload)+1 > maxBytes {
				t.Fatalf("frame type %d: %d-byte payload over the %d-byte bound", typ, len(payload), maxBytes)
			}
			if ref, m, err := parseMeta(payload); err == nil {
				ref2, m2, err := parseMeta(appendMeta(nil, ref, m))
				if err != nil {
					t.Fatalf("re-encoded %+v does not parse: %v", m, err)
				}
				if ref2 != ref || !sameMeta(m2, m) {
					t.Fatalf("round trip: ref %d %+v, want ref %d %+v", ref2, m2, ref, m)
				}
			}
			if len(payload) < 6 {
				continue
			}
			count := int(binary.BigEndian.Uint32(payload[2:]))
			for _, format := range []Format{FormatCF32, FormatCI16, FormatCF64} {
				out, err := decodeSamples(nil, format, payload[6:], count)
				if err == nil && len(out) != count {
					t.Fatalf("%s: decoded %d samples, frame says %d", format, len(out), count)
				}
			}
		}
	})
}

// sameMeta compares two Metas field by field, the floats by their bits
// (a NaN rate or frequency is legal and must survive the round trip).
func sameMeta(a, b Meta) bool {
	return a.ID == b.ID && a.Format == b.Format && a.Detector == b.Detector &&
		math.Float64bits(a.SampleRateHz) == math.Float64bits(b.SampleRateHz) &&
		math.Float64bits(a.CenterFreqHz) == math.Float64bits(b.CenterFreqHz) &&
		math.Float64bits(a.TargetPfa) == math.Float64bits(b.TargetPfa) &&
		slices.Equal(a.AlphaCandidates, b.AlphaCandidates)
}

// FuzzControlFrames drives the worker control-frame decoders —
// readDecision, readChannelStats and readStats — over arbitrary bytes.
// Nothing may panic. Whatever a decoder accepts must survive decode →
// append → decode unchanged, consuming exactly the re-encoded bytes, and
// every strict prefix of that encoding must fail with the truncation
// error instead of yielding a value. Seeds live in
// testdata/fuzz/FuzzControlFrames.
func FuzzControlFrames(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		controlRoundTrip(t, "decision", data, readDecision, appendDecision, sameDecision)
		controlRoundTrip(t, "channel stats", data, readChannelStats, appendChannelStats, sameChannelStats)
		controlRoundTrip(t, "stats", data, readStats, appendStats, sameStats)
	})
}

// controlRoundTrip checks one decoder and its encoder on data.
func controlRoundTrip[T any](t *testing.T, name string, data []byte,
	read func(*byteReader) T, appendT func([]byte, T) []byte, same func(a, b T) bool) {
	t.Helper()
	r := &byteReader{p: data}
	v := read(r)
	if r.err != nil {
		return
	}
	enc := appendT(nil, v)
	r = &byteReader{p: enc}
	v2 := read(r)
	if r.err != nil || len(r.p) != 0 {
		t.Fatalf("%s: re-encoded %+v decodes with error %v, %d bytes left", name, v, r.err, len(r.p))
	}
	if !same(v, v2) {
		t.Fatalf("%s: round trip gives %+v, want %+v", name, v2, v)
	}
	// Every cut near either end, and a spread of cuts between (a long
	// string would make checking every prefix quadratic).
	step := max(1, len(enc)/64)
	for cut := 0; cut < len(enc); cut++ {
		if cut >= 64 && cut < len(enc)-64 && cut%step != 0 {
			continue
		}
		r = &byteReader{p: enc[:cut]}
		read(r)
		if r.err == nil {
			t.Fatalf("%s: %d-byte prefix of a %d-byte encoding decodes without error", name, cut, len(enc))
		}
	}
}

// sameDecision compares the fields a decision carries on the wire, the
// floats by their bits.
func sameDecision(a, b stream.Decision) bool {
	if math.Float64bits(a.Statistic) != math.Float64bits(b.Statistic) ||
		math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) || !a.At.Equal(b.At) {
		return false
	}
	a.Statistic, a.Threshold, a.At = 0, 0, time.Time{}
	b.Statistic, b.Threshold, b.At = 0, 0, time.Time{}
	return a == b
}

// sameChannelStats compares two channel accountings, their last
// decisions with sameDecision.
func sameChannelStats(a, b stream.ChannelStats) bool {
	if (a.Last == nil) != (b.Last == nil) || a.Last != nil && !sameDecision(*a.Last, *b.Last) {
		return false
	}
	a.Last, b.Last = nil, nil
	return a == b
}

// sameStats compares two engine accountings, the floats by their bits.
func sameStats(a, b stream.Stats) bool {
	if math.Float64bits(a.SamplesPerSec) != math.Float64bits(b.SamplesPerSec) ||
		math.Float64bits(a.SurfacesPerSec) != math.Float64bits(b.SurfacesPerSec) {
		return false
	}
	a.SamplesPerSec, a.SurfacesPerSec = 0, 0
	b.SamplesPerSec, b.SurfacesPerSec = 0, 0
	return a == b
}
