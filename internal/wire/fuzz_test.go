package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
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
