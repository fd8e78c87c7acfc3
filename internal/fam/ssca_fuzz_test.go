package fam

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FuzzSSCAChunking: for any seeded band, chunking, strip length and
// window, the accumulator snapshot equals a one-shot Estimate bit for
// bit and matches the N-point reference to rounding.
//
// The inputs decode as: seed picks the band; each chunks byte is one
// push size (byte+1 samples, cycled; empty pushes everything at once);
// nSel%4 picks N (0 = derived from the input, else K·2^(nSel%4-1));
// winSel picks the analysis window; extra adds samples past the
// minimum the geometry needs.
func FuzzSSCAChunking(f *testing.F) {
	f.Add(uint64(1), []byte{0, 16, 89}, uint8(0), uint8(0), uint16(300))
	f.Add(uint64(2), []byte{40}, uint8(2), uint8(1), uint16(17))
	f.Add(uint64(3), []byte{}, uint8(3), uint8(2), uint16(0))
	f.Fuzz(func(t *testing.T, seed uint64, chunks []byte, nSel, winSel uint8, extra uint16) {
		const k, m = 32, 8
		windows := []fft.WindowKind{fft.Rectangular, fft.Hamming, fft.Hann, fft.Blackman}
		e := SSCA{Params: scf.Params{K: k, M: m, Window: windows[int(winSel)%len(windows)]}}
		strip := k // the shortest input holds one strip of max(N, K) samples plus K-1
		if s := nSel % 4; s != 0 {
			e.N = k << (s - 1)
			strip = e.N
		}
		x := streamBand(t, strip+k-1+int(extra)%1024, seed)
		sizes := []int{len(x)}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, int(c)+1)
			}
		}
		want, wantStats, err := e.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		acc, err := e.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		pushChunks(t, acc, x, sizes)
		got, gotStats, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, "chunked snapshot")
		requireSameStats(t, gotStats, wantStats)
		ref := sscaReference(t, x, e.Params, wantStats.Blocks)
		if d, tol := scf.MaxAbsDiff(got, ref), 1e-12*(1+surfacePeak(ref)); d > tol {
			t.Fatalf("N=%d: snapshot differs from the N-point reference by %g (tol %g)", wantStats.Blocks, d, tol)
		}
	})
}
