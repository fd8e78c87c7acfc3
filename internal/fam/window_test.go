package fam

import (
	"fmt"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FuzzWindowAccumulator: every window-bound accumulator honours the
// scf.WindowEstimator contract. After n samples pushed since the last
// Reset, in any chunking, Snapshot equals Estimate(x[:min(n, W)]) bit for
// bit with the same stats, and Ready holds exactly when that Estimate
// succeeds. A window too short for any snapshot gets the plain
// accumulator, whose snapshot is Estimate(x[:n]).
//
// The inputs decode as: seed picks the band; estSel%5 picks fam, pruned
// fam, ssca, fam-q15 or ssca-q15, and estSel/5%3 the FAM hop (K/4, 13 or
// 40 > K); winSel the analysis window; w the window length (1 + w%2048);
// n1 and n2 the prefix lengths pushed before and after a Reset (each
// modulo 2W+1); each chunks byte one push size (byte+1 samples, cycled;
// empty pushes each prefix at once).
func FuzzWindowAccumulator(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(600), uint16(1201), uint16(400), []byte{0, 16, 89})
	f.Add(uint64(2), uint8(1), uint8(1), uint16(2047), uint16(3000), uint16(2048), []byte{40})
	f.Add(uint64(3), uint8(2), uint8(2), uint16(2047), uint16(1500), uint16(4096), []byte{})
	f.Fuzz(func(t *testing.T, seed uint64, estSel, winSel uint8, w, n1, n2 uint16, chunks []byte) {
		const k, m = 32, 8
		windows := []fft.WindowKind{fft.Rectangular, fft.Hamming, fft.Hann}
		p := scf.Params{K: k, M: m, Window: windows[int(winSel)%len(windows)]}
		famP := p
		famP.Hop = []int{0, 13, 40}[int(estSel/5)%3]
		var est scf.StreamingEstimator
		switch estSel % 5 {
		case 0:
			est = FAM{Params: famP}
		case 1:
			famP.AlphaCandidates = []int{2, 5}
			est = FAM{Params: famP}
		case 2:
			est = SSCA{Params: p}
		case 3:
			est = FAMQ15{Params: famP, InputPeak: 2}
		default:
			est = SSCAQ15{Params: p, InputPeak: 2}
		}
		window := 1 + int(w)%2048
		x := streamBand(t, 2*window, seed)
		sizes := []int{len(x)}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, int(c)+1)
			}
		}
		_, _, shortErr := est.Estimate(x[:window])
		acc, err := est.(scf.WindowEstimator).NewWindowAccumulator(window)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{int(n1) % (2*window + 1), int(n2) % (2*window + 1)} {
			acc.Reset()
			pushChunks(t, acc, x[:n], sizes)
			if acc.Samples() != n {
				t.Fatalf("Samples() = %d after %d pushed", acc.Samples(), n)
			}
			lim := min(n, window)
			if shortErr != nil {
				lim = n
			}
			want, wantStats, wantErr := est.Estimate(x[:lim])
			if acc.Ready() != (wantErr == nil) {
				t.Fatalf("%s W=%d n=%d: Ready %v, Estimate error %v", est.Name(), window, n, acc.Ready(), wantErr)
			}
			got, gotStats, err := acc.Snapshot()
			if wantErr != nil {
				if err == nil {
					t.Fatalf("%s W=%d n=%d: Snapshot succeeded where Estimate fails", est.Name(), window, n)
				}
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, fmt.Sprintf("%s W=%d n=%d", est.Name(), window, n))
			requireSameStats(t, gotStats, wantStats)
		}
	})
}

// TestWindowAccumulatorKeepsNoCheckpoint: over a whole window, a
// window-bound FAM or SSCA accumulator folds only the hops the snapshot
// reads and never allocates the checkpoint copy the plain one keeps.
func TestWindowAccumulatorKeepsNoCheckpoint(t *testing.T) {
	const window = 2048
	x := streamBand(t, window, 16)
	p := scf.Params{K: 64, M: 16} // FAM: 125 hops in the window, 64 read
	fa, err := FAM{Params: p}.NewWindowAccumulator(window)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := SSCA{Params: p}.NewWindowAccumulator(window)
	if err != nil {
		t.Fatal(err)
	}
	for _, acc := range []scf.Accumulator{fa, sa} {
		if err := acc.Push(x); err != nil {
			t.Fatal(err)
		}
	}
	if f := fa.(*famAccumulator); f.ck != nil || f.hops != 64 {
		t.Errorf("fam: folded %d hops (want 64 of 125), checkpoint allocated %v", f.hops, f.ck != nil)
	}
	if s := sa.(*sscaAccumulator); s.ck != nil || s.hops != 1024 {
		t.Errorf("ssca: folded %d hops (want 1024 of %d), checkpoint allocated %v", s.hops, window-64+1, s.ck != nil)
	}
}

// sink keeps benchmark and allocation-test results live.
var (
	sinkSurface *scf.Surface
	sinkStats   *scf.Stats
)

// TestSSCASnapshotAllocs: an SSCA snapshot allocates no more than the
// surface it returns plus its Stats — no strip table, no cell scratch.
func TestSSCASnapshotAllocs(t *testing.T) {
	x := streamBand(t, 2048, 17)
	for _, p := range []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, AlphaCandidates: []int{3, 8, 11}},
	} {
		e := SSCA{Params: p}
		for _, window := range []int{0, len(x)} {
			acc, err := e.NewWindowAccumulator(window)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Push(x); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				var err error
				if sinkSurface, sinkStats, err = acc.Snapshot(); err != nil {
					t.Fatal(err)
				}
			})
			sp := famDefaults(p, 1)
			want := testing.AllocsPerRun(20, func() {
				sinkSurface, sinkStats = scf.NewSurfaceFor(sp), &scf.Stats{}
			})
			if got > want {
				t.Errorf("pruned=%v window=%d: Snapshot allocates %v objects, the surface plus stats %v",
					p.Pruned(), window, got, want)
			}
		}
	}
}

// BenchmarkWindowPushSnapshot times one serving window's Push and
// Snapshot at the paper geometry (K=256, M=64), through the plain
// accumulator (fold every hop, keep a checkpoint) and the window-bound
// one (fold only the hops the snapshot reads). Samples arrive in
// 4096-sample chunks, the stream engine's drain size. Run with
//
//	go test -run '^$' -bench WindowPushSnapshot -benchmem ./internal/fam
func BenchmarkWindowPushSnapshot(b *testing.B) {
	p := scf.Params{K: 256, M: 64}
	pruned := p
	pruned.AlphaCandidates = []int{16, 32, 11, 40}
	cases := []struct {
		name   string
		est    scf.StreamingEstimator
		window int
	}{
		{"fam-full/W=8192", FAM{Params: p}, 8192},
		{"fam-pruned/W=2048", FAM{Params: pruned}, 2048},
		{"ssca/W=2048", SSCA{Params: p}, 2048},
	}
	for _, c := range cases {
		x := goldenBand(c.window, 1)
		for _, bound := range []bool{false, true} {
			name := c.name + "/plain"
			if bound {
				name = c.name + "/window"
			}
			b.Run(name, func(b *testing.B) {
				acc, err := c.est.NewAccumulator()
				if bound {
					acc, err = c.est.(scf.WindowEstimator).NewWindowAccumulator(c.window)
				}
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acc.Reset()
					for off := 0; off < len(x); off += 4096 {
						if err := acc.Push(x[off:min(off+4096, len(x))]); err != nil {
							b.Fatal(err)
						}
					}
					if sinkSurface, sinkStats, err = acc.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
