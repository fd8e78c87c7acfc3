package scf

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/sig"
)

// testBand synthesises a deterministic BPSK-in-noise band.
func testBand(t *testing.T, n int, seed uint64) []complex128 {
	t.Helper()
	rng := sig.NewRand(seed)
	b := &sig.BPSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, n)
	noisy, _, err := sig.AddAWGN(x, 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return noisy
}

// pushChunks feeds x into acc in chunks of the given sizes, cycling.
func pushChunks(t *testing.T, acc Accumulator, x []complex128, sizes []int) {
	t.Helper()
	i, c := 0, 0
	for i < len(x) {
		n := sizes[c%len(sizes)]
		c++
		if i+n > len(x) {
			n = len(x) - i
		}
		if err := acc.Push(x[i : i+n]); err != nil {
			t.Fatalf("Push at %d: %v", i, err)
		}
		i += n
	}
	if acc.Samples() != len(x) {
		t.Fatalf("Samples() = %d, pushed %d", acc.Samples(), len(x))
	}
}

// requireIdentical asserts two surfaces are bit-identical.
func requireIdentical(t *testing.T, got, want *Surface, label string) {
	t.Helper()
	if got.M != want.M {
		t.Fatalf("%s: extent M=%d vs %d", label, got.M, want.M)
	}
	for i := range want.Data {
		for j := range want.Data[i] {
			if got.Data[i][j] != want.Data[i][j] {
				t.Fatalf("%s: cell [%d][%d] = %v, want %v (not bit-identical)",
					label, i, j, got.Data[i][j], want.Data[i][j])
			}
		}
	}
}

// TestDirectAccumulatorMatchesBatch: pushing any chunking of the input
// then snapshotting is bit-identical to the batch Compute over the
// concatenation, across hop/window geometries.
func TestDirectAccumulatorMatchesBatch(t *testing.T) {
	cases := []struct {
		name   string
		p      Params
		blocks int
		chunks []int
	}{
		{"paper-geometry", Params{K: 64, M: 16}, 6, []int{1, 7, 64, 3}},
		{"overlap-hop", Params{K: 64, M: 16, Hop: 16}, 9, []int{5, 33}},
		{"gap-hop", Params{K: 64, M: 8, Hop: 80}, 5, []int{64, 11}},
		{"hamming", Params{K: 64, M: 16, Window: fft.Hamming}, 4, []int{17}},
		{"single-block", Params{K: 32, M: 8}, 1, []int{1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p := tc.p.WithDefaults()
			p.Blocks = tc.blocks
			x := testBand(t, p.SamplesNeeded(), 7)
			want, wantStats, err := Compute(x, p)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := NewAccumulator(tc.p)
			if err != nil {
				t.Fatal(err)
			}
			if acc.Ready() {
				t.Fatal("Ready before any samples")
			}
			pushChunks(t, acc, x, tc.chunks)
			if !acc.Ready() {
				t.Fatal("not Ready after full input")
			}
			got, gotStats, err := acc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, want, "snapshot")
			if gotStats.Blocks != wantStats.Blocks ||
				gotStats.FFTMults != wantStats.FFTMults ||
				gotStats.DSCFMults != wantStats.DSCFMults {
				t.Fatalf("stats %+v, want %+v", gotStats, wantStats)
			}
		})
	}
}

// TestDirectAccumulatorIntermediateSnapshots: snapshots taken mid-stream
// equal the batch result over the samples consumed so far, and taking
// them does not perturb later snapshots.
func TestDirectAccumulatorIntermediateSnapshots(t *testing.T) {
	p := Params{K: 64, M: 16}
	x := testBand(t, 8*64, 3)
	acc, err := NewAccumulator(p)
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < 8; n++ {
		if err := acc.Push(x[n*64 : (n+1)*64]); err != nil {
			t.Fatal(err)
		}
		got, _, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		bp := p
		bp.Blocks = n + 1
		want, _, err := Compute(x[:(n+1)*64], bp)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, "after block")
	}
}

// TestDirectAccumulatorReset: after Reset the accumulator behaves as
// freshly constructed, including the absolute-time phase reference.
func TestDirectAccumulatorReset(t *testing.T) {
	p := Params{K: 64, M: 16, Hop: 48}
	acc, err := NewAccumulator(p)
	if err != nil {
		t.Fatal(err)
	}
	// Pollute with one stream, then reset.
	pushChunks(t, acc, testBand(t, 500, 11), []int{13})
	acc.Reset()
	if acc.Ready() || acc.Samples() != 0 {
		t.Fatalf("Reset left Ready=%v Samples=%d", acc.Ready(), acc.Samples())
	}
	bp := p.WithDefaults()
	bp.Blocks = 5
	x := testBand(t, bp.SamplesNeeded(), 12)
	want, _, err := Compute(x, bp)
	if err != nil {
		t.Fatal(err)
	}
	pushChunks(t, acc, x, []int{29, 1})
	got, _, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "post-reset")
}

// TestDirectAccumulatorNotReady: Snapshot before a complete block fails.
func TestDirectAccumulatorNotReady(t *testing.T) {
	acc, err := NewAccumulator(Params{K: 64, M: 16})
	if err != nil {
		t.Fatal(err)
	}
	if err := acc.Push(make([]complex128, 63)); err != nil {
		t.Fatal(err)
	}
	if acc.Ready() {
		t.Fatal("Ready with 63 of 64 samples")
	}
	if _, _, err := acc.Snapshot(); err == nil {
		t.Fatal("Snapshot succeeded without a complete block")
	}
}

// TestDirectWindowAccumulatorHoldsItsBlocks: bound to its window, the
// direct DSCF's accumulator buffers the window's complete blocks and
// drops the rest. At K=256 and W=8192 pushed in two 4096-sample chunks it
// holds the 32 blocks' 8192 samples, 131,072 B, where the uncapped
// accumulator's appended buffer holds 147,456 B. With a hop of 100 the
// 80 complete blocks read 8156 samples; its snapshot then equals Compute
// over those blocks.
func TestDirectWindowAccumulatorHoldsItsBlocks(t *testing.T) {
	const window = 8192
	x := testBand(t, window, 4)
	for _, c := range []struct {
		p         Params
		held      int
		uncappedB int
	}{
		{Params{K: 256, M: 64}, 16 * window, 147456},
		{Params{K: 256, M: 64, Hop: 100}, 16 * (79*100 + 256), 147456},
	} {
		bound, err := Direct{Params: c.p}.NewWindowAccumulator(window)
		if err != nil {
			t.Fatal(err)
		}
		uncapped, err := Direct{Params: c.p}.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		for _, acc := range []Accumulator{bound, uncapped} {
			pushChunks(t, acc, x, []int{4096})
		}
		held := func(acc Accumulator) int { return acc.(interface{ HeldBytes() int }).HeldBytes() }
		if held(bound) != c.held || held(uncapped) != c.uncappedB {
			t.Fatalf("hop %d: window-bound holds %d B, uncapped %d B; want %d and %d",
				c.p.Hop, held(bound), held(uncapped), c.held, c.uncappedB)
		}
		bp := c.p.WithDefaults()
		bp.Blocks = (window-bp.K)/bp.Hop + 1
		want, _, err := Compute(x, bp)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := bound.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, "window-bound")
	}
}
