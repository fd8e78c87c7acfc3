package fam

import (
	"reflect"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// streamBand synthesises a deterministic BPSK-in-noise band.
func streamBand(t *testing.T, n int, seed uint64) []complex128 {
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
func pushChunks(t *testing.T, acc scf.Accumulator, x []complex128, sizes []int) {
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
}

// requireIdentical asserts two surfaces are bit-identical.
func requireIdentical(t *testing.T, got, want *scf.Surface, label string) {
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

// requireSameStats asserts the modeled work counts match.
func requireSameStats(t *testing.T, got, want *scf.Stats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stats %+v, want %+v", got, want)
	}
}

// TestFAMAccumulatorMatchesBatch: streaming FAM snapshots are
// bit-identical to batch Estimate over the concatenation, for input
// lengths both at and between power-of-two hop counts, across hop and
// window geometries.
func TestFAMAccumulatorMatchesBatch(t *testing.T) {
	cases := []struct {
		name    string
		e       FAM
		samples int
		chunks  []int
	}{
		// K=64, hop=16 (default K/4): hops = (n-64)/16+1.
		{"pow2-hops", FAM{Params: scf.Params{K: 64, M: 16}}, 64 + 31*16, []int{1, 9, 64}},
		{"ragged-hops", FAM{Params: scf.Params{K: 64, M: 16}}, 64 + 44*16 + 7, []int{13, 57}},
		{"custom-hop", FAM{Params: scf.Params{K: 64, M: 16, Hop: 32}}, 64 + 21*32, []int{200}},
		{"hamming", FAM{Params: scf.Params{K: 64, M: 8, Window: fft.Hamming}}, 64 + 17*16, []int{31}},
		// K+Hop, then 3·Hop: pushes end on odd hop counts, so folds
		// start on odd hops.
		{"odd-start-blocks", FAM{Params: scf.Params{K: 64, M: 16}}, 64 + 44*16 + 7, []int{64 + 16, 3 * 16}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := streamBand(t, tc.samples, 5)
			want, wantStats, err := tc.e.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := tc.e.NewAccumulator()
			if err != nil {
				t.Fatal(err)
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
			requireSameStats(t, gotStats, wantStats)
		})
	}
}

// TestFAMAccumulatorRepeatedSnapshots: snapshots as the stream grows
// track the batch result over the prefix, and Reset restarts cleanly.
func TestFAMAccumulatorRepeatedSnapshots(t *testing.T) {
	e := FAM{Params: scf.Params{K: 64, M: 16}}
	x := streamBand(t, 64+63*16, 6)
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{64 + 16, 64 + 7*16 + 3, 64 + 40*16, len(x)} {
		prev := acc.Samples()
		pushChunks(t, acc, x[prev:cut], []int{25})
		got, _, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := e.Estimate(x[:cut])
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, want, "prefix snapshot")
	}
	acc.Reset()
	if acc.Ready() || acc.Samples() != 0 {
		t.Fatalf("Reset left Ready=%v Samples=%d", acc.Ready(), acc.Samples())
	}
	y := streamBand(t, 64+15*16, 7)
	pushChunks(t, acc, y, []int{11})
	got, _, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "post-reset")
}

// TestSSCAAccumulatorMatchesBatch: streaming SSCA snapshots are
// bit-identical to batch Estimate, with N both derived and fixed.
func TestSSCAAccumulatorMatchesBatch(t *testing.T) {
	cases := []struct {
		name    string
		e       SSCA
		samples int
		chunks  []int
	}{
		// K=64: derived N = pow2floor(samples-63).
		{"derived-n", SSCA{Params: scf.Params{K: 64, M: 16}}, 64 + 255, []int{1, 17, 90}},
		{"ragged-n", SSCA{Params: scf.Params{K: 64, M: 16}}, 64 + 300, []int{41}},
		{"fixed-n", SSCA{Params: scf.Params{K: 64, M: 16}, N: 128}, 64 + 127, []int{23, 5}},
		{"hamming", SSCA{Params: scf.Params{K: 64, M: 8, Window: fft.Hann}, N: 128}, 64 + 127, []int{64}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := streamBand(t, tc.samples, 9)
			want, wantStats, err := tc.e.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			acc, err := tc.e.NewAccumulator()
			if err != nil {
				t.Fatal(err)
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
			requireSameStats(t, gotStats, wantStats)
		})
	}
}

// TestSSCAAccumulatorFixedNBounded: with N fixed, pushing far past the
// strip length neither grows state nor changes the snapshot.
func TestSSCAAccumulatorFixedNBounded(t *testing.T) {
	e := SSCA{Params: scf.Params{K: 64, M: 16}, N: 128}
	need := 128 + 63
	x := streamBand(t, 4*need, 10)
	want, _, err := e.Estimate(x[:need])
	if err != nil {
		t.Fatal(err)
	}
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	pushChunks(t, acc, x, []int{97})
	got, _, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "overfed fixed-N snapshot")
	sa := acc.(*sscaAccumulator)
	if want := 64 * len(sa.needed); len(sa.fold) != want || cap(sa.fold) != want || sa.ck != nil {
		t.Fatalf("fold holds %d cells (cap %d, checkpoint %d), want exactly K·strips = %d and no checkpoint",
			len(sa.fold), cap(sa.fold), len(sa.ck), want)
	}
}

// TestSSCAAccumulatorDerivedNBounded: with N derived from the stream,
// the state is the running fold plus one checkpoint — 2·K cells per
// strip however long the stream — and snapshots still match batch.
func TestSSCAAccumulatorDerivedNBounded(t *testing.T) {
	const k, window = 64, 512
	e := SSCA{Params: scf.Params{K: k, M: 16}}
	x := streamBand(t, 16*window, 14)
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	sa := acc.(*sscaAccumulator)
	for w := 0; w < 16; w++ {
		pushChunks(t, acc, x[w*window:(w+1)*window], []int{window})
		if want := 2 * k * len(sa.needed); len(sa.fold)+len(sa.ck) != want ||
			cap(sa.fold)+cap(sa.ck) != want {
			t.Fatalf("after %d windows: fold %d + checkpoint %d cells, want exactly 2·K·strips = %d",
				w+1, len(sa.fold), len(sa.ck), want)
		}
	}
	got, _, err := acc.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := e.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, got, want, "long-stream snapshot")
}

// TestSSCAAccumulatorPushAllocs: once the first hop has allocated the
// fold, steady-state Push allocates nothing, windowed or not, with N
// derived (checkpoint copies included) or fixed.
func TestSSCAAccumulatorPushAllocs(t *testing.T) {
	x := streamBand(t, 64*1024, 15)
	for _, e := range []SSCA{
		{Params: scf.Params{K: 64, M: 16}},
		{Params: scf.Params{K: 64, M: 16, Window: fft.Hamming}},
		{Params: scf.Params{K: 64, M: 16}, N: 1 << 14},
	} {
		acc, err := e.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Push(x[:256]); err != nil {
			t.Fatal(err)
		}
		off := 256
		if allocs := testing.AllocsPerRun(100, func() {
			if err := acc.Push(x[off : off+97]); err != nil {
				t.Fatal(err)
			}
			off += 97
		}); allocs != 0 {
			t.Errorf("window %v N=%d: Push allocates %v objects per call, want 0", e.Params.Window, e.N, allocs)
		}
	}
}

// TestAccumulatorNotReady: both estimators refuse snapshots before their
// minimum smoothing length arrives.
func TestAccumulatorNotReady(t *testing.T) {
	for _, e := range []scf.StreamingEstimator{
		FAM{Params: scf.Params{K: 64, M: 16}},
		SSCA{Params: scf.Params{K: 64, M: 16}},
	} {
		acc, err := e.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		if err := acc.Push(make([]complex128, 70)); err != nil {
			t.Fatal(err)
		}
		if acc.Ready() {
			t.Fatalf("%s: Ready with 70 samples", acc.Name())
		}
		if _, _, err := acc.Snapshot(); err == nil {
			t.Fatalf("%s: Snapshot succeeded with 70 samples", acc.Name())
		}
	}
}
