package fam

import (
	"fmt"
	"reflect"
	"strings"
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
		// K+Hop, then 3·Hop: pushes end on odd hop counts.
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
// strip length neither grows state nor changes the snapshot: the
// accumulator holds its N+K-1-sample span and nothing else.
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
	if acc.Samples() != len(x) {
		t.Fatalf("Samples() = %d, want %d", acc.Samples(), len(x))
	}
	if got, want := heldBytes(reflect.ValueOf(acc)), 16*need; got != want {
		t.Fatalf("holds %d bytes, want its %d-sample span (%d bytes)", got, need, want)
	}
}

// TestSSCAAccumulatorPushAllocs: once a stream has sized the buffer,
// Push allocates nothing, windowed or not, with N derived or fixed: after
// Reset the uncapped accumulator refills the buffer the last stream
// grew, and the fixed-N one buffers into its span.
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
		pushChunks(t, acc, x, []int{4096})
		acc.Reset()
		off := 0
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

// TestTwinsShareSmoothing: each float estimator and its Q15 twin smooth
// by one rule. For every n around each threshold — the fewest samples,
// and every span where the hops step to the next power of two — both
// fail together with the same too-short count, or both succeed with the
// same Stats.Blocks, batch and through their window accumulators alike.
func TestTwinsShareSmoothing(t *testing.T) {
	p := scf.Params{K: 32, M: 8}
	hop13 := p
	hop13.Hop = 13
	x := streamBand(t, 63*13+32+1, 26)
	for _, c := range []struct {
		float, q15 scf.StreamingEstimator
		hop        int
	}{
		{FAM{Params: p}, FAMQ15{Params: p}, 8},
		{FAM{Params: hop13}, FAMQ15{Params: hop13}, 13},
		{SSCA{Params: p}, SSCAQ15{Params: p}, 1},
		{SSCA{Params: p, N: 64}, SSCAQ15{Params: p, N: 64}, 1},
	} {
		var ns []int
		for h := 1; h <= 64; h *= 2 {
			span := (h-1)*c.hop + p.K
			ns = append(ns, span-1, span, span+1)
		}
		for _, n := range ns {
			_, fs, ferr := c.float.Estimate(x[:n])
			_, qs, qerr := c.q15.Estimate(x[:n])
			label := fmt.Sprintf("%s/%s hop %d n=%d", c.float.Name(), c.q15.Name(), c.hop, n)
			switch {
			case (ferr == nil) != (qerr == nil):
				t.Fatalf("%s: float error %v, Q15 error %v", label, ferr, qerr)
			case ferr != nil:
				if !strings.Contains(ferr.Error(), "needs >=") ||
					strings.Replace(qerr.Error(), "-Q15", "", 1) != ferr.Error() {
					t.Fatalf("%s: too-short errors %q and %q differ", label, ferr, qerr)
				}
			case fs.Blocks != qs.Blocks:
				t.Fatalf("%s: Stats.Blocks %d (float) vs %d (Q15)", label, fs.Blocks, qs.Blocks)
			}
			for _, e := range []scf.StreamingEstimator{c.float, c.q15} {
				acc, err := e.(scf.WindowEstimator).NewWindowAccumulator(n)
				if err != nil {
					t.Fatal(err)
				}
				if err := acc.Push(x[:n]); err != nil {
					t.Fatal(err)
				}
				_, st, err := acc.Snapshot()
				if acc.Ready() != (ferr == nil) || (err == nil) != (ferr == nil) {
					t.Fatalf("%s: %s accumulator Ready %v, Snapshot error %v; batch error %v", label, e.Name(), acc.Ready(), err, ferr)
				}
				if err == nil && st.Blocks != fs.Blocks {
					t.Fatalf("%s: %s accumulator Stats.Blocks %d, batch %d", label, e.Name(), st.Blocks, fs.Blocks)
				}
			}
		}
	}
}
