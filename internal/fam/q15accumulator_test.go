package fam

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// q15SnapshotQ15 extracts the native-Q15 snapshot from an accumulator
// produced by FAMQ15/SSCAQ15.NewAccumulator.
func q15SnapshotQ15(t *testing.T, acc scf.Accumulator) *scf.QSurface {
	t.Helper()
	type snapshotterQ15 interface {
		SnapshotQ15() (*scf.QSurface, *scf.Stats, error)
	}
	s, _, err := acc.(snapshotterQ15).SnapshotQ15()
	if err != nil {
		t.Fatalf("SnapshotQ15: %v", err)
	}
	return s
}

// TestQ15AccumulatorMatchesBatch is the streaming acceptance criterion:
// with a shared InputPeak, pushing a stream through the Q15 accumulators
// in ANY chunking and taking a snapshot yields bit-for-bit the batch
// EstimateQ15 surface of the concatenated prefix — words, exponent and
// gain — across windows, alpha pruning, scaling policies and batch
// Workers settings.
func TestQ15AccumulatorMatchesBatch(t *testing.T) {
	band := q15TestBand(t, 1600, 21)
	const peak = 1.5
	cases := []struct {
		name string
		fam  FAMQ15
		ssca SSCAQ15
	}{
		{
			name: "default",
			fam:  FAMQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak},
			ssca: SSCAQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak},
		},
		{
			name: "hann-uniform",
			fam: FAMQ15{Params: scf.Params{K: 64, M: 16, Window: fft.Hann},
				InputPeak: peak, Policy: fft.ScaleUniform},
			ssca: SSCAQ15{Params: scf.Params{K: 64, M: 16, Window: fft.Hann},
				InputPeak: peak, Policy: fft.ScaleUniform},
		},
		{
			name: "pruned",
			fam: FAMQ15{Params: scf.Params{K: 64, M: 16, AlphaCandidates: []int{0, 3, 8, 11}},
				InputPeak: peak},
			ssca: SSCAQ15{Params: scf.Params{K: 64, M: 16, AlphaCandidates: []int{0, 3, 8, 11}},
				InputPeak: peak},
		},
		{
			name: "ssca-fixed-n",
			fam:  FAMQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak},
			ssca: SSCAQ15{Params: scf.Params{K: 64, M: 16}, N: 256, InputPeak: peak},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			famRef, _, err := tc.fam.EstimateQ15(band)
			if err != nil {
				t.Fatal(err)
			}
			sscaRef, _, err := tc.ssca.EstimateQ15(band)
			if err != nil {
				t.Fatal(err)
			}
			// The accumulator snapshot runs serially; the batch surface
			// must not depend on Workers for the comparison to be fair
			// game at any setting.
			for _, w := range []int{1, 4, 8} {
				fw, sw := tc.fam, tc.ssca
				fw.Workers, sw.Workers = w, w
				qf, _, err := fw.EstimateQ15(band)
				if err != nil {
					t.Fatal(err)
				}
				if ok, diff := famRef.Equal(qf); !ok {
					t.Fatalf("FAM-Q15 batch Workers=%d differs: %s", w, diff)
				}
				qs, _, err := sw.EstimateQ15(band)
				if err != nil {
					t.Fatal(err)
				}
				if ok, diff := sscaRef.Equal(qs); !ok {
					t.Fatalf("SSCA-Q15 batch Workers=%d differs: %s", w, diff)
				}
			}
			for _, chunk := range [][]int{{len(band)}, {1}, {7, 19}, {64}, {333}} {
				facc, err := tc.fam.NewAccumulator()
				if err != nil {
					t.Fatal(err)
				}
				pushChunks(t, facc, band, chunk)
				if ok, diff := famRef.Equal(q15SnapshotQ15(t, facc)); !ok {
					t.Errorf("FAM-Q15 chunks=%v snapshot differs from batch: %s", chunk, diff)
				}
				sacc, err := tc.ssca.NewAccumulator()
				if err != nil {
					t.Fatal(err)
				}
				pushChunks(t, sacc, band, chunk)
				if ok, diff := sscaRef.Equal(q15SnapshotQ15(t, sacc)); !ok {
					t.Errorf("SSCA-Q15 chunks=%v snapshot differs from batch: %s", chunk, diff)
				}
			}
		})
	}
}

// TestQ15AccumulatorMidStream snapshots at several stream positions and
// checks each against the batch estimator on exactly the samples pushed
// so far — the non-consuming-snapshot contract plus prefix equivalence.
func TestQ15AccumulatorMidStream(t *testing.T) {
	band := q15TestBand(t, 2000, 22)
	const peak = 1.5
	fam := FAMQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak}
	ssca := SSCAQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: peak}
	facc, err := fam.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	sacc, err := ssca.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	marks := []int{200, 500, 1234, 2000}
	prev := 0
	for _, mark := range marks {
		if err := facc.Push(band[prev:mark]); err != nil {
			t.Fatal(err)
		}
		if err := sacc.Push(band[prev:mark]); err != nil {
			t.Fatal(err)
		}
		prev = mark
		if facc.Samples() != mark || sacc.Samples() != mark {
			t.Fatalf("Samples() = %d, %d after %d pushed", facc.Samples(), sacc.Samples(), mark)
		}
		ref, _, err := fam.EstimateQ15(band[:mark])
		if err != nil {
			t.Fatal(err)
		}
		got := q15SnapshotQ15(t, facc)
		if ok, diff := ref.Equal(got); !ok {
			t.Errorf("FAM-Q15 snapshot at %d differs from batch prefix: %s", mark, diff)
		}
		// Snapshot again: must repeat bit-for-bit (non-consuming).
		if ok, diff := got.Equal(q15SnapshotQ15(t, facc)); !ok {
			t.Errorf("FAM-Q15 repeated snapshot at %d differs: %s", mark, diff)
		}
		sref, _, err := ssca.EstimateQ15(band[:mark])
		if err != nil {
			t.Fatal(err)
		}
		sgot := q15SnapshotQ15(t, sacc)
		if ok, diff := sref.Equal(sgot); !ok {
			t.Errorf("SSCA-Q15 snapshot at %d differs from batch prefix: %s", mark, diff)
		}
		if ok, diff := sgot.Equal(q15SnapshotQ15(t, sacc)); !ok {
			t.Errorf("SSCA-Q15 repeated snapshot at %d differs: %s", mark, diff)
		}
	}
}

// TestQ15AccumulatorResetAndReuse checks Reset returns the accumulator
// to its initial state: re-pushing the same stream reproduces the same
// bits, and a too-short stream errors the same way as a fresh one.
func TestQ15AccumulatorResetAndReuse(t *testing.T) {
	band := q15TestBand(t, 800, 23)
	for _, e := range []scf.StreamingEstimator{
		FAMQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: 1.5},
		SSCAQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: 1.5},
	} {
		acc, err := e.NewAccumulator()
		if err != nil {
			t.Fatal(err)
		}
		pushChunks(t, acc, band, []int{100})
		first := q15SnapshotQ15(t, acc)
		acc.Reset()
		if acc.Samples() != 0 || acc.Ready() {
			t.Fatalf("%s: Samples=%d Ready=%v after Reset", acc.Name(), acc.Samples(), acc.Ready())
		}
		if _, _, err := acc.Snapshot(); err == nil {
			t.Fatalf("%s: Snapshot after Reset should error", acc.Name())
		}
		pushChunks(t, acc, band, []int{17})
		if ok, diff := first.Equal(q15SnapshotQ15(t, acc)); !ok {
			t.Errorf("%s: post-Reset replay differs: %s", acc.Name(), diff)
		}
	}
}

// TestQ15AccumulatorRequiresInputPeak pins the streaming front-door
// contract: without a fixed conditioning reference the quantiser cannot
// be chunk-independent, so NewAccumulator must refuse.
func TestQ15AccumulatorRequiresInputPeak(t *testing.T) {
	if _, err := (FAMQ15{Params: scf.Params{K: 64, M: 16}}).NewAccumulator(); err == nil {
		t.Error("FAM-Q15 NewAccumulator without InputPeak should error")
	}
	if _, err := (SSCAQ15{Params: scf.Params{K: 64, M: 16}}).NewAccumulator(); err == nil {
		t.Error("SSCA-Q15 NewAccumulator without InputPeak should error")
	}
	if _, err := (FAMQ15{Params: scf.Params{K: 64, M: 16}, InputPeak: -1}).NewAccumulator(); err == nil {
		t.Error("FAM-Q15 NewAccumulator with negative InputPeak should error")
	}
	if _, err := (SSCAQ15{Params: scf.Params{K: 64, M: 16}, N: 96, InputPeak: 1}).NewAccumulator(); err == nil {
		t.Error("SSCA-Q15 NewAccumulator with non-power-of-two N should error")
	}
	if _, err := (SSCAQ15{Params: scf.Params{K: 64, M: 16}, N: 32, InputPeak: 1}).NewAccumulator(); err == nil {
		t.Error("SSCA-Q15 NewAccumulator with N < K should error")
	}
}

// TestSSCAQ15AccumulatorBoundedMemory checks the fixed-N contract: the
// accumulator is capped at the N+K-1 samples the estimate reads, so once
// they are buffered further pushes only advance the sample counter, and
// the snapshot stays pinned to that prefix — matching batch on it, not
// on the whole stream.
func TestSSCAQ15AccumulatorBoundedMemory(t *testing.T) {
	band := q15TestBand(t, 1500, 24)
	e := SSCAQ15{Params: scf.Params{K: 64, M: 16}, N: 128, InputPeak: 1.5}
	acc, err := e.NewAccumulator()
	if err != nil {
		t.Fatal(err)
	}
	pushChunks(t, acc, band, []int{97})
	if acc.Samples() != len(band) {
		t.Fatalf("Samples() = %d, want %d", acc.Samples(), len(band))
	}
	need := e.N + 64 - 1
	ref, _, err := e.EstimateQ15(band[:need])
	if err != nil {
		t.Fatal(err)
	}
	if ok, diff := ref.Equal(q15SnapshotQ15(t, acc)); !ok {
		t.Errorf("fixed-N snapshot differs from batch on first %d samples: %s", need, diff)
	}
	if inner := acc.(*q15Window); len(inner.span) != need || cap(inner.span) != need {
		t.Errorf("fixed-N buffers %d samples (cap %d), want exactly N+K-1 = %d", len(inner.span), cap(inner.span), need)
	}
}
