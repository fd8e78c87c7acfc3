package fam

import (
	"fmt"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// snapshot returns acc's snapshot surface, failing the test on error.
func snapshot(t *testing.T, acc scf.Accumulator) *scf.Surface {
	t.Helper()
	s, _, err := acc.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	return s
}

// TestQ15AccumulatorMatchesBatch is the streaming acceptance criterion:
// with a shared InputPeak, pushing a stream through the Q15 accumulators
// in ANY chunking and taking a snapshot yields bit-for-bit the batch
// Estimate surface of the concatenated prefix, across windows, alpha
// pruning and scaling policies; and the batch EstimateQ15 words,
// exponent and gain do not depend on Workers.
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
			for _, e := range []scf.StreamingEstimator{tc.fam, tc.ssca} {
				want, _, err := e.Estimate(band)
				if err != nil {
					t.Fatal(err)
				}
				for _, chunk := range [][]int{{len(band)}, {1}, {7, 19}, {64}, {333}} {
					acc, err := e.NewAccumulator()
					if err != nil {
						t.Fatal(err)
					}
					pushChunks(t, acc, band, chunk)
					requireIdentical(t, snapshot(t, acc), want, fmt.Sprintf("%s chunks=%v snapshot vs batch", e.Name(), chunk))
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
		ref, _, err := fam.Estimate(band[:mark])
		if err != nil {
			t.Fatal(err)
		}
		got := snapshot(t, facc)
		requireIdentical(t, got, ref, fmt.Sprintf("FAM-Q15 snapshot at %d vs batch prefix", mark))
		// Snapshot again: must repeat bit-for-bit (non-consuming).
		requireIdentical(t, snapshot(t, facc), got, fmt.Sprintf("FAM-Q15 repeated snapshot at %d", mark))
		sref, _, err := ssca.Estimate(band[:mark])
		if err != nil {
			t.Fatal(err)
		}
		sgot := snapshot(t, sacc)
		requireIdentical(t, sgot, sref, fmt.Sprintf("SSCA-Q15 snapshot at %d vs batch prefix", mark))
		requireIdentical(t, snapshot(t, sacc), sgot, fmt.Sprintf("SSCA-Q15 repeated snapshot at %d", mark))
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
		first := snapshot(t, acc)
		acc.Reset()
		if acc.Samples() != 0 || acc.Ready() {
			t.Fatalf("%s: Samples=%d Ready=%v after Reset", acc.Name(), acc.Samples(), acc.Ready())
		}
		if _, _, err := acc.Snapshot(); err == nil {
			t.Fatalf("%s: Snapshot after Reset should error", acc.Name())
		}
		pushChunks(t, acc, band, []int{17})
		requireIdentical(t, snapshot(t, acc), first, acc.Name()+" post-Reset replay")
	}
}

// TestQ15AccumulatorRequiresInputPeak pins the streaming front door:
// streaming requires no InputPeak. The fold quantises the span it reads,
// so without InputPeak a snapshot conditions on the span's measured
// peak, and in any chunking equals Estimate over the samples pushed.
// Only an invalid InputPeak or N is refused.
func TestQ15AccumulatorRequiresInputPeak(t *testing.T) {
	band := q15TestBand(t, 900, 25)
	for _, e := range []scf.StreamingEstimator{
		FAMQ15{Params: scf.Params{K: 64, M: 16}},
		SSCAQ15{Params: scf.Params{K: 64, M: 16}},
	} {
		want, _, err := e.Estimate(band)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range [][]int{{len(band)}, {13, 200}} {
			acc, err := e.NewAccumulator()
			if err != nil {
				t.Fatalf("%s NewAccumulator without InputPeak: %v", e.Name(), err)
			}
			pushChunks(t, acc, band, chunk)
			requireIdentical(t, snapshot(t, acc), want, fmt.Sprintf("%s without InputPeak, chunks=%v", e.Name(), chunk))
		}
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
	ref, _, err := e.Estimate(band[:need])
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, snapshot(t, acc), ref, fmt.Sprintf("fixed-N snapshot vs batch on the first %d samples", need))
	if got := acc.(interface{ HeldBytes() int }).HeldBytes(); got != 16*need {
		t.Errorf("fixed-N holds %d bytes, want exactly N+K-1 = %d samples (%d bytes)", got, need, 16*need)
	}
}
