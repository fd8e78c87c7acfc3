package fam

import (
	"testing"

	"tiledcfd/internal/scf"
)

// requireStripsIdentical asserts every row a pruned surface holds is
// bit-identical to the same row of the full-plane surface — the
// tentpole's correctness contract for the channelizer estimators.
func requireStripsIdentical(t *testing.T, pruned, full *scf.Surface, label string) {
	t.Helper()
	if !pruned.Pruned() {
		t.Fatalf("%s: surface is not pruned", label)
	}
	for _, a := range pruned.AlphaValues() {
		got, want := pruned.Row(a), full.Row(a)
		for f := range want {
			if got[f] != want[f] {
				t.Fatalf("%s: row a=%d cell %d = %v, want %v (not bit-identical)",
					label, a, f, got[f], want[f])
			}
		}
	}
}

// TestPrunedEstimatorsMatchFull: for all three float estimators the
// alpha-pruned batch surface holds exactly the candidate rows (plus
// mirrors and a=0), every held cell bit-identical to the full-plane
// estimate, and the pruned accumulators reproduce the batch result
// bit-for-bit under arbitrary stream chunkings.
func TestPrunedEstimatorsMatchFull(t *testing.T) {
	alphas := []int{4, 8, 3, 10}
	cases := []struct {
		name    string
		e       scf.CandidateEstimator
		samples int
	}{
		{"direct", scf.Direct{Params: scf.Params{K: 64, M: 16, Blocks: 8}}, 64 * 8},
		{"fam", FAM{Params: scf.Params{K: 64, M: 16}}, 64 + 31*16},
		{"ssca", SSCA{Params: scf.Params{K: 64, M: 16}, N: 128}, 64 + 127},
	}
	chunkings := [][]int{{1, 17, 90}, {41}, {64 * 8}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			x := streamBand(t, tc.samples, 21)
			full, fullStats, err := tc.e.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			se, err := tc.e.WithAlphaCandidates(alphas)
			if err != nil {
				t.Fatal(err)
			}
			want, wantStats, err := se.Estimate(x)
			if err != nil {
				t.Fatal(err)
			}
			if got := len(want.Data); got != 9 {
				t.Fatalf("pruned surface holds %d rows, want 9", got)
			}
			requireStripsIdentical(t, want, full, "pruned batch")
			if wantStats.DSCFMults >= fullStats.DSCFMults {
				t.Fatalf("pruned DSCFMults=%d not below full %d",
					wantStats.DSCFMults, fullStats.DSCFMults)
			}
			for _, sizes := range chunkings {
				acc, err := se.NewAccumulator()
				if err != nil {
					t.Fatal(err)
				}
				pushChunks(t, acc, x, sizes)
				if !acc.Ready() {
					t.Fatalf("chunks %v: not Ready after full input", sizes)
				}
				got, _, err := acc.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, got, want, "pruned snapshot")
				requireStripsIdentical(t, got, full, "pruned snapshot vs full plane")
			}
		})
	}
}

// TestWithAlphaCandidatesRejects: every candidate estimator surfaces the
// candidate-set validation errors and passes an empty set through as the
// unpruned estimator.
func TestWithAlphaCandidatesRejects(t *testing.T) {
	for _, e := range []scf.CandidateEstimator{
		scf.Direct{Params: scf.Params{K: 64, M: 16}},
		FAM{Params: scf.Params{K: 64, M: 16}},
		SSCA{Params: scf.Params{K: 64, M: 16}},
	} {
		for _, bad := range [][]int{{-1}, {16}, {7, 7}} {
			if _, err := e.WithAlphaCandidates(bad); err == nil {
				t.Fatalf("%s: WithAlphaCandidates(%v) accepted an invalid set", e.Name(), bad)
			}
		}
		se, err := e.WithAlphaCandidates(nil)
		if err != nil {
			t.Fatalf("%s: empty candidate set: %v", e.Name(), err)
		}
		x := streamBand(t, 64*8, 22)
		s, _, err := se.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pruned() {
			t.Fatalf("%s: empty candidate set produced a pruned surface", e.Name())
		}
	}
}

// TestQ15PrunedRowSets: the Q15 backends honour Params.AlphaCandidates —
// the quantised surface holds exactly the sparse row set, deterministic
// across runs and worker counts.
func TestQ15PrunedRowSets(t *testing.T) {
	p := scf.Params{K: 64, M: 16, AlphaCandidates: []int{4, 8, 3, 10}}
	held := p.SurfaceAlphas()
	x := streamBand(t, 64+31*16, 23)
	for _, tc := range []struct {
		name string
		est  func(workers int) (*scf.QSurface, error)
	}{
		{"fam-q15", func(w int) (*scf.QSurface, error) {
			q, _, err := FAMQ15{Params: p, Workers: w}.EstimateQ15(x)
			return q, err
		}},
		{"ssca-q15", func(w int) (*scf.QSurface, error) {
			q, _, err := SSCAQ15{Params: p, Workers: w, N: 128}.EstimateQ15(x[:64+127])
			return q, err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q, err := tc.est(1)
			if err != nil {
				t.Fatal(err)
			}
			if len(q.Alphas) != len(held) {
				t.Fatalf("holds rows %v, want %v", q.Alphas, held)
			}
			for i := range held {
				if q.Alphas[i] != held[i] {
					t.Fatalf("holds rows %v, want %v", q.Alphas, held)
				}
			}
			again, err := tc.est(4)
			if err != nil {
				t.Fatal(err)
			}
			if ok, why := q.Equal(again); !ok {
				t.Fatalf("not deterministic across worker counts: %s", why)
			}
		})
	}
}
