package stream

import (
	"testing"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
)

// TestEngineRemoveChannelFlushesWindowBound: with the window-bound FAM
// and SSCA accumulators of windowed mode, RemoveChannel still turns a
// half window into one final, shorter decision, and that decision equals
// the batch estimate over the residue.
func TestEngineRemoveChannelFlushesWindowBound(t *testing.T) {
	const window = 2048
	p := scf.Params{K: 64, M: 16}
	for _, est := range []scf.StreamingEstimator{fam.FAM{Params: p}, fam.SSCA{Params: p}} {
		t.Run(est.Name(), func(t *testing.T) {
			e, err := New(Config{
				Estimator:       est,
				SnapshotSamples: window,
				Block:           true,
				Decider:         fixedDecider(t), // statistic is CFDStatistic
				MinAbsA:         2,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			if err := e.AddChannel("mv"); err != nil {
				t.Fatal(err)
			}
			band := bpskBand(t, window+window/2, 8.0/64, 6, 19)
			if _, err := e.Push("mv", band); err != nil {
				t.Fatal(err)
			}
			cs, err := e.RemoveChannel("mv", 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Snapshots != 2 || cs.Last == nil || cs.Last.WindowSamples != window/2 {
				t.Fatalf("stats %+v, want a full decision plus a flushed %d-sample one", cs, window/2)
			}
			surface, _, err := est.Estimate(band[window:])
			if err != nil {
				t.Fatal(err)
			}
			want, err := detect.CFDStatistic(surface, 2)
			if err != nil {
				t.Fatal(err)
			}
			if cs.Last.Statistic != want {
				t.Fatalf("flushed statistic %v != batch residue %v", cs.Last.Statistic, want)
			}
		})
	}
}

// TestWindowAccumulatorSteadyCycleAllocsNothing: once the first window
// has sized its buffers, a windowed channel's Push+Reset cycle (the
// engine's accumulator, fed in drain-sized chunks) allocates nothing,
// the Q15 channels' span folds included.
func TestWindowAccumulatorSteadyCycleAllocsNothing(t *testing.T) {
	const window = 8192
	p := scf.Params{K: 64, M: 16}
	band := noiseBand(t, window, 23)
	for _, c := range []struct {
		name   string
		est    scf.StreamingEstimator
		alphas []int
	}{
		{"fam", fam.FAM{Params: p}, nil},
		{"fam-pruned", fam.FAM{Params: p}, []int{3, 8, 11}},
		{"ssca", fam.SSCA{Params: p}, nil},
		{"fam-q15", fam.FAMQ15{Params: p, InputPeak: 4}, nil},
		{"ssca-q15", fam.SSCAQ15{Params: p, InputPeak: 4}, nil},
	} {
		acc, err := accumulatorFor(c.est, c.alphas, window)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			for off := 0; off < window; off += drainChunk {
				if err := acc.Push(band[off : off+drainChunk]); err != nil {
					t.Fatal(err)
				}
			}
			acc.Reset()
		}
		cycle()
		if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
			t.Errorf("%s: window Push+Reset allocates %v objects per cycle", c.name, allocs)
		}
	}
}
