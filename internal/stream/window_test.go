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

// TestEngineHeldBytes: at the stream-ssca geometry (SSCA, K=256, M=64,
// W=2048) a channel holds its ring and the accumulator's 1279-sample
// span, 16·len(ring) + 20,464 B, after a window; a channel with the
// sample-based dg decider also holds its 2048-sample window buffer. The
// engine's HeldBytes is the sum of its channels'.
func TestEngineHeldBytes(t *testing.T) {
	const window, span = 2048, 1024 + 255
	p := scf.Params{K: 256, M: 64}
	e, err := New(Config{Estimator: fam.SSCA{Params: p}, SnapshotSamples: window, Block: true})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	dgp := p
	dgp.AlphaCandidates = []int{16, 32}
	dg, err := detect.NewDecider("dg", detect.DeciderParams{Scf: dgp, MinAbsA: 2, TargetPfa: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	winBytes := map[string]int{"cfar-0": 0, "cfar-1": 0, "dg": 16 * window}
	for id := range winBytes {
		var dec detect.Decider
		if id == "dg" {
			dec = dg
		}
		if err := e.AddChannelDecider(id, nil, dec); err != nil {
			t.Fatal(err)
		}
		if _, err := e.Push(id, bpskBand(t, window, 8.0/256, 6, 40)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	var sum int64
	for id, win := range winBytes {
		e.mu.RLock()
		ch := e.channels[id]
		e.mu.RUnlock()
		ch.mu.Lock()
		ring := len(ch.ring)
		ch.mu.Unlock()
		cs, _ := e.ChannelStats(id)
		if cs.Snapshots != 1 {
			t.Fatalf("%s: %d decisions, want 1", id, cs.Snapshots)
		}
		if want := int64(16*ring + win + 16*span); cs.HeldBytes != want {
			t.Errorf("%s: holds %d B, want 16·%d (ring) + %d (window) + %d (span) = %d",
				id, cs.HeldBytes, ring, win, 16*span, want)
		}
		sum += cs.HeldBytes
	}
	if st := e.Stats(); st.HeldBytes != sum {
		t.Fatalf("Stats.HeldBytes %d, channels sum to %d", st.HeldBytes, sum)
	}
}
