package stream

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// fixedDecider thresholds the CFD statistic over |a| >= 2 at 0.25, so
// a decision's statistic is comparable with the batch CFDStatistic.
func fixedDecider(t testing.TB) detect.Decider {
	t.Helper()
	d, err := detect.NewDecider("fixed", detect.DeciderParams{MinAbsA: 2, Threshold: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// bpskBand synthesises a deterministic BPSK-in-noise band.
func bpskBand(t testing.TB, n int, carrier float64, snrDB float64, seed uint64) []complex128 {
	t.Helper()
	rng := sig.NewRand(seed)
	b := &sig.BPSK{Amp: 1, Carrier: carrier, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, n)
	noisy, _, err := sig.AddAWGN(x, snrDB, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return noisy
}

// noiseBand synthesises a deterministic noise-only band.
func noiseBand(t testing.TB, n int, seed uint64) []complex128 {
	t.Helper()
	return sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: sig.NewRand(seed)}, n)
}

// TestEngineStreamingMatchesBatchConcurrent is the golden multi-channel
// equivalence test: 8 channels fed concurrently in ragged chunks, one
// decision each, and every decision's statistic must equal — exactly, in
// floating point — the batch-pipeline statistic over the same samples.
// Run under -race this is also the engine's central concurrency test.
func TestEngineStreamingMatchesBatchConcurrent(t *testing.T) {
	const window = 4096
	estimators := map[string]scf.StreamingEstimator{
		"direct": scf.Direct{Params: scf.Params{K: 64, M: 16, Blocks: window / 64}},
		"fam":    fam.FAM{Params: scf.Params{K: 64, M: 16}},
		"ssca":   fam.SSCA{Params: scf.Params{K: 64, M: 16}},
	}
	for name, est := range estimators {
		t.Run(name, func(t *testing.T) {
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
			const nch = 8
			bands := make(map[string][]complex128, nch)
			for i := 0; i < nch; i++ {
				id := fmt.Sprintf("ch%d", i)
				bands[id] = bpskBand(t, window, float64(i+4)/64, 6, uint64(100+i))
				if err := e.AddChannel(id); err != nil {
					t.Fatal(err)
				}
			}
			var wg sync.WaitGroup
			for id, band := range bands {
				wg.Add(1)
				go func(id string, band []complex128) {
					defer wg.Done()
					// Ragged chunk sizes exercise buffering paths.
					for i, c := 0, 0; i < len(band); c++ {
						n := []int{1, 63, 500, 64, 1024}[c%5]
						if i+n > len(band) {
							n = len(band) - i
						}
						if _, err := e.Push(id, band[i:i+n]); err != nil {
							t.Error(err)
							return
						}
						i += n
					}
				}(id, band)
			}
			wg.Wait()
			if err := e.Flush(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			for id, band := range bands {
				cs, ok := e.ChannelStats(id)
				if !ok || cs.Last == nil {
					t.Fatalf("%s: no decision (stats %+v)", id, cs)
				}
				surface, _, err := est.Estimate(band)
				if err != nil {
					t.Fatal(err)
				}
				want, err := detect.CFDStatistic(surface, 2)
				if err != nil {
					t.Fatal(err)
				}
				if cs.Last.Statistic != want {
					t.Fatalf("%s: streaming statistic %v != batch %v (not bit-identical)",
						id, cs.Last.Statistic, want)
				}
				if cs.Last.WindowSamples != window {
					t.Fatalf("%s: window covered %d samples, want %d", id, cs.Last.WindowSamples, window)
				}
				if cs.SamplesDropped != 0 {
					t.Fatalf("%s: dropped %d samples in backpressure mode", id, cs.SamplesDropped)
				}
			}
		})
	}
}

// TestEngineWindowedDecisionsTrackOccupancy: a licensed user appearing
// mid-stream flips the CFAR verdict from idle to occupied and back — the
// monitoring loop the engine exists for.
func TestEngineWindowedDecisionsTrackOccupancy(t *testing.T) {
	const window = 2048
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: window,
		Block:           true,
		MinAbsA:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("band0"); err != nil {
		t.Fatal(err)
	}
	// Timeline: 2 idle windows, 3 occupied (BPSK at 6 dB), 2 idle.
	truth := []bool{false, false, true, true, true, false, false}
	for w, busy := range truth {
		var seg []complex128
		if busy {
			seg = bpskBand(t, window, 8.0/64, 6, uint64(200+w))
		} else {
			seg = noiseBand(t, window, uint64(200+w))
		}
		if _, err := e.Push("band0", seg); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Decision
	for d := range e.Decisions() {
		got = append(got, d)
	}
	if len(got) != len(truth) {
		t.Fatalf("%d decisions, want %d: %+v", len(got), len(truth), got)
	}
	for i, d := range got {
		if d.Seq != int64(i) {
			t.Fatalf("decision %d has Seq %d", i, d.Seq)
		}
		if d.Detected != truth[i] {
			t.Fatalf("window %d: detected=%v (stat %.3f vs %.3f), want %v",
				i, d.Detected, d.Statistic, d.Threshold, truth[i])
		}
	}
	cs, _ := e.ChannelStats("band0")
	if cs.Snapshots != int64(len(truth)) || cs.Detections != 3 {
		t.Fatalf("channel stats %+v, want 7 snapshots / 3 detections", cs)
	}
}

// TestEngineDropAccounting: in drop mode a push larger than the ring
// discards the overflow and accounts for it exactly.
func TestEngineDropAccounting(t *testing.T) {
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: 1024,
		RingSamples:     1024,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddChannel("hot"); err != nil {
		t.Fatal(err)
	}
	big := noiseBand(t, 10*1024, 1)
	accepted, err := e.Push("hot", big)
	if err != nil {
		t.Fatal(err)
	}
	if accepted > 1024 {
		t.Fatalf("accepted %d > ring capacity 1024", accepted)
	}
	cs, _ := e.ChannelStats("hot")
	if cs.SamplesDropped != int64(len(big)-accepted) {
		t.Fatalf("dropped %d, want %d", cs.SamplesDropped, len(big)-accepted)
	}
	s := e.Stats()
	if s.SamplesIn != int64(accepted) || s.SamplesDropped != cs.SamplesDropped {
		t.Fatalf("engine stats %+v inconsistent with channel stats %+v", s, cs)
	}
}

// TestEngineBackpressureLosesNothing: with Block set, pushing far more
// than the ring holds processes every sample.
func TestEngineBackpressureLosesNothing(t *testing.T) {
	const window = 1024
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: window,
		RingSamples:     window,
		Block:           true,
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddChannel("bp"); err != nil {
		t.Fatal(err)
	}
	const total = 16 * window
	band := noiseBand(t, total, 2)
	for i := 0; i < total; i += 700 {
		end := i + 700
		if end > total {
			end = total
		}
		if n, err := e.Push("bp", band[i:end]); err != nil || n != end-i {
			t.Fatalf("Push accepted %d of %d, err %v", n, end-i, err)
		}
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cs, _ := e.ChannelStats("bp")
	if cs.SamplesIn != total || cs.SamplesDropped != 0 {
		t.Fatalf("in=%d dropped=%d, want in=%d dropped=0", cs.SamplesIn, cs.SamplesDropped, total)
	}
	if cs.Snapshots != total/window {
		t.Fatalf("%d snapshots, want %d", cs.Snapshots, total/window)
	}
}

// TestEngineConcurrentDropAccountingExact hammers drop mode with many
// concurrent producers on undersized rings and checks the overflow
// accounting stays exact: what every Push reported accepted equals
// SamplesIn, the remainder equals SamplesDropped, per channel and
// engine-wide. Run under -race this is the overload-path concurrency
// test.
func TestEngineConcurrentDropAccountingExact(t *testing.T) {
	const (
		window    = 1024
		nch       = 8
		producers = 4 // per channel
		pushes    = 40
		chunk     = 700
	)
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: window,
		RingSamples:     window, // deliberately tight: overflow is the point
		Workers:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	band := noiseBand(t, chunk, 3)
	var accepted [nch]int64
	var wg sync.WaitGroup
	for c := 0; c < nch; c++ {
		id := fmt.Sprintf("ch%d", c)
		if err := e.AddChannel(id); err != nil {
			t.Fatal(err)
		}
		for p := 0; p < producers; p++ {
			wg.Add(1)
			go func(c int, id string) {
				defer wg.Done()
				for i := 0; i < pushes; i++ {
					n, err := e.Push(id, band)
					if err != nil {
						t.Error(err)
						return
					}
					atomic.AddInt64(&accepted[c], int64(n))
				}
			}(c, id)
		}
	}
	wg.Wait()
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	const pushedPerChannel = int64(producers * pushes * chunk)
	var wantIn, wantDropped int64
	for c := 0; c < nch; c++ {
		id := fmt.Sprintf("ch%d", c)
		cs, ok := e.ChannelStats(id)
		if !ok {
			t.Fatalf("no stats for %s", id)
		}
		if cs.SamplesIn != accepted[c] {
			t.Fatalf("%s: SamplesIn %d != sum of Push returns %d", id, cs.SamplesIn, accepted[c])
		}
		if cs.SamplesIn+cs.SamplesDropped != pushedPerChannel {
			t.Fatalf("%s: in %d + dropped %d != pushed %d",
				id, cs.SamplesIn, cs.SamplesDropped, pushedPerChannel)
		}
		if cs.SamplesDropped == 0 {
			t.Fatalf("%s: nothing dropped — ring not actually overloaded", id)
		}
		wantIn += cs.SamplesIn
		wantDropped += cs.SamplesDropped
	}
	s := e.Stats()
	if s.SamplesIn != wantIn || s.SamplesDropped != wantDropped {
		t.Fatalf("engine totals in=%d dropped=%d != channel sums in=%d dropped=%d",
			s.SamplesIn, s.SamplesDropped, wantIn, wantDropped)
	}
	if s.SamplesIn+s.SamplesDropped != int64(nch)*pushedPerChannel {
		t.Fatalf("engine in+dropped = %d, want %d", s.SamplesIn+s.SamplesDropped, int64(nch)*pushedPerChannel)
	}
	if s.QueuedSamples != 0 {
		t.Fatalf("QueuedSamples %d after Flush, want 0", s.QueuedSamples)
	}
}

// TestEngineRemoveChannelFlushesPartialWindow: RemoveChannel quiesces,
// turns the partially integrated window into one final (shorter)
// decision, returns the final stats, and frees the id for fresh
// re-registration — the ownership-handoff contract sharding relies on.
func TestEngineRemoveChannelFlushesPartialWindow(t *testing.T) {
	const window = 2048
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: window,
		Block:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddChannel("mv"); err != nil {
		t.Fatal(err)
	}
	// 1.5 windows: one full decision plus a half-window residue.
	band := bpskBand(t, window+window/2, 8.0/64, 6, 9)
	if _, err := e.Push("mv", band); err != nil {
		t.Fatal(err)
	}
	cs, err := e.RemoveChannel("mv", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cs.SamplesIn != int64(len(band)) {
		t.Fatalf("final SamplesIn %d, want %d", cs.SamplesIn, len(band))
	}
	if cs.Snapshots != 2 {
		t.Fatalf("final Snapshots %d, want 2 (full + flushed partial)", cs.Snapshots)
	}
	if cs.Last == nil || cs.Last.WindowSamples != window/2 {
		t.Fatalf("last decision %+v, want partial window of %d samples", cs.Last, window/2)
	}
	if cs.Last.Seq != 1 {
		t.Fatalf("last Seq %d, want 1", cs.Last.Seq)
	}
	if _, err := e.Push("mv", band[:8]); err == nil {
		t.Fatal("Push to removed channel succeeded")
	}
	if _, err := e.RemoveChannel("mv", time.Second); err == nil {
		t.Fatal("second RemoveChannel succeeded")
	}
	// The id is reusable with fresh state.
	if err := e.AddChannel("mv"); err != nil {
		t.Fatalf("re-AddChannel after remove: %v", err)
	}
	if _, err := e.Push("mv", band[:window]); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	fresh, ok := e.ChannelStats("mv")
	if !ok || fresh.SamplesIn != window || fresh.Snapshots != 1 {
		t.Fatalf("re-registered channel stats %+v, want fresh state with 1 window", fresh)
	}
	if fresh.Last.Seq != 0 {
		t.Fatalf("re-registered channel Seq %d, want 0", fresh.Last.Seq)
	}
}

// TestEngineRemoveChannelShortResidue: a residue too short for the
// estimator to snapshot produces no final decision — dropped cleanly,
// never double-counted.
func TestEngineRemoveChannelShortResidue(t *testing.T) {
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: 2048,
		Block:           true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddChannel("stub"); err != nil {
		t.Fatal(err)
	}
	// 32 samples < one K=64 block: the accumulator never becomes Ready.
	if _, err := e.Push("stub", noiseBand(t, 32, 5)); err != nil {
		t.Fatal(err)
	}
	cs, err := e.RemoveChannel("stub", 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Snapshots != 0 || cs.Last != nil {
		t.Fatalf("stats %+v, want no decisions for a sub-block residue", cs)
	}
}

// TestEngineLifecycleErrors covers the administrative error paths.
func TestEngineLifecycleErrors(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without estimator succeeded")
	}
	if _, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: 100,
		RingSamples:     50,
	}); err == nil {
		t.Fatal("New with ring smaller than window succeeded")
	}
	e, err := New(Config{Estimator: scf.Direct{Params: scf.Params{K: 64, M: 16}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("a"); err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("a"); err == nil {
		t.Fatal("duplicate AddChannel succeeded")
	}
	if _, err := e.Push("nope", make([]complex128, 8)); err == nil {
		t.Fatal("Push to unknown channel succeeded")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Push("a", make([]complex128, 8)); err != ErrClosed {
		t.Fatalf("Push after Close: %v, want ErrClosed", err)
	}
	if err := e.AddChannel("b"); err != ErrClosed {
		t.Fatalf("AddChannel after Close: %v, want ErrClosed", err)
	}
	if _, open := <-e.Decisions(); open {
		t.Fatal("Decisions channel still open after Close")
	}
}

// TestEngineCumulativeKeepsIntegrating: in cumulative mode each decision
// covers the whole stream so far, matching the batch estimate over the
// growing prefix.
func TestEngineCumulativeKeepsIntegrating(t *testing.T) {
	const window = 1024
	est := fam.FAM{Params: scf.Params{K: 64, M: 16}}
	e, err := New(Config{
		Estimator:       est,
		SnapshotSamples: window,
		Block:           true,
		Cumulative:      true,
		Decider:         fixedDecider(t),
		MinAbsA:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	band := bpskBand(t, 4*window, 8.0/64, 6, 77)
	if err := e.AddChannel("cum"); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 4; w++ {
		if _, err := e.Push("cum", band[w*window:(w+1)*window]); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var decs []Decision
	for d := range e.Decisions() {
		decs = append(decs, d)
	}
	if len(decs) != 4 {
		t.Fatalf("%d decisions, want 4", len(decs))
	}
	for w, d := range decs {
		if d.WindowSamples != (w+1)*window {
			t.Fatalf("decision %d integrates %d samples, want %d", w, d.WindowSamples, (w+1)*window)
		}
		surface, _, err := est.Estimate(band[:(w+1)*window])
		if err != nil {
			t.Fatal(err)
		}
		want, err := detect.CFDStatistic(surface, 2)
		if err != nil {
			t.Fatal(err)
		}
		if d.Statistic != want {
			t.Fatalf("decision %d statistic %v != batch prefix %v", w, d.Statistic, want)
		}
	}
}

// TestEngineCountsFailedWindows: a due window whose decision fails is
// counted in Stats.WindowsFailed instead of vanishing. Under urriza an
// all-zero window has a singular branch correlation matrix, so after a
// noise window and an all-zero one the engine has made one decision,
// Surfaces is 1 and WindowsFailed is 1.
func TestEngineCountsFailedWindows(t *testing.T) {
	const window = 2048
	p := scf.Params{K: 64, M: 16, AlphaCandidates: []int{4, 8}}
	dec, err := detect.NewDecider("urriza", detect.DeciderParams{Scf: p})
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{
		Estimator:       fam.FAM{Params: scf.Params{K: 64, M: 16}},
		AlphaCandidates: p.AlphaCandidates,
		SnapshotSamples: window,
		Block:           true,
		Decider:         dec,
		MinAbsA:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("quiet"); err != nil {
		t.Fatal(err)
	}
	for _, seg := range [][]complex128{noiseBand(t, window, 31), make([]complex128, window)} {
		if _, err := e.Push("quiet", seg); err != nil {
			t.Fatal(err)
		}
		if err := e.Flush(10 * time.Second); err != nil {
			t.Fatal(err)
		}
	}
	st := e.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Decision
	for d := range e.Decisions() {
		got = append(got, d)
	}
	if len(got) != 1 || got[0].Seq != 0 {
		t.Fatalf("decisions %+v, want only the noise window's", got)
	}
	if st.Surfaces != 1 || st.WindowsFailed != 1 {
		t.Fatalf("Surfaces %d, WindowsFailed %d, want 1 and 1", st.Surfaces, st.WindowsFailed)
	}
}

// TestEngineYieldsToLaggingConsumer: on a single P the worker never
// blocks while windows are due, so the consumer runs only when the
// worker yields. A burst of decisions far larger than the buffer must
// still all arrive, because emitting past half a buffer yields to the
// consumer.
func TestEngineYieldsToLaggingConsumer(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const window, windows = 256, 96
	e, err := New(Config{
		Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
		SnapshotSamples: window,
		RingSamples:     window * windows,
		Block:           true,
		Workers:         1,
		Decider:         fixedDecider(t),
		DecisionBuffer:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("burst"); err != nil {
		t.Fatal(err)
	}
	got := make(chan int)
	go func() {
		n := 0
		for range e.Decisions() {
			n++
		}
		got <- n
	}()
	if _, err := e.Push("burst", noiseBand(t, window*windows, 9)); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != windows || st.DecisionsDropped != 0 {
		t.Fatalf("%d of %d decisions arrived, %d dropped", n, windows, st.DecisionsDropped)
	}
}
