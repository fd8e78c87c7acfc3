package shard

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
	"tiledcfd/internal/stream"
)

const testWindow = 2048

// testConfig is a small-geometry router config with backpressure (so
// accounting tests lose nothing).
func testConfig(shards int) Config {
	return Config{
		Shards: shards,
		Engine: stream.Config{
			Estimator:       scf.Direct{Params: scf.Params{K: 64, M: 16}},
			SnapshotSamples: testWindow,
			Block:           true,
		},
		DecisionBuffer: 1 << 14,
	}
}

// band synthesises a deterministic noise band.
func band(t testing.TB, n int, seed uint64) []complex128 {
	t.Helper()
	return sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: sig.NewRand(seed)}, n)
}

// addChannels registers n channels and returns their ids.
func addChannels(t *testing.T, r *Router, n int) []string {
	t.Helper()
	ids := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch%02d", i)
		if err := r.AddChannel(ids[i]); err != nil {
			t.Fatal(err)
		}
	}
	return ids
}

// TestRouterPartitionsAcrossShards: channels spread over every shard,
// per-shard and aggregate stats (held bytes included) agree, ownership
// is deterministic.
func TestRouterPartitionsAcrossShards(t *testing.T) {
	r, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := addChannels(t, r, 32)
	for i, id := range ids {
		if _, err := r.Push(id, band(t, testWindow, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	ss := r.ShardStats()
	if len(ss) != 4 {
		t.Fatalf("%d shards, want 4", len(ss))
	}
	totalCh, totalIn, totalSurf, totalHeld := 0, int64(0), int64(0), int64(0)
	for _, s := range ss {
		if s.Channels == 0 {
			t.Fatalf("shard %s owns no channels — rendezvous spread failed", s.Name)
		}
		totalCh += s.Channels
		totalIn += s.Stats.SamplesIn
		totalSurf += s.Stats.Surfaces
		totalHeld += s.Stats.HeldBytes
	}
	if totalCh != len(ids) {
		t.Fatalf("shards own %d channels, want %d", totalCh, len(ids))
	}
	st := r.Stats()
	if st.SamplesIn != totalIn || st.SamplesIn != int64(len(ids))*testWindow {
		t.Fatalf("aggregate SamplesIn %d (shards sum %d), want %d",
			st.SamplesIn, totalIn, len(ids)*testWindow)
	}
	if st.Surfaces != totalSurf || st.Surfaces != int64(len(ids)) {
		t.Fatalf("aggregate Surfaces %d (shards sum %d), want %d", st.Surfaces, totalSurf, len(ids))
	}
	// Every channel holds at least its one-window ring.
	if st.HeldBytes != totalHeld || st.HeldBytes < int64(len(ids))*16*testWindow {
		t.Fatalf("aggregate HeldBytes %d (shards sum %d), want the sum and >= %d",
			st.HeldBytes, totalHeld, len(ids)*16*testWindow)
	}
	// Ownership is a pure function of (shard set, id): a second router
	// with the same config maps identically.
	r2, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	for _, id := range ids {
		if err := r2.AddChannel(id); err != nil {
			t.Fatal(err)
		}
		a, _ := r.ChannelStats(id)
		b, _ := r2.ChannelStats(id)
		if a.Shard != b.Shard {
			t.Fatalf("%s owned by %s and %s across identical routers", id, a.Shard, b.Shard)
		}
	}
}

// TestRouterRebalanceLosesNoWindows is the rebalancing acceptance test:
// growing the fleet mid-stream moves ownership without losing or
// double-counting a single decision window — every channel ends with
// exactly pushed/window decisions and exact sample accounting, and the
// merged decision stream carries each window once.
func TestRouterRebalanceLosesNoWindows(t *testing.T) {
	r, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := addChannels(t, r, 16)
	before := map[string]string{}
	for i, id := range ids {
		// Phase 1: two full windows per channel on the initial fleet.
		for w := 0; w < 2; w++ {
			if _, err := r.Push(id, band(t, testWindow, uint64(10*i+w))); err != nil {
				t.Fatal(err)
			}
		}
		cs, _ := r.ChannelStats(id)
		before[id] = cs.Shard
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	names, err := r.AddShards(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 2 {
		t.Fatalf("AddShards returned %v", names)
	}
	st := r.Stats()
	if st.Shards != 4 {
		t.Fatalf("%d shards after growth, want 4", st.Shards)
	}
	if st.Handoffs == 0 {
		t.Fatal("no handoffs on growth from 2 to 4 shards across 16 channels")
	}
	moved := 0
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok {
			t.Fatalf("channel %s lost in rebalance", id)
		}
		if cs.Shard != before[id] {
			moved++
			if cs.Handoffs == 0 {
				t.Fatalf("%s changed shard without a recorded handoff", id)
			}
		}
	}
	if moved == 0 {
		t.Fatal("no channel moved")
	}

	// Phase 2: two more windows per channel on the grown fleet.
	for i, id := range ids {
		for w := 0; w < 2; w++ {
			if _, err := r.Push(id, band(t, testWindow, uint64(1000+10*i+w))); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}

	// Exact per-channel accounting across the move: 4 windows in, 4
	// decisions out, nothing lost, nothing twice.
	for _, id := range ids {
		cs, _ := r.ChannelStats(id)
		if cs.SamplesIn != 4*testWindow {
			t.Fatalf("%s: SamplesIn %d, want %d", id, cs.SamplesIn, 4*testWindow)
		}
		if cs.Snapshots != 4 {
			t.Fatalf("%s: %d decision windows across the move, want exactly 4", id, cs.Snapshots)
		}
		if cs.SamplesDropped != 0 {
			t.Fatalf("%s: dropped %d in backpressure mode", id, cs.SamplesDropped)
		}
	}
	st = r.Stats()
	if st.Surfaces != int64(4*len(ids)) {
		t.Fatalf("aggregate Surfaces %d, want %d", st.Surfaces, 4*len(ids))
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The merged stream delivered each window exactly once (the buffer
	// is sized to drop nothing here).
	perChannel := map[string]int{}
	seqSeen := map[string]map[int64]bool{}
	for d := range r.Decisions() {
		perChannel[d.Channel]++
		if seqSeen[d.Channel] == nil {
			seqSeen[d.Channel] = map[int64]bool{}
		}
		key := d.Seq
		if d.Shard == before[d.Channel] {
			key = -1 - d.Seq // pre-move decisions count separately
		}
		if seqSeen[d.Channel][key] {
			t.Fatalf("%s: decision (shard %s, seq %d) delivered twice", d.Channel, d.Shard, d.Seq)
		}
		seqSeen[d.Channel][key] = true
	}
	if st.DecisionsDropped != 0 {
		t.Fatalf("merged stream dropped %d decisions despite the large buffer", st.DecisionsDropped)
	}
	for _, id := range ids {
		if perChannel[id] != 4 {
			t.Fatalf("%s: %d decisions in the merged stream, want 4", id, perChannel[id])
		}
	}
}

// TestRouterDrainShardFlushesPartialWindow: draining a shard forces its
// channels off with a quiesce; a partially integrated window becomes
// one final shorter decision, so the samples survive the move.
func TestRouterDrainShardFlushesPartialWindow(t *testing.T) {
	r, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := addChannels(t, r, 8)
	// 1.5 windows per channel: the half window is in-flight state.
	for i, id := range ids {
		if _, err := r.Push(id, band(t, testWindow+testWindow/2, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	preStats := r.Stats()
	victim := r.ShardStats()[0]
	if err := r.DrainShard(victim.Name); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Shards != 1 {
		t.Fatalf("%d shards after drain, want 1", st.Shards)
	}
	// Banked counters: totals never move backwards when a shard
	// retires.
	if st.SamplesIn != preStats.SamplesIn {
		t.Fatalf("SamplesIn moved %d -> %d across drain", preStats.SamplesIn, st.SamplesIn)
	}
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok {
			t.Fatalf("%s lost in drain", id)
		}
		if cs.Shard == victim.Name {
			t.Fatalf("%s still owned by drained shard", id)
		}
		if cs.SamplesIn != testWindow+testWindow/2 {
			t.Fatalf("%s: SamplesIn %d, want %d", id, cs.SamplesIn, testWindow+testWindow/2)
		}
		// Both full and (for ex-victim channels) flushed partial
		// windows: 2 decisions for moved channels, 1 full + residue
		// still pending for stayers.
		if moved := cs.Handoffs > 0; moved {
			if cs.Snapshots != 2 {
				t.Fatalf("%s (moved): %d decisions, want 2 (full + flushed partial)", id, cs.Snapshots)
			}
			if cs.Last == nil || cs.Last.WindowSamples != testWindow/2 {
				t.Fatalf("%s (moved): last decision %+v, want flushed half window", id, cs.Last)
			}
		} else if cs.Snapshots != 1 {
			t.Fatalf("%s (stayed): %d decisions, want 1", id, cs.Snapshots)
		}
	}
	if err := r.DrainShard(r.ShardStats()[0].Name); err == nil {
		t.Fatal("draining the last shard succeeded")
	}
}

// TestRouterConcurrentPushesDuringRebalance hammers the router with
// window-aligned concurrent pushes while the fleet grows and shrinks
// under it; afterwards the accounting must be exact. Run under -race
// this is the router's central concurrency test.
func TestRouterConcurrentPushesDuringRebalance(t *testing.T) {
	r, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	const nch, windows = 12, 24
	ids := addChannels(t, r, nch)
	blk := band(t, testWindow, 99)
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			for w := 0; w < windows; w++ {
				if _, err := r.Push(id, blk); err != nil {
					t.Error(err)
					return
				}
			}
		}(id)
	}
	// Topology churn mid-stream: grow twice, drain one.
	added, err := r.AddShards(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.AddShards(1); err != nil {
		t.Fatal(err)
	}
	if err := r.DrainShard(added[0]); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := r.Flush(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.SamplesIn != int64(nch*windows*testWindow) {
		t.Fatalf("SamplesIn %d, want %d", st.SamplesIn, nch*windows*testWindow)
	}
	if st.Surfaces != int64(nch*windows) {
		t.Fatalf("Surfaces %d, want %d (windows neither lost nor duplicated)", st.Surfaces, nch*windows)
	}
	if st.SamplesDropped != 0 {
		t.Fatalf("dropped %d in backpressure mode", st.SamplesDropped)
	}
	for _, id := range ids {
		cs, _ := r.ChannelStats(id)
		if cs.Snapshots != windows || cs.SamplesIn != int64(windows*testWindow) {
			t.Fatalf("%s: %d decisions / %d samples, want %d / %d",
				id, cs.Snapshots, cs.SamplesIn, windows, windows*testWindow)
		}
	}
}

// TestRouterLifecycleErrors covers the administrative error paths.
func TestRouterLifecycleErrors(t *testing.T) {
	if _, err := New(Config{Shards: -1, Engine: stream.Config{
		Estimator: scf.Direct{Params: scf.Params{K: 64, M: 16}}}}); err == nil {
		t.Fatal("New with negative shards succeeded")
	}
	if _, err := New(Config{Shards: 1}); err == nil {
		t.Fatal("New without estimator succeeded")
	}
	r, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.AddChannel(""); err == nil {
		t.Fatal("empty channel id accepted")
	}
	if err := r.AddChannel("a"); err != nil {
		t.Fatal(err)
	}
	if err := r.AddChannel("a"); err == nil {
		t.Fatal("duplicate channel accepted")
	}
	if _, err := r.Push("missing", make([]complex128, 4)); err == nil {
		t.Fatal("push to unknown channel succeeded")
	}
	if _, err := r.AddShards(0); err == nil {
		t.Fatal("AddShards(0) succeeded")
	}
	if err := r.DrainShard("nope"); err == nil {
		t.Fatal("draining unknown shard succeeded")
	}
	if _, err := r.RemoveChannel("missing"); err == nil {
		t.Fatal("removing unknown channel succeeded")
	}
	if _, err := r.Push("a", band(t, testWindow, 1)); err != nil {
		t.Fatal(err)
	}
	cs, err := r.RemoveChannel("a")
	if err != nil {
		t.Fatal(err)
	}
	if cs.SamplesIn != testWindow || cs.Snapshots != 1 {
		t.Fatalf("removed channel stats %+v, want 1 window accounted", cs)
	}
	if _, err := r.Push("a", make([]complex128, 4)); err == nil {
		t.Fatal("push to removed channel succeeded")
	}
	if len(r.Channels()) != 0 {
		t.Fatalf("channels %v after removal, want none", r.Channels())
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := r.AddChannel("b"); err != ErrClosed {
		t.Fatalf("AddChannel after Close = %v, want ErrClosed", err)
	}
	if _, err := r.Push("a", nil); err != ErrClosed {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
	if _, err := r.AddShards(1); err != ErrClosed {
		t.Fatalf("AddShards after Close = %v, want ErrClosed", err)
	}
	// Buffered decisions remain readable; the loop terminating proves
	// the merged channel is closed.
	for range r.Decisions() {
	}
}
