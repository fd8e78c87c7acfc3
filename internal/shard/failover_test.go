package shard

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"tiledcfd/internal/chaos"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// fastGuard is a test-speed robustness policy: first failure opens the
// circuit, probes run every 20ms, and every round-trip is bounded by
// half a second so a dead worker is detected within a few ticks.
func fastGuard() GuardConfig {
	return GuardConfig{
		PushTimeout:    500 * time.Millisecond,
		MaxRetries:     1,
		RetryBackoff:   2 * time.Millisecond,
		MaxBackoff:     10 * time.Millisecond,
		FailThreshold:  1,
		Cooldown:       20 * time.Millisecond,
		HealthInterval: 20 * time.Millisecond,
	}
}

// testWorker hosts one engine behind a wire worker-mode server — an
// in-process stand-in for `cfdserve -shard-of`.
type testWorker struct {
	eng  *stream.Engine
	srv  *wire.Server
	addr string
}

// engineSink adapts the worker's engine to the wire data plane.
type engineSink struct{ eng *stream.Engine }

func (s engineSink) OpenChannel(meta wire.Meta) error { return s.eng.AddChannel(meta.ID) }
func (s engineSink) Push(id string, samples []complex128) (int, error) {
	return s.eng.Push(id, samples)
}

// startWorker serves a fresh engine on addr ("" picks a port; a dead
// worker's address restarts it at the same endpoint). A non-nil ctl
// wraps the listener for fault injection.
func startWorker(t *testing.T, addr string, ctl *chaos.Controller) *testWorker {
	t.Helper()
	return startWorkerEngine(t, addr, ctl, testConfig(1).Engine)
}

// startWorkerEngine is startWorker with the worker engine's config.
func startWorkerEngine(t *testing.T, addr string, ctl *chaos.Controller, cfg stream.Config) *testWorker {
	t.Helper()
	eng, err := stream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := wire.NewServer(wire.ServerConfig{
		Sink:          engineSink{eng},
		Engine:        eng,
		RemoveOnClose: true,
	})
	if err != nil {
		eng.Close()
		t.Fatal(err)
	}
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		eng.Close()
		t.Fatal(err)
	}
	var served net.Listener = ln
	if ctl != nil {
		served = chaos.NewListener(ln, ctl)
	}
	srv.Serve(served)
	return &testWorker{eng: eng, srv: srv, addr: ln.Addr().String()}
}

// kill simulates a worker crash: connections die, engine state is gone.
func (w *testWorker) kill() {
	w.srv.Close()
	w.eng.Close()
}

// remoteConfig routes everything to the given workers (no local shards
// unless fallback spills one in).
func remoteConfig(workers []*testWorker, fallback bool) Config {
	cfg := testConfig(0)
	cfg.Shards = 0
	for i, w := range workers {
		cfg.Remotes = append(cfg.Remotes, RemoteShard{Name: fmt.Sprintf("r%d", i), Addr: w.addr})
	}
	cfg.Guard = fastGuard()
	cfg.FallbackLocal = fallback
	return cfg
}

// tally counts decisions off the merged stream, per channel.
type tally struct {
	mu    sync.Mutex
	perCh map[string]int64
	total int64
	done  chan struct{}
}

func tallyDecisions(r *Router) *tally {
	dt := &tally{perCh: map[string]int64{}, done: make(chan struct{})}
	go func() {
		defer close(dt.done)
		for d := range r.Decisions() {
			dt.mu.Lock()
			dt.perCh[d.Channel]++
			dt.total++
			dt.mu.Unlock()
		}
	}()
	return dt
}

func (dt *tally) get(ch string) int64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.perCh[ch]
}

func (dt *tally) sum() int64 {
	dt.mu.Lock()
	defer dt.mu.Unlock()
	return dt.total
}

// waitFor polls cond until it holds or the deadline expires.
func waitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestRemoteShardEndToEnd drives a router whose only shard is a worker
// process reached over the wire: registration, lossless cf64 pushes,
// decisions streaming back, per-channel and aggregate accounting, and
// channel removal with final stats.
func TestRemoteShardEndToEnd(t *testing.T) {
	w := startWorker(t, "", nil)
	defer w.kill()
	r, err := New(remoteConfig([]*testWorker{w}, false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	ids := addChannels(t, r, 4)
	const windows = 2
	for i, id := range ids {
		for k := 0; k < windows; k++ {
			if n, err := r.Push(id, band(t, testWindow, uint64(i*10+k))); err != nil || n != testWindow {
				t.Fatalf("push %s window %d: n=%d err=%v", id, k, n, err)
			}
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	want := int64(len(ids) * windows)
	waitFor(t, 5*time.Second, "all decisions", func() bool { return dt.sum() == want })

	st := r.Stats()
	if st.SamplesIn != int64(len(ids)*windows*testWindow) || st.Surfaces != want {
		t.Fatalf("aggregate %d samples / %d surfaces, want %d / %d",
			st.SamplesIn, st.Surfaces, len(ids)*windows*testWindow, want)
	}
	if st.Shards != 1 || st.OpenCircuits != 0 || st.ShedSamples != 0 {
		t.Fatalf("healthy remote stats: %+v", st)
	}
	ss := r.ShardStats()
	if len(ss) != 1 || !ss[0].Remote || ss[0].Addr != w.addr || ss[0].State != "ok" || ss[0].Channels != len(ids) {
		t.Fatalf("shard stats %+v", ss[0])
	}
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok || cs.SamplesIn != windows*testWindow || cs.Snapshots != windows {
			t.Fatalf("%s: stats %+v ok=%v, want %d samples / %d windows",
				id, cs, ok, windows*testWindow, windows)
		}
	}
	cs, err := r.RemoveChannel(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if cs.SamplesIn != windows*testWindow || cs.Snapshots != windows {
		t.Fatalf("removed channel final stats %+v", cs)
	}
}

// TestRemoteDecisionDropsReachStats: decisions a remote shard's sink
// drops because its persistent stream is full are counted in the
// router's DecisionsDropped, so every decision the worker made is
// either delivered or counted. The router lock is held while the worker
// decides, which stalls the forwarder and lets the sink's buffer fill.
func TestRemoteDecisionDropsReachStats(t *testing.T) {
	const window = 256
	cfg := testConfig(1).Engine
	cfg.SnapshotSamples = window
	w := startWorkerEngine(t, "", nil, cfg)
	defer w.kill()
	r, err := New(remoteConfig([]*testWorker{w}, false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	id := addChannels(t, r, 1)[0]
	r.mu.RLock()
	sink := r.shards["r0"].g.rs
	r.mu.RUnlock()

	const windows = remoteDecisionBuffer + 512
	x := band(t, windows*window, 7)
	r.mu.Lock()
	for k := 0; k < windows; k++ {
		if _, err := sink.Push(id, x[k*window:(k+1)*window]); err != nil {
			r.mu.Unlock()
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(20 * time.Second)
	for sink.outDropped.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	r.mu.Unlock()
	if sink.outDropped.Load() == 0 {
		t.Fatal("the sink dropped nothing with its forwarder stalled")
	}
	waitFor(t, 20*time.Second, "every decision delivered or counted", func() bool {
		st := r.Stats()
		return st.Surfaces == windows && dt.sum()+st.DecisionsDropped == windows
	})
}

// TestFailoverCarriesCounters is the tentpole acceptance test: kill a
// remote worker mid-session, watch the router open its circuit and
// re-home its channels onto the survivor within the health interval,
// keep decisions flowing, then restart the worker and watch it rejoin —
// with per-channel accounting exact throughout (every accepted window
// decided exactly once, no decision double-counted).
func TestFailoverCarriesCounters(t *testing.T) {
	wa := startWorker(t, "", nil)
	defer wa.kill()
	wb := startWorker(t, "", nil)
	defer wb.kill()
	r, err := New(remoteConfig([]*testWorker{wa, wb}, false))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	ids := addChannels(t, r, 12)

	accepted := make(map[string]int64)
	pushAll := func(round int) {
		t.Helper()
		for i, id := range ids {
			n, err := r.Push(id, band(t, testWindow, uint64(round*100+i)))
			if err != nil {
				t.Fatalf("push %s round %d: %v", id, round, err)
			}
			accepted[id] += int64(n)
		}
	}
	// expect asserts every channel has exactly one decision per accepted
	// window — the no-loss, no-double-count invariant.
	expect := func(phase string) {
		t.Helper()
		if err := r.Flush(10 * time.Second); err != nil {
			t.Fatalf("%s: flush: %v", phase, err)
		}
		for _, id := range ids {
			want := accepted[id] / testWindow
			waitFor(t, 5*time.Second, fmt.Sprintf("%s: %s decisions", phase, id),
				func() bool { return dt.get(id) == want })
			cs, ok := r.ChannelStats(id)
			if !ok || cs.Snapshots != want || cs.SamplesIn != accepted[id] {
				t.Fatalf("%s: %s stats %+v ok=%v, want %d windows / %d samples",
					phase, id, cs, ok, want, accepted[id])
			}
		}
	}

	pushAll(0)
	expect("before failover")
	onA := 0
	for _, id := range ids {
		if cs, _ := r.ChannelStats(id); cs.Shard == "r0" {
			onA++
		}
	}
	if onA == 0 || onA == len(ids) {
		t.Fatalf("rendezvous put %d/%d channels on r0 — test needs both shards owning some", onA, len(ids))
	}
	// Snapshot the aggregate before the crash: totals must never move
	// backwards through failover and restart.
	preCrash := r.Stats()

	wa.kill()
	waitFor(t, 10*time.Second, "failover off r0", func() bool {
		if r.Stats().Failovers < 1 {
			return false
		}
		for _, id := range ids {
			if cs, _ := r.ChannelStats(id); cs.Shard != "r1" {
				return false
			}
		}
		return true
	})
	if open := r.OpenCircuits(); len(open) != 1 || open[0] != "r0" {
		t.Fatalf("OpenCircuits() = %v, want [r0]", open)
	}
	if st := r.Stats(); st.OpenCircuits != 1 || st.Shards != 1 {
		t.Fatalf("degraded stats %+v, want 1 open circuit over 1 live shard", st)
	}

	// Decisions keep flowing through the outage, all on the survivor.
	pushAll(1)
	expect("during outage")
	if st := r.Stats(); st.SamplesIn < preCrash.SamplesIn || st.Surfaces < preCrash.Surfaces {
		t.Fatalf("aggregate moved backwards across failover: %+v -> %+v", preCrash, st)
	}

	// Restart the worker at the same address: the health loop closes the
	// circuit and rebalances channels back (a lossless handoff now).
	wa2 := startWorker(t, wa.addr, nil)
	defer wa2.kill()
	waitFor(t, 10*time.Second, "r0 reinstated", func() bool {
		return len(r.OpenCircuits()) == 0 && r.Stats().Shards == 2
	})
	waitFor(t, 10*time.Second, "channels rebalanced back", func() bool {
		back := 0
		for _, id := range ids {
			if cs, _ := r.ChannelStats(id); cs.Shard == "r0" {
				back++
			}
		}
		return back == onA
	})
	pushAll(2)
	expect("after recovery")
	st := r.Stats()
	if st.SamplesIn < preCrash.SamplesIn || st.Surfaces < preCrash.Surfaces {
		t.Fatalf("aggregate moved backwards across restart: %+v -> %+v", preCrash, st)
	}
	if st.Failovers < 1 {
		t.Fatalf("Failovers = %d, want >= 1", st.Failovers)
	}
}

// TestFallbackLocalSpillsWhenAllRemotesDown: with FallbackLocal, losing
// the only remote spills its channels onto a lazily created local
// engine and sensing continues; without one they would shed.
func TestFallbackLocalSpillsWhenAllRemotesDown(t *testing.T) {
	w := startWorker(t, "", nil)
	defer w.kill()
	r, err := New(remoteConfig([]*testWorker{w}, true))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	ids := addChannels(t, r, 4)
	for i, id := range ids {
		if _, err := r.Push(id, band(t, testWindow, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "pre-crash decisions", func() bool { return dt.sum() == int64(len(ids)) })

	w.kill()
	waitFor(t, 10*time.Second, "spill to fallback", func() bool {
		for _, id := range ids {
			if cs, _ := r.ChannelStats(id); cs.Shard != "fallback" {
				return false
			}
		}
		return true
	})
	for i, id := range ids {
		if n, err := r.Push(id, band(t, testWindow, uint64(100+i))); err != nil || n != testWindow {
			t.Fatalf("push %s onto fallback: n=%d err=%v", id, n, err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "fallback decisions", func() bool { return dt.sum() == int64(2*len(ids)) })
	found := false
	for _, s := range r.ShardStats() {
		if s.Name == "fallback" && !s.Remote && s.Channels == len(ids) {
			found = true
		}
	}
	if !found {
		t.Fatalf("fallback shard missing from %+v", r.ShardStats())
	}
	if st := r.Stats(); st.Failovers < 1 || st.OpenCircuits != 1 {
		t.Fatalf("stats %+v, want a failover and one open circuit", st)
	}
}

// TestBlackholedRemoteShedsAndRecovers wedges (rather than kills) the
// worker with a chaos blackhole: pushes overrun the per-push deadline,
// retries burn out, the circuit opens and — with nowhere to re-home —
// samples shed with accounting. Lifting the fault heals the link.
func TestBlackholedRemoteShedsAndRecovers(t *testing.T) {
	ctl := chaos.NewController(42)
	w := startWorker(t, "", ctl)
	defer w.kill()
	cfg := remoteConfig([]*testWorker{w}, false)
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	ids := addChannels(t, r, 2)
	for i, id := range ids {
		if _, err := r.Push(id, band(t, testWindow, uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "healthy decisions", func() bool { return dt.sum() == int64(len(ids)) })

	ctl.Blackhole(true)
	// Keep pushing into the void until the breaker trips; the writes
	// first absorb into TCP buffers, then overrun the push deadline.
	waitFor(t, 30*time.Second, "circuit to open under blackhole", func() bool {
		for i, id := range ids {
			r.Push(id, band(t, testWindow, uint64(200+i))) //nolint:errcheck // shedding is the point
		}
		return len(r.OpenCircuits()) == 1
	})
	// With the circuit open and no healthy shard to take the channels,
	// further pushes shed with accounting instead of erroring.
	for i, id := range ids {
		n, err := r.Push(id, band(t, testWindow, uint64(300+i)))
		if err != nil || n != 0 {
			t.Fatalf("push on open circuit: n=%d err=%v, want shed (0, nil)", n, err)
		}
	}
	st := r.Stats()
	if st.ShedSamples < int64(len(ids)*testWindow) {
		t.Fatalf("ShedSamples = %d, want at least the %d shed on the open circuit",
			st.ShedSamples, len(ids)*testWindow)
	}
	// Retries are NOT asserted here: whether a push ever enters the
	// retry path before the health probe opens the circuit is a race
	// the blackhole deliberately does not control —
	// TestPushRetriesAfterConnectionReset covers the retry path
	// deterministically.
	shed := st.ShedSamples
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok || cs.SamplesDropped == 0 {
			t.Fatalf("%s: SamplesDropped = %d ok=%v, want shed samples accounted per channel",
				id, cs.SamplesDropped, ok)
		}
	}

	ctl.Blackhole(false)
	ctl.Cut() // old wedged connections die; the next probe redials clean
	waitFor(t, 10*time.Second, "circuit to close after the fault lifts", func() bool {
		return len(r.OpenCircuits()) == 0
	})
	before := dt.sum()
	for i, id := range ids {
		if n, err := r.Push(id, band(t, testWindow, uint64(400+i))); err != nil || n != testWindow {
			t.Fatalf("push after recovery: n=%d err=%v", n, err)
		}
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "decisions after recovery", func() bool {
		return dt.sum() >= before+int64(len(ids))
	})
	if post := r.Stats(); post.ShedSamples != shed {
		t.Fatalf("ShedSamples moved %d -> %d after recovery, want stable", shed, post.ShedSamples)
	}
}

// TestPushRetriesAfterConnectionReset covers the retry path
// deterministically: a mid-stream connection reset fails one push
// attempt fast, the guard redials and the retry lands, so the caller
// never sees the fault. The heartbeat is parked and the breaker
// threshold raised so the push path — not the health loop — must do
// the redial, guaranteeing Stats().Retries advances.
func TestPushRetriesAfterConnectionReset(t *testing.T) {
	ctl := chaos.NewController(7)
	w := startWorker(t, "", ctl)
	defer w.kill()
	cfg := remoteConfig([]*testWorker{w}, false)
	cfg.Guard.FailThreshold = 3
	cfg.Guard.HealthInterval = time.Hour
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	ids := addChannels(t, r, 1)
	id := ids[0]
	if n, err := r.Push(id, band(t, testWindow, 1)); err != nil || n != testWindow {
		t.Fatalf("healthy push: n=%d err=%v", n, err)
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "healthy decision", func() bool { return dt.sum() == 1 })

	ctl.ResetNext()
	// The reset tears the worker-side connection on its next read; which
	// push trips over it depends on kernel buffering, so push until the
	// guard has recorded a retry. Every push must still succeed — the
	// redial-and-retry inside the guard absorbs the fault.
	seed := uint64(2)
	waitFor(t, 10*time.Second, "a push to retry through the reset", func() bool {
		n, err := r.Push(id, band(t, testWindow, seed))
		seed++
		if err != nil || n != testWindow {
			t.Fatalf("push through reset: n=%d err=%v, want transparent retry", n, err)
		}
		return r.Stats().Retries >= 1
	})
	if open := r.OpenCircuits(); len(open) != 0 {
		t.Fatalf("open circuits %v after a single reset, want none (threshold is 3)", open)
	}
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Retries < 1 || st.Failovers != 0 || st.ShedSamples != 0 {
		t.Fatalf("stats %+v, want retries with no failover or shedding", st)
	}
}

// TestRouterFlushRacingClose: Flush racing Close must neither hang nor
// panic — it returns an error or succeeds, and Close always wins.
func TestRouterFlushRacingClose(t *testing.T) {
	for i := 0; i < 3; i++ {
		r, err := New(testConfig(2))
		if err != nil {
			t.Fatal(err)
		}
		ids := addChannels(t, r, 4)
		for j, id := range ids {
			if _, err := r.Push(id, band(t, testWindow/2, uint64(j))); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			r.Flush(250 * time.Millisecond) //nolint:errcheck // racing Close; either outcome is fine
		}()
		go func() {
			defer wg.Done()
			if err := r.Close(); err != nil {
				t.Errorf("Close: %v", err)
			}
		}()
		wg.Wait()
		for range r.Decisions() {
		}
	}
}

// TestRouterHandoffDuringPushes drains a shard while every channel is
// being pushed concurrently: handoffs serialise with pushes, so nothing
// is lost or double-counted.
func TestRouterHandoffDuringPushes(t *testing.T) {
	r, err := New(testConfig(3))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ids := addChannels(t, r, 9)
	const windows = 6
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			for k := 0; k < windows; k++ {
				if _, err := r.Push(id, band(t, testWindow, uint64(i*100+k))); err != nil {
					t.Errorf("push %s: %v", id, err)
					return
				}
			}
		}(i, id)
	}
	// Retire a shard mid-stream; its channels hand off under load.
	if err := r.DrainShard(r.ShardStats()[0].Name); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok || cs.SamplesIn != int64(windows*testWindow) || cs.Snapshots != windows {
			t.Fatalf("%s: %+v ok=%v, want %d windows intact through the drain",
				id, cs, ok, windows)
		}
	}
	st := r.Stats()
	if st.SamplesIn != int64(len(ids)*windows*testWindow) || st.Surfaces != int64(len(ids)*windows) {
		t.Fatalf("aggregate %+v, want full accounting across the drain", st)
	}
}
