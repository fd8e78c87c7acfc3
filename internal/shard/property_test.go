package shard

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"
	"time"

	"tiledcfd/internal/stream"
)

// TestRouterAccountingProperty drives a router over local shards and
// one remote worker through a seeded random sequence of pushes, channel
// additions and removals, shard additions and drains, and a remote
// worker kill plus restart at the same address. After every step, and
// right after the kill, before the failover, the router's counters and
// each live channel's must not have moved backwards. After a final Flush the books must balance: every accepted
// sample is counted once, every surface was either delivered or counted
// as dropped, and every surface belongs to exactly one channel, live or
// removed. The operation sequence depends only on the seed, so a
// failing seed replays with -run 'TestRouterAccountingProperty/seed=N'.
func TestRouterAccountingProperty(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runAccountingProperty(t, seed, 40)
		})
	}
}

// accountingModel is what the test itself knows: the samples the router
// accepted, and the final stats of removed channels.
type accountingModel struct {
	accepted int64
	removed  []ChannelStats
	prev     stream.Counters
	prevCh   map[string]stream.ChannelCounters
}

func runAccountingProperty(t *testing.T, seed uint64, steps int) {
	rng := rand.New(rand.NewPCG(seed, 0x5eed))
	w := startWorker(t, "", nil)
	defer func() { w.kill() }()
	cfg := testConfig(1)
	cfg.Remotes = []RemoteShard{{Name: "r0", Addr: w.addr}}
	cfg.Guard = fastGuard()
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	dt := tallyDecisions(r)
	m := &accountingModel{prevCh: map[string]stream.ChannelCounters{}}
	var ids []string
	nextID := 0
	addChannel := func() {
		id := fmt.Sprintf("ch%02d", nextID)
		nextID++
		if err := r.AddChannel(id); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	for range 4 {
		addChannel()
	}

	var ops [10]int
	for step := 0; step < steps; step++ {
		op := rng.IntN(10)
		ops[op]++
		switch {
		case op < 5: // push
			id := ids[rng.IntN(len(ids))]
			n := 1 + rng.IntN(3*testWindow/2)
			got, err := r.Push(id, band(t, n, rng.Uint64()))
			if err != nil {
				t.Fatalf("step %d: push %s: %v", step, id, err)
			}
			m.accepted += int64(got)
		case op == 5: // add a channel
			addChannel()
		case op == 6: // remove a channel
			if len(ids) < 2 {
				continue
			}
			i := rng.IntN(len(ids))
			cs, err := r.RemoveChannel(ids[i])
			if err != nil {
				t.Fatalf("step %d: remove %s: %v", step, ids[i], err)
			}
			m.removed = append(m.removed, cs)
			delete(m.prevCh, ids[i])
			ids = append(ids[:i], ids[i+1:]...)
		case op == 7: // add a local shard
			if len(localShards(r)) < 4 {
				if _, err := r.AddShards(1); err != nil {
					t.Fatalf("step %d: add shard: %v", step, err)
				}
			}
		case op == 8: // drain a local shard, keeping at least one
			if local := localShards(r); len(local) > 1 {
				if err := r.DrainShard(local[rng.IntN(len(local))]); err != nil {
					t.Fatalf("step %d: drain: %v", step, err)
				}
			}
		default: // kill the remote worker and restart it at its address
			w = killAndRestart(t, r, dt, w, func() { m.checkMonotone(t, step, r, ids) })
		}
		m.checkMonotone(t, step, r, ids)
	}

	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	settleDecisions(t, r, dt)
	st := r.Stats()
	t.Logf("ops %v: %d samples, %d surfaces, %d handoffs, %d failovers", ops, st.SamplesIn, st.Surfaces, st.Handoffs, st.Failovers)
	if st.SamplesIn != m.accepted {
		t.Errorf("Stats().SamplesIn = %d, want the %d samples Push accepted", st.SamplesIn, m.accepted)
	}
	var snapshots, samples int64
	for _, cs := range m.removed {
		snapshots += cs.Snapshots
		samples += cs.SamplesIn
	}
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok {
			t.Fatalf("channel %s vanished", id)
		}
		snapshots += cs.Snapshots
		samples += cs.SamplesIn
	}
	if st.Surfaces != snapshots {
		t.Errorf("Stats().Surfaces = %d, want %d: the channels' snapshots, live and removed", st.Surfaces, snapshots)
	}
	if samples != m.accepted {
		t.Errorf("channels account for %d samples, want the %d accepted", samples, m.accepted)
	}
}

// localShards returns the live local shards' names.
func localShards(r *Router) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	var out []string
	for _, n := range r.live {
		if !r.shards[n].remote {
			out = append(out, n)
		}
	}
	return out
}

// settleDecisions waits until every surface the router counts was
// either delivered on Decisions or counted as dropped.
func settleDecisions(t *testing.T, r *Router, dt *tally) {
	t.Helper()
	waitFor(t, 10*time.Second, "decisions delivered", func() bool {
		st := r.Stats()
		return dt.sum()+st.DecisionsDropped == st.Surfaces
	})
}

// killAndRestart crashes the remote worker once everything it accepted
// is decided and delivered, calls afterKill, waits for its channels to
// fail over, then restarts it at the same address and waits until the
// router has reinstated it and finished moving channels back.
func killAndRestart(t *testing.T, r *Router, dt *tally, w *testWorker, afterKill func()) *testWorker {
	t.Helper()
	if err := r.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	settleDecisions(t, r, dt)
	failovers := r.Stats().Failovers
	w.kill()
	afterKill()
	waitFor(t, 10*time.Second, "failover off r0", func() bool {
		if r.Stats().Failovers == failovers {
			return false
		}
		r.mu.RLock()
		defer r.mu.RUnlock()
		for _, e := range r.entries {
			if e.owner.Load().name == "r0" {
				return false
			}
		}
		return true
	})
	w = startWorker(t, w.addr, nil)
	waitFor(t, 10*time.Second, "r0 reinstated", func() bool { return len(r.OpenCircuits()) == 0 })
	// reinstateShard moves channels back under topo.
	waitFor(t, 10*time.Second, "channels moved back", func() bool {
		r.topo.Lock()
		defer r.topo.Unlock()
		r.mu.RLock()
		defer r.mu.RUnlock()
		moves, _ := r.rebalanceLocked()
		return len(moves) == 0
	})
	return w
}

// checkMonotone asserts that no router counter and no live channel's
// counter fell since the last step.
func (m *accountingModel) checkMonotone(t *testing.T, step int, r *Router, ids []string) {
	t.Helper()
	st := r.Stats()
	if f := fallen(m.prev, st.Counters); f != "" {
		t.Fatalf("step %d: Stats().%s fell: %+v -> %+v", step, f, m.prev, st.Counters)
	}
	m.prev = st.Counters
	for _, id := range ids {
		cs, ok := r.ChannelStats(id)
		if !ok {
			t.Fatalf("step %d: channel %s vanished", step, id)
		}
		if f := fallen(m.prevCh[id], cs.ChannelCounters); f != "" {
			t.Fatalf("step %d: %s %s fell: %+v -> %+v", step, id, f, m.prevCh[id], cs.ChannelCounters)
		}
		m.prevCh[id] = cs.ChannelCounters
	}
}

// fallen names the first int64 field of record now that is below its
// value in before, or returns "".
func fallen[T any](before, now T) string {
	b, n := reflect.ValueOf(before), reflect.ValueOf(now)
	for i := 0; i < n.NumField(); i++ {
		if n.Field(i).Int() < b.Field(i).Int() {
			return n.Type().Field(i).Name
		}
	}
	return ""
}
