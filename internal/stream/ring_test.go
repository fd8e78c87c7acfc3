package stream

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"tiledcfd/internal/scf"
)

// FuzzRingFIFO drives a channel's put/take with arbitrary chunk sizes
// under an arbitrary limit and checks the ring against a plain-slice
// FIFO model: the same samples come out in the same order, count matches
// the model's length, put never accepts past the limit, and the ring
// never grows beyond it. Each op is three bytes: bit 0 of the first
// picks put or take, the other two give the chunk size modulo 2·limit+1.
// The committed corpus (testdata/fuzz/FuzzRingFIFO) covers growth while
// the unread span wraps, limits below drainChunk, and limits that are
// neither a power of two nor a multiple of drainChunk.
func FuzzRingFIFO(f *testing.F) {
	f.Fuzz(func(t *testing.T, lim uint16, ops []byte) {
		limit := 1 + int(lim)
		ch := &channel{limit: limit}
		var model []complex128
		next := 0.0
		for ; len(ops) >= 3; ops = ops[3:] {
			size := (int(ops[1])<<8 | int(ops[2])) % (2*limit + 1)
			if ops[0]&1 == 0 {
				src := make([]complex128, size)
				for i := range src {
					src[i] = complex(next, -next)
					next++
				}
				want := min(size, limit-len(model))
				if got := ch.put(src); got != want {
					t.Fatalf("put(%d) with %d queued under limit %d accepted %d, want %d",
						size, len(model), limit, got, want)
				}
				model = append(model, src[:want]...)
				// Unaccepted samples never reappear; keep the sequence
				// dense so order errors show as value mismatches.
				next -= float64(size - want)
			} else {
				dst := make([]complex128, size)
				n := ch.take(dst)
				if want := min(size, len(model)); n != want {
					t.Fatalf("take(%d) with %d queued returned %d, want %d", size, len(model), n, want)
				}
				for i, v := range dst[:n] {
					if v != model[i] {
						t.Fatalf("take sample %d = %v, want %v", i, v, model[i])
					}
				}
				model = model[n:]
			}
			if ch.count != len(model) {
				t.Fatalf("count %d, model holds %d", ch.count, len(model))
			}
			if len(ch.ring) > limit || ch.count > len(ch.ring) {
				t.Fatalf("ring length %d, count %d, limit %d", len(ch.ring), ch.count, limit)
			}
		}
	})
}

// TestRingGrowsWhileWrapped pins the growth path the fuzz target must
// keep reaching: the unread span wraps the end of the ring when a put
// outgrows it, the ring doubles, and the last growth stops at a limit
// that is neither a power of two nor a multiple of drainChunk.
func TestRingGrowsWhileWrapped(t *testing.T) {
	const limit = 3*drainChunk + 5
	ch := &channel{limit: limit}
	seq := func(from, n int) []complex128 {
		s := make([]complex128, n)
		for i := range s {
			s[i] = complex(float64(from+i), 0)
		}
		return s
	}
	ch.put(seq(0, 3000))
	if len(ch.ring) != drainChunk {
		t.Fatalf("first growth to %d, want drainChunk %d", len(ch.ring), drainChunk)
	}
	ch.take(make([]complex128, 2500))
	ch.put(seq(3000, 1500)) // writes past the end: the span [2500, 4500) wraps
	if ch.head+ch.count <= len(ch.ring) {
		t.Fatalf("head %d + count %d does not wrap ring %d", ch.head, ch.count, len(ch.ring))
	}
	ch.put(seq(4500, 3000))
	if len(ch.ring) != 2*drainChunk || ch.head != 0 {
		t.Fatalf("after wrapped growth: len %d head %d, want %d and 0", len(ch.ring), ch.head, 2*drainChunk)
	}
	if n := ch.put(seq(7500, 8000)); n != limit-5000 || len(ch.ring) != limit {
		t.Fatalf("put at the limit accepted %d into ring %d, want %d into %d", n, len(ch.ring), limit-5000, limit)
	}
	out := make([]complex128, limit+1)
	if n := ch.take(out); n != limit {
		t.Fatalf("took %d, want %d", n, limit)
	}
	for i, v := range out[:limit] {
		if want := complex(float64(2500+i), 0); v != want {
			t.Fatalf("sample %d = %v, want %v", i, v, want)
		}
	}
}

// TestRingSteadyCycleAllocsNothing: once the ring has grown to the
// backlog it carries, a steady put+take cycle never allocates.
func TestRingSteadyCycleAllocsNothing(t *testing.T) {
	ch := &channel{limit: 1 << 20}
	in := make([]complex128, 1500)
	out := make([]complex128, len(in))
	cycle := func() {
		ch.put(in)
		ch.take(out)
	}
	ch.put(make([]complex128, 3000)) // the backlog the cycle keeps
	cycle()                          // peaks at 4500 queued: grows once
	grown := len(ch.ring)
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Fatalf("steady put+take allocates %.1f times per cycle", allocs)
	}
	if len(ch.ring) != grown || ch.count != 3000 {
		t.Fatalf("ring length %d count %d, want %d and 3000", len(ch.ring), ch.count, grown)
	}
}

// TestEngineAddChannelReservesNoRing: RingSamples is a limit, not a
// reservation. 1024 channels with a 1 Mi-sample limit hold no ring until
// their first Push, and a Push grows only its own channel's ring.
func TestEngineAddChannelReservesNoRing(t *testing.T) {
	e, err := New(Config{
		Estimator:   scf.Direct{Params: scf.Params{K: 64, M: 16}},
		RingSamples: 1 << 20,
		MaxChannels: 1024,
		Workers:     1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 1024; i++ {
		if err := e.AddChannel("ch" + strconv.Itoa(i)); err != nil {
			t.Fatal(err)
		}
	}
	ringLens := func() (grown, total int) {
		e.mu.RLock()
		defer e.mu.RUnlock()
		for _, ch := range e.channels {
			ch.mu.Lock()
			if len(ch.ring) > 0 {
				grown++
				total += len(ch.ring)
			}
			ch.mu.Unlock()
		}
		return grown, total
	}
	if grown, _ := ringLens(); grown != 0 {
		t.Fatalf("%d of 1024 channels hold a ring before any Push", grown)
	}
	if _, err := e.Push("ch0", make([]complex128, 100)); err != nil {
		t.Fatal(err)
	}
	if grown, total := ringLens(); grown != 1 || total != drainChunk {
		t.Fatalf("after one small Push: %d rings of %d samples total, want 1 of %d", grown, total, drainChunk)
	}
}

// gatedEstimator wraps scf.Direct so that every accumulator Push first
// reports on entered and then waits for gate to close: a test holds the
// single worker inside the accumulator, so nothing drains the ring.
type gatedEstimator struct {
	scf.Direct
	entered chan struct{}
	gate    chan struct{}
}

func (g gatedEstimator) NewAccumulator() (scf.Accumulator, error) {
	acc, err := g.Direct.NewAccumulator()
	return gatedAccumulator{acc, g}, err
}

type gatedAccumulator struct {
	scf.Accumulator
	g gatedEstimator
}

func (a gatedAccumulator) Push(x []complex128) error {
	select {
	case a.g.entered <- struct{}{}:
	default:
	}
	<-a.g.gate
	return a.Accumulator.Push(x)
}

// newGatedEngine starts a one-worker engine over a gatedEstimator with
// one channel "c" and the given ring limit.
func newGatedEngine(t *testing.T, limit int, block bool) (*Engine, gatedEstimator) {
	t.Helper()
	g := gatedEstimator{
		Direct:  scf.Direct{Params: scf.Params{K: 64, M: 16}},
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
	e, err := New(Config{
		Estimator:       g,
		SnapshotSamples: 1024,
		RingSamples:     limit,
		Workers:         1,
		Block:           block,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddChannel("c"); err != nil {
		t.Fatal(err)
	}
	return e, g
}

// ringState reads channel c's ring length and unread count.
func ringState(e *Engine) (length, count int) {
	e.mu.RLock()
	ch := e.channels["c"]
	e.mu.RUnlock()
	ch.mu.Lock()
	defer ch.mu.Unlock()
	return len(ch.ring), ch.count
}

// TestEngineDropAtLimitAfterGrowth: a burst that fills a grown ring
// still drops, and counts, exactly what exceeds RingSamples.
func TestEngineDropAtLimitAfterGrowth(t *testing.T) {
	const limit = 5000
	e, g := newGatedEngine(t, limit, false)
	defer e.Close()
	defer close(g.gate)
	// The first push grows the ring to drainChunk; the worker takes all
	// 100 samples and parks in the accumulator.
	if n, err := e.Push("c", make([]complex128, 100)); err != nil || n != 100 {
		t.Fatalf("Push accepted %d, err %v", n, err)
	}
	<-g.entered
	if length, count := ringState(e); length != drainChunk || count != 0 {
		t.Fatalf("ring length %d count %d, want %d and 0", length, count, drainChunk)
	}
	n, err := e.Push("c", make([]complex128, 2*limit+7))
	if err != nil || n != limit {
		t.Fatalf("burst accepted %d, err %v, want exactly %d", n, err, limit)
	}
	if length, count := ringState(e); length != limit || count != limit {
		t.Fatalf("ring length %d count %d, want both %d", length, count, limit)
	}
	if n, err := e.Push("c", make([]complex128, 3)); err != nil || n != 0 {
		t.Fatalf("Push into a full ring accepted %d, err %v", n, err)
	}
	cs, _ := e.ChannelStats("c")
	if cs.SamplesIn != 100+limit || cs.SamplesDropped != limit+7+3 {
		t.Fatalf("in %d dropped %d, want %d and %d", cs.SamplesIn, cs.SamplesDropped, 100+limit, limit+7+3)
	}
}

// TestEngineBlockAtLimitAfterGrowth: in Block mode a burst larger than
// RingSamples waits with exactly RingSamples queued, then loses nothing
// once the pool drains.
func TestEngineBlockAtLimitAfterGrowth(t *testing.T) {
	const limit = 5000
	e, g := newGatedEngine(t, limit, true)
	defer e.Close()
	release := sync.OnceFunc(func() { close(g.gate) })
	defer release()
	const total = 3 * limit
	band := noiseBand(t, total, 3)
	done := make(chan int)
	go func() {
		n, err := e.Push("c", band)
		if err != nil {
			t.Error(err)
		}
		done <- n
	}()
	<-g.entered
	// The worker holds one drained chunk; the producer refills the ring
	// to its limit and must then wait.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, count := ringState(e); count == limit {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("ring never filled to its limit")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case n := <-done:
		t.Fatalf("Push returned %d while the ring was full", n)
	case <-time.After(20 * time.Millisecond):
	}
	if length, count := ringState(e); length != limit || count != limit {
		t.Fatalf("blocked with ring length %d count %d, want both %d", length, count, limit)
	}
	release()
	if n := <-done; n != total {
		t.Fatalf("Push accepted %d, want %d", n, total)
	}
	if err := e.Flush(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	cs, _ := e.ChannelStats("c")
	if cs.SamplesIn != total || cs.SamplesDropped != 0 || cs.Snapshots != total/1024 {
		t.Fatalf("in %d dropped %d snapshots %d, want %d, 0, %d", cs.SamplesIn, cs.SamplesDropped, cs.Snapshots, total, total/1024)
	}
}
