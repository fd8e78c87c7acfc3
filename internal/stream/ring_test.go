package stream

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"tiledcfd/internal/scf"
)

// FuzzRingFIFO drives a channel's put/take and its in-place drain
// (segment, then release) with arbitrary chunk sizes under an arbitrary
// limit and checks the ring against a plain-slice FIFO model: the same
// samples come out in the same order, count matches the model's length,
// put never accepts past the limit, and the ring never grows beyond it.
// Each op is three bytes: bit 0 of the first picks put or a read, the
// other two give the chunk size modulo 2·limit+1. A read with bit 1 set
// takes out a segment of at most that size, or releases the one out; a
// plain read releases any segment out first, then takes. While a
// segment is out it counts against the limit, puts may grow the ring
// under it, and after every op it must still hold the model's head.
// The committed corpus (testdata/fuzz/FuzzRingFIFO) covers growth while
// the unread span wraps, limits below drainChunk, limits that are
// neither a power of two nor a multiple of drainChunk, and segments held
// across growth, across a wrap and at the limit.
func FuzzRingFIFO(f *testing.F) {
	f.Fuzz(func(t *testing.T, lim uint16, ops []byte) {
		limit := 1 + int(lim)
		ch := &channel{limit: limit}
		var model, seg []complex128
		next := 0.0
		release := func() {
			if len(seg) > 0 {
				ch.release(len(seg))
				model = model[len(seg):]
				seg = nil
			}
		}
		for ; len(ops) >= 3; ops = ops[3:] {
			size := (int(ops[1])<<8 | int(ops[2])) % (2*limit + 1)
			switch {
			case ops[0]&1 == 0:
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
			case ops[0]&2 != 0 && seg != nil:
				release()
			case ops[0]&2 != 0:
				seg = ch.segment(size)
				if want := min(size, len(model), len(ch.ring)-ch.head); len(seg) != want {
					t.Fatalf("segment(%d) with %d queued, head %d of ring %d returned %d, want %d",
						size, len(model), ch.head, len(ch.ring), len(seg), want)
				}
				if len(seg) == 0 {
					seg = nil
				}
			default:
				release()
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
			for i, v := range seg {
				if v != model[i] {
					t.Fatalf("segment sample %d = %v, want %v", i, v, model[i])
				}
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
// keep reaching: the first push sizes the ring, the unread span wraps
// the end of the ring when a put outgrows it, the ring doubles, and the
// last growth stops at a limit that is neither a power of two nor a
// multiple of the first push.
func TestRingGrowsWhileWrapped(t *testing.T) {
	const limit = 12293
	ch := &channel{limit: limit}
	seq := func(from, n int) []complex128 {
		s := make([]complex128, n)
		for i := range s {
			s[i] = complex(float64(from+i), 0)
		}
		return s
	}
	ch.put(seq(0, 3000))
	if len(ch.ring) != 3000 {
		t.Fatalf("first growth to %d, want the first push's 3000", len(ch.ring))
	}
	ch.take(make([]complex128, 2500))
	ch.put(seq(3000, 1500)) // wraps to the front: the span [2500, 4500) wraps
	if len(ch.ring) != 3000 || ch.head+ch.count <= len(ch.ring) {
		t.Fatalf("head %d + count %d does not wrap ring %d (want 3000)", ch.head, ch.count, len(ch.ring))
	}
	ch.put(seq(4500, 3000))
	if len(ch.ring) != 6000 || ch.head != 0 {
		t.Fatalf("after wrapped growth: len %d head %d, want 6000 and 0", len(ch.ring), ch.head)
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
// their first Push, and a Push grows only its own channel's ring, to
// exactly what it pushed.
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
	if grown, total := ringLens(); grown != 1 || total != 100 {
		t.Fatalf("after one 100-sample Push: %d rings of %d samples total, want 1 of 100", grown, total)
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

// NewWindowAccumulator gates the window-bound accumulator the engine
// builds, which scf.Direct would otherwise promote ungated.
func (g gatedEstimator) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	acc, err := g.Direct.NewWindowAccumulator(window)
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

// newGate returns a gatedEstimator over scf.Direct whose accumulators
// park in every Push until its gate is closed.
func newGate() gatedEstimator {
	return gatedEstimator{
		Direct:  scf.Direct{Params: scf.Params{K: 64, M: 16}},
		entered: make(chan struct{}, 1),
		gate:    make(chan struct{}),
	}
}

// newGatedEngine starts a one-worker engine over a gatedEstimator with
// one channel "c" and the given ring limit.
func newGatedEngine(t *testing.T, limit int, block bool) (*Engine, gatedEstimator) {
	t.Helper()
	g := newGate()
	return startEngine(t, g, limit, block), g
}

// startEngine starts a one-worker engine over est with one channel "c",
// the given ring limit and 1024-sample windows.
func startEngine(t *testing.T, est scf.StreamingEstimator, limit int, block bool) *Engine {
	t.Helper()
	e, err := New(Config{
		Estimator:       est,
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
	return e
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
// still drops, and counts, exactly what exceeds RingSamples, and the
// segment a worker is feeding counts against the limit.
func TestEngineDropAtLimitAfterGrowth(t *testing.T) {
	const limit = 5000
	e, g := newGatedEngine(t, limit, false)
	defer e.Close()
	defer close(g.gate)
	// The first push sizes the ring to its 100 samples; the worker feeds
	// them in place and parks in the accumulator, so they stay in the
	// ring.
	if n, err := e.Push("c", make([]complex128, 100)); err != nil || n != 100 {
		t.Fatalf("Push accepted %d, err %v", n, err)
	}
	<-g.entered
	if length, count := ringState(e); length != 100 || count != 100 {
		t.Fatalf("ring length %d count %d, want 100 and 100", length, count)
	}
	n, err := e.Push("c", make([]complex128, 2*limit+7))
	if err != nil || n != limit-100 {
		t.Fatalf("burst accepted %d, err %v, want exactly %d", n, err, limit-100)
	}
	if length, count := ringState(e); length != limit || count != limit {
		t.Fatalf("ring length %d count %d, want both %d", length, count, limit)
	}
	if n, err := e.Push("c", make([]complex128, 3)); err != nil || n != 0 {
		t.Fatalf("Push into a full ring accepted %d, err %v", n, err)
	}
	cs, _ := e.ChannelStats("c")
	if cs.SamplesIn != limit || cs.SamplesDropped != limit+107+3 {
		t.Fatalf("in %d dropped %d, want %d and %d", cs.SamplesIn, cs.SamplesDropped, limit, limit+107+3)
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
	// The worker parks feeding its segment in place; the producer fills
	// the ring, that segment included, to its limit and must then wait.
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

// recordingEstimator is a gatedEstimator whose accumulators also record,
// once past the gate, every sample pushed into them.
type recordingEstimator struct {
	gatedEstimator
	rec *recorder
}

type recorder struct {
	mu  sync.Mutex
	got []complex128
}

func (r recordingEstimator) NewAccumulator() (scf.Accumulator, error) {
	acc, err := r.gatedEstimator.NewAccumulator()
	return recordingAccumulator{acc, r.rec}, err
}

// NewWindowAccumulator records through the window-bound accumulator the
// engine builds, which gatedEstimator would otherwise promote.
func (r recordingEstimator) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	acc, err := r.gatedEstimator.NewWindowAccumulator(window)
	return recordingAccumulator{acc, r.rec}, err
}

type recordingAccumulator struct {
	scf.Accumulator
	rec *recorder
}

// Push parks at the gate first, so what it records is the chunk as it
// reads after anything that happened to the ring meanwhile.
func (a recordingAccumulator) Push(x []complex128) error {
	err := a.Accumulator.Push(x)
	a.rec.mu.Lock()
	a.rec.got = append(a.rec.got, x...)
	a.rec.mu.Unlock()
	return err
}

// TestRingGrowsDuringFeed: a worker feeds a segment straight from the
// ring and parks in the accumulator; a burst then grows the ring under
// it. Every sample still reaches the accumulator exactly once, in
// order, bit for bit, in drop mode (the burst fits) and in Block mode
// (the burst is three limits long and waits for the drain).
func TestRingGrowsDuringFeed(t *testing.T) {
	const limit = 5000
	seq := func(from, n int) []complex128 {
		s := make([]complex128, n)
		for i := range s {
			s[i] = complex(float64(from+i), -float64(from+i))
		}
		return s
	}
	for _, block := range []bool{false, true} {
		t.Run(map[bool]string{false: "drop", true: "block"}[block], func(t *testing.T) {
			rec := &recorder{}
			g := newGate()
			release := sync.OnceFunc(func() { close(g.gate) })
			defer release()
			e := startEngine(t, recordingEstimator{g, rec}, limit, block)
			defer e.Close()
			if _, err := e.Push("c", seq(0, 100)); err != nil {
				t.Fatal(err)
			}
			<-g.entered // the worker holds the first 100 samples in place
			burst := 3000
			if block {
				burst = 3 * limit
			}
			done := make(chan int, 1)
			go func() {
				n, err := e.Push("c", seq(100, burst))
				if err != nil {
					t.Error(err)
				}
				done <- n
			}()
			// The ring grows under the parked segment: to 3100 samples in
			// drop mode, to the limit in Block mode.
			want := min(100+burst, limit)
			deadline := time.Now().Add(10 * time.Second)
			for {
				if length, count := ringState(e); length == want && count == want {
					break
				}
				if time.Now().After(deadline) {
					length, count := ringState(e)
					t.Fatalf("ring length %d count %d, want both %d", length, count, want)
				}
				time.Sleep(time.Millisecond)
			}
			release()
			if n := <-done; n != burst {
				t.Fatalf("burst accepted %d, want %d", n, burst)
			}
			if err := e.Flush(10 * time.Second); err != nil {
				t.Fatal(err)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			all := seq(0, 100+burst)
			if len(rec.got) != len(all) {
				t.Fatalf("accumulator got %d samples, want %d", len(rec.got), len(all))
			}
			for i, v := range rec.got {
				if v != all[i] {
					t.Fatalf("accumulator sample %d = %v, want %v", i, v, all[i])
				}
			}
		})
	}
}
