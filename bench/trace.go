package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/scf"
)

// Timestamps kept per decision window, in chain order. A window is keyed
// by its channel and its end: the cumulative sample count after its last
// sample. Each layer stamps the window whose last sample lies in the
// chunk it is handling.
const (
	fDue       = iota // generator: when the window's last sample was due
	fSendStart        // client Send (wire) or engine Push (in process) of that chunk
	fSendEnd
	fSinkStart // wire.Sink.Push of that chunk, behind the server's decode (wire only)
	fSinkEnd
	fPushStart // accumulator Push of the chunk that completes the window
	fPushEnd
	fSnapStart // accumulator Snapshot
	fSnapEnd
	fDecStart // Decider.Decide
	fDecEnd
	fRecv // the bench's consumer receives the Decision
	nFields
)

// winTrace holds one window's timestamps in nanoseconds since the
// tracer's epoch; 0 means not recorded.
type winTrace [nFields]int64

// winKey names one window: channel index and window end.
type winKey struct {
	ch  int
	end int64
}

// tracer records spans from the bench's side of every layer boundary:
// the decorators below wrap the values the bench hands to the program,
// and the bench's own generator, sink adapter and consumer stamp their
// steps. Spans stay in memory until the run ends.
type tracer struct {
	epoch  time.Time
	window int64

	mu   sync.Mutex
	wins map[winKey]*winTrace

	// adding is the channel whose AddChannel is in progress (-1 outside):
	// engines build a channel's accumulator synchronously inside
	// AddChannel, which is how the accumulator decorator learns its
	// channel.
	addMu  sync.Mutex
	adding atomic.Int64

	// surfaces maps a snapshot's surface to its window, so the decider
	// decorator can attribute Decide.
	surfMu   sync.Mutex
	surfaces map[*scf.Surface]winKey

	accNs, accSamples  atomic.Int64
	sendNs, sendFrames atomic.Int64
	mults, cycles      atomic.Int64
	snapDur, decDur    durations
	sinkDur            durations
}

// durations collects call durations in nanoseconds.
type durations struct {
	mu sync.Mutex
	v  []float64
}

func (d *durations) add(ns int64) {
	d.mu.Lock()
	d.v = append(d.v, float64(ns))
	d.mu.Unlock()
}

func (d *durations) values() []float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]float64(nil), d.v...)
}

func newTracer(window int) *tracer {
	t := &tracer{
		epoch:    time.Now(),
		window:   int64(window),
		wins:     make(map[winKey]*winTrace),
		surfaces: make(map[*scf.Surface]winKey),
	}
	t.adding.Store(-1)
	return t
}

// now returns the time since the epoch, never 0.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) + 1 }

// at converts a wall-clock instant to tracer time.
func (t *tracer) at(ts time.Time) int64 { return int64(ts.Sub(t.epoch)) + 1 }

// stamp sets field fa (and fb unless negative) on every window of
// channel ch whose end lies in (n0, n1]: the windows whose last sample
// is in the chunk of stream samples [n0, n1).
func (t *tracer) stamp(ch int, n0, n1 int64, fa int, ta int64, fb int, tb int64) {
	e := (n0/t.window + 1) * t.window
	if e > n1 {
		return
	}
	t.mu.Lock()
	for ; e <= n1; e += t.window {
		k := winKey{ch, e}
		w := t.wins[k]
		if w == nil {
			w = new(winTrace)
			t.wins[k] = w
		}
		w[fa] = ta
		if fb >= 0 {
			w[fb] = tb
		}
	}
	t.mu.Unlock()
}

// addChannel runs add with the accumulator decorator attributed to ch.
// A nil tracer just runs add.
func (t *tracer) addChannel(ch int, add func() error) error {
	if t == nil {
		return add()
	}
	t.addMu.Lock()
	defer t.addMu.Unlock()
	t.adding.Store(int64(ch))
	defer t.adding.Store(-1)
	return add()
}

// windows returns a copy of every recorded window.
func (t *tracer) windows() map[winKey]winTrace {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[winKey]winTrace, len(t.wins))
	for k, w := range t.wins {
		out[k] = *w
	}
	return out
}

// reset drops the recorded windows and per-call tallies, keeping the
// epoch, so one tracer can serve consecutive phases.
func (t *tracer) reset() {
	t.mu.Lock()
	t.wins = make(map[winKey]*winTrace)
	t.mu.Unlock()
	t.surfMu.Lock()
	t.surfaces = make(map[*scf.Surface]winKey)
	t.surfMu.Unlock()
	t.accNs.Store(0)
	t.accSamples.Store(0)
	t.sendNs.Store(0)
	t.sendFrames.Store(0)
	for _, d := range []*durations{&t.snapDur, &t.decDur, &t.sinkDur} {
		d.mu.Lock()
		d.v = nil
		d.mu.Unlock()
	}
}

// chain is one window's spans in nanoseconds, in chain order. Each span
// runs from the previous timestamp to the next, so together with
// unattributed they add up to e2e exactly; unattributed is the engine
// glue between accumulator Push and Snapshot and between Snapshot and
// Decide, which no span covers.
type chain struct {
	GenLag, Send, Transit, Sink, RingWait, AccPush, Snapshot, Decide, Emit float64
	E2E, Unattributed                                                      float64
}

// reconcile computes a window's chain; ok is false when a timestamp the
// chain needs is missing. wire selects the chain with the server's
// decode and sink steps.
func reconcile(w winTrace, wire bool) (c chain, ok bool) {
	need := []int{fDue, fSendStart, fSendEnd, fPushStart, fPushEnd, fSnapStart, fSnapEnd, fDecStart, fDecEnd, fRecv}
	if wire {
		need = append(need, fSinkStart, fSinkEnd)
	}
	for _, f := range need {
		if w[f] == 0 {
			return chain{}, false
		}
	}
	d := func(a, b int) float64 { return float64(w[b] - w[a]) }
	c.GenLag = d(fDue, fSendStart)
	c.Send = d(fSendStart, fSendEnd)
	if wire {
		c.Transit = d(fSendEnd, fSinkStart)
		c.Sink = d(fSinkStart, fSinkEnd)
		c.RingWait = d(fSinkEnd, fPushStart)
	} else {
		c.RingWait = d(fSendEnd, fPushStart)
	}
	c.AccPush = d(fPushStart, fPushEnd)
	c.Snapshot = d(fSnapStart, fSnapEnd)
	c.Decide = d(fDecStart, fDecEnd)
	c.Emit = d(fDecEnd, fRecv)
	c.E2E = d(fDue, fRecv)
	c.Unattributed = c.E2E - (c.GenLag + c.Send + c.Transit + c.Sink + c.RingWait +
		c.AccPush + c.Snapshot + c.Decide + c.Emit)
	return c, true
}

// chains reconciles every complete window, in (channel, end) order.
func (t *tracer) chains(wire bool) ([]winKey, []chain) {
	wins := t.windows()
	keys := make([]winKey, 0, len(wins))
	for k := range wins {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].ch != keys[j].ch {
			return keys[i].ch < keys[j].ch
		}
		return keys[i].end < keys[j].end
	})
	var ks []winKey
	var cs []chain
	for _, k := range keys {
		if c, ok := reconcile(wins[k], wire); ok {
			ks = append(ks, k)
			cs = append(cs, c)
		}
	}
	return ks, cs
}

// tracedEstimator decorates a streaming estimator so its accumulators
// are timed. It forwards scf.CandidateEstimator, which the engine needs
// for alpha-pruned channels.
type tracedEstimator struct {
	inner scf.StreamingEstimator
	tr    *tracer
}

func (e tracedEstimator) Name() string { return e.inner.Name() }

func (e tracedEstimator) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	return e.inner.Estimate(x)
}

func (e tracedEstimator) NewAccumulator() (scf.Accumulator, error) {
	acc, err := e.inner.NewAccumulator()
	if err != nil {
		return nil, err
	}
	return &tracedAccumulator{inner: acc, tr: e.tr, ch: int(e.tr.adding.Load())}, nil
}

func (e tracedEstimator) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	ce, ok := e.inner.(scf.CandidateEstimator)
	if !ok {
		return nil, fmt.Errorf("bench: estimator %q does not support alpha candidates", e.inner.Name())
	}
	pruned, err := ce.WithAlphaCandidates(alphas)
	if err != nil {
		return nil, err
	}
	return tracedEstimator{inner: pruned, tr: e.tr}, nil
}

var _ scf.CandidateEstimator = tracedEstimator{}

// tracedAccumulator times Push and Snapshot of one channel's
// accumulator. n counts the channel's samples across Resets, so window
// ends line up with the stream. ch is -1 for accumulators built outside
// AddChannel (engine construction builds one to validate the config).
type tracedAccumulator struct {
	inner scf.Accumulator
	tr    *tracer
	ch    int
	n     int64
}

func (a *tracedAccumulator) Name() string { return a.inner.Name() }
func (a *tracedAccumulator) Samples() int { return a.inner.Samples() }
func (a *tracedAccumulator) Ready() bool  { return a.inner.Ready() }
func (a *tracedAccumulator) Reset()       { a.inner.Reset() }

func (a *tracedAccumulator) Push(samples []complex128) error {
	t0 := a.tr.now()
	err := a.inner.Push(samples)
	t1 := a.tr.now()
	a.tr.accNs.Add(t1 - t0)
	a.tr.accSamples.Add(int64(len(samples)))
	n0 := a.n
	a.n += int64(len(samples))
	if a.ch >= 0 {
		a.tr.stamp(a.ch, n0, a.n, fPushStart, t0, fPushEnd, t1)
	}
	return err
}

func (a *tracedAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	t0 := a.tr.now()
	s, st, err := a.inner.Snapshot()
	t1 := a.tr.now()
	a.tr.snapDur.add(t1 - t0)
	if err != nil || a.ch < 0 {
		return s, st, err
	}
	a.tr.mults.Store(int64(st.TotalMults()))
	a.tr.cycles.Store(st.Cycles)
	a.tr.stamp(a.ch, a.n-1, a.n, fSnapStart, t0, fSnapEnd, t1)
	a.tr.surfMu.Lock()
	a.tr.surfaces[s] = winKey{a.ch, a.n}
	a.tr.surfMu.Unlock()
	return s, st, nil
}

// tracedDecider times Decide and joins it to the window whose surface
// it receives.
type tracedDecider struct {
	inner detect.Decider
	tr    *tracer
}

func (d tracedDecider) Name() string       { return d.inner.Name() }
func (d tracedDecider) NeedsSamples() bool { return d.inner.NeedsSamples() }
func (d tracedDecider) TargetPfa() float64 { return d.inner.TargetPfa() }
func (d tracedDecider) Decide(s *scf.Surface, x []complex128) (detect.Decision, error) {
	t0 := d.tr.now()
	dec, err := d.inner.Decide(s, x)
	t1 := d.tr.now()
	d.tr.decDur.add(t1 - t0)
	d.tr.surfMu.Lock()
	k, ok := d.tr.surfaces[s]
	delete(d.tr.surfaces, s)
	d.tr.surfMu.Unlock()
	if ok {
		d.tr.stamp(k.ch, k.end-1, k.end, fDecStart, t0, fDecEnd, t1)
	}
	return dec, err
}
