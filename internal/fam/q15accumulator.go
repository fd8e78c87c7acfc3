package fam

import (
	"fmt"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
)

// This file implements scf.Accumulator for FAMQ15 and SSCAQ15: the
// incremental twins of the fixed-point batch estimators, bit-identical
// to EstimateQ15 on the concatenated stream for every chunking.
//
// The fixed-point front door is the obstacle the float accumulators do
// not have: batch quantisation conditions the input against its own
// measured peak, which an incremental path cannot know. Both Q15
// accumulators therefore require InputPeak — the fixed full-scale
// reference a real ADC front end presents — so quantisation becomes a
// pure per-sample map and the streamed words match the batch words
// exactly. NewAccumulator rejects estimators without it.
//
// The second obstacle is block floating point: every hop carries its
// own exponent, and the common scale emax is a function of ALL hops in
// a snapshot, so per-cell running sums cannot be maintained (a new hop
// with a larger exponent would retroactively re-scale every earlier
// product). Both accumulators instead bank the per-hop channelizer rows
// — computed incrementally, hop by hop, through the exact kernel
// sequence of channelizeQ15 — and defer alignment and the second stage
// to Snapshot, where they run the same shared finish code as the batch
// path (famQ15Finish / sscaQ15Finish). Banked rows cost 4·K bytes per
// hop: bounded by N for SSCAQ15 with N set and by the window's cap for
// a window-bound accumulator (NewWindowAccumulator, the float twins'
// caps), stream-proportional otherwise (long-running monitors should set
// N or Reset between windows, as with the float SSCA).

// q15Front is the shared streaming front end: the fixed-gain quantiser
// and the banked per-hop channelizer state.
type q15Front struct {
	p      scf.Params
	kern   fixed.Kernels
	plan   *fft.FixedPlan
	roots  []fixed.Complex
	win    []fixed.Q15
	policy fft.ScalingPolicy
	gain   float64

	rows  [][]fixed.Complex // banked downconverted hops, hop-major
	exps  []int             // per-hop BFP exponents
	limit int               // window-bound: the most hops banked; 0 = unbounded

	xq    []fixed.Complex // quantised pending tail; xq[0] is sample base
	base  int
	total int
}

// newQ15Front validates the shared streaming configuration. The kernel
// implementation is captured once here (fixed.Active() at construction),
// so a process-wide fixed.Use switch mid-stream cannot mix kernels
// within one accumulator's lifetime.
func newQ15Front(p scf.Params, scale, peak float64, policy fft.ScalingPolicy, name string) (*q15Front, error) {
	backoff, err := q15Backoff(scale)
	if err != nil {
		return nil, err
	}
	if peak, err = q15InputPeak(peak); err != nil {
		return nil, err
	}
	if peak == 0 {
		return nil, fmt.Errorf("fam: %s streaming requires InputPeak: the batch path conditions against the measured input peak, which an incremental path cannot know", name)
	}
	win, err := fft.FixedWindow(p.Window, p.K)
	if err != nil {
		return nil, err
	}
	plan, err := fft.NewFixedPlan(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.FixedRoots(p.K)
	if err != nil {
		return nil, err
	}
	return &q15Front{
		p:      p,
		kern:   fixed.Active(),
		plan:   plan,
		roots:  roots,
		win:    win,
		policy: policy,
		gain:   backoff / peak,
	}, nil
}

// push quantises the chunk with the fixed conditioning gain — the exact
// expression quantiseQ15 applies, so the streamed Q15 words match the
// batch words — and completes every hop the buffered tail now covers
// (hop h spans samples [h·hop, h·hop+K)). With a limit, samples past
// the last banked hop's span are dropped.
func (q *q15Front) push(samples []complex128, hop int) error {
	q.total += len(samples)
	k := q.p.K
	if q.limit != 0 {
		room := max(0, (q.limit-1)*hop+k-q.base-len(q.xq))
		samples = samples[:min(len(samples), room)]
	}
	g := complex(q.gain, 0)
	for _, s := range samples {
		q.xq = append(q.xq, fixed.CFromFloat(s*g))
	}
	for {
		start := len(q.rows) * hop
		if q.base+len(q.xq) < start+k {
			return nil
		}
		row := make([]fixed.Complex, k)
		exp, err := q15Hop(q.kern, q.plan, q.roots, row, q.xq[start-q.base:start-q.base+k], q.win, start, q.policy)
		if err != nil {
			return err
		}
		q.rows = append(q.rows, row)
		q.exps = append(q.exps, exp)
	}
}

// trim drops quantised samples before absolute index keepFrom.
func (q *q15Front) trim(keepFrom int) {
	cut := keepFrom - q.base
	if cut <= 0 {
		return
	}
	if cut > len(q.xq) {
		cut = len(q.xq)
	}
	n := copy(q.xq, q.xq[cut:])
	q.xq = q.xq[:n]
	q.base += cut
}

// channelizer rebuilds a q15Channelizer over the first blocks banked
// hops, with copied rows (Snapshot must not consume the banked state —
// alignment shifts in place) and the cycle counters channelizeQ15 would
// have charged for the same geometry.
func (q *q15Front) channelizer(blocks int) *q15Channelizer {
	k := q.p.K
	c := &q15Channelizer{
		k:     k,
		hops:  make([][]fixed.Complex, blocks),
		exps:  append([]int(nil), q.exps[:blocks]...),
		fftCy: int64(blocks) * montiumFFTCycles(k),
		macCy: int64(blocks) * int64(k),
	}
	if q.win != nil {
		c.macCy *= 2
	}
	cells := make([]fixed.Complex, k*blocks)
	for n := range c.hops {
		c.hops[n], cells = cells[:k:k], cells[k:]
		copy(c.hops[n], q.rows[n])
	}
	return c
}

// reset returns the front end to its freshly constructed state.
func (q *q15Front) reset() {
	q.rows = q.rows[:0]
	q.exps = q.exps[:0]
	q.xq = q.xq[:0]
	q.base = 0
	q.total = 0
}

// NewAccumulator implements scf.StreamingEstimator. It requires
// InputPeak > 0 (see the file comment: batch quantisation conditions
// against the measured peak, which a stream cannot know; set the same
// InputPeak on the batch estimator to compare the two bit for bit).
// Workers is ignored — snapshots run serially on the caller's
// goroutine. Memory grows by 4·K bytes per channelizer hop plus the
// K-sample window overlap.
func (e FAMQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it banks at most
// the window's famHopCap hops.
func (e FAMQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	front, err := newQ15Front(p, e.InputScale, e.InputPeak, e.Policy, "FAM-Q15")
	if err != nil {
		return nil, err
	}
	front.limit = famHopCap(p, window)
	return &famQ15Accumulator{front: front}, nil
}

var (
	_ scf.StreamingEstimator = FAMQ15{}
	_ scf.WindowEstimator    = FAMQ15{}
)

// famQ15Accumulator is the incremental FAMQ15: banked channelizer hops
// (see the file comment) with the batch second stage replayed by
// Snapshot over the largest power-of-two hop prefix.
type famQ15Accumulator struct {
	front *q15Front
}

// Name implements scf.Accumulator.
func (f *famQ15Accumulator) Name() string { return "fam-q15" }

// Samples implements scf.Accumulator.
func (f *famQ15Accumulator) Samples() int { return f.front.total }

// Ready implements scf.Accumulator: the batch path needs two hops.
func (f *famQ15Accumulator) Ready() bool { return len(f.front.rows) >= 2 }

// Push implements scf.Accumulator.
func (f *famQ15Accumulator) Push(samples []complex128) error {
	if err := f.front.push(samples, f.front.p.Hop); err != nil {
		return err
	}
	// Hops overlap when Hop < K, but a completed hop's samples before
	// the next hop's start are never read again.
	f.front.trim(len(f.front.rows) * f.front.p.Hop)
	return nil
}

// SnapshotQ15 computes the surface in its native Q15-plus-exponent
// form: the shared famQ15Finish over the first pow2floor(hops) banked
// hops — exactly the prefix batch EstimateQ15 smooths — leaving the
// banked state untouched, so snapshots repeat and the stream continues.
func (f *famQ15Accumulator) SnapshotQ15() (*scf.QSurface, *scf.Stats, error) {
	q := f.front
	np := pow2Floor(len(q.rows))
	if np < 2 {
		return nil, nil, needSamples("FAM-Q15", q.p.K+q.p.Hop, q.total)
	}
	need := q.p.K + (np-1)*q.p.Hop
	return famQ15Finish(q.p, q.kern, q.channelizer(np), q.gain, 1, need)
}

// Snapshot implements scf.Accumulator: SnapshotQ15 converted exactly
// into float-FAM units.
func (f *famQ15Accumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	s, stats, err := f.SnapshotQ15()
	if err != nil {
		return nil, nil, err
	}
	return s.Float(), stats, nil
}

// Reset implements scf.Accumulator.
func (f *famQ15Accumulator) Reset() { f.front.reset() }

// NewAccumulator implements scf.StreamingEstimator, with the same
// InputPeak requirement as FAMQ15.NewAccumulator. With N set the banked
// state is bounded (N hops of 4·K bytes plus the sample prefix the
// conjugate factor reads); with N zero it grows with the stream and
// each snapshot spans the largest power-of-two hop prefix.
func (e SSCAQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: with N zero it
// banks at most the window's sscaStripCap hops. With N set, the plain
// accumulator already meets the contract.
func (e SSCAQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e.N != 0 {
		if e.N < p.K {
			return nil, needSamples("SSCA-Q15", 2*p.K-1, e.N)
		}
		if !fft.IsPow2(e.N) {
			return nil, fmt.Errorf("fam: SSCA-Q15 strip length N=%d must be a power of two", e.N)
		}
	}
	front, err := newQ15Front(p, e.InputScale, e.InputPeak, e.Policy, "SSCA-Q15")
	if err != nil {
		return nil, err
	}
	if e.N == 0 {
		front.limit = sscaStripCap(p.K, window)
	}
	return &sscaQ15Accumulator{front: front, nFixed: e.N}, nil
}

var (
	_ scf.StreamingEstimator = SSCAQ15{}
	_ scf.WindowEstimator    = SSCAQ15{}
)

// sscaQ15Accumulator is the incremental SSCAQ15: banked unit-hop
// channelizer rows with the batch strip stage replayed by Snapshot.
// Unlike the float SSCA accumulator it cannot pre-multiply the
// conjugate factor into running strips (the products would need the
// not-yet-known common exponent), so it banks the raw rows and keeps
// the quantised sample prefix the conjugate factor reads.
type sscaQ15Accumulator struct {
	front  *q15Front
	nFixed int
}

// Name implements scf.Accumulator.
func (s *sscaQ15Accumulator) Name() string { return "ssca-q15" }

// Samples implements scf.Accumulator.
func (s *sscaQ15Accumulator) Samples() int { return s.front.total }

// stripLen returns the strip length a snapshot would use now, or 0 when
// too few hops have arrived.
func (s *sscaQ15Accumulator) stripLen() int {
	hops := len(s.front.rows)
	if s.nFixed != 0 {
		if hops >= s.nFixed {
			return s.nFixed
		}
		return 0
	}
	if n := pow2Floor(hops); n >= s.front.p.K {
		return n
	}
	return 0
}

// Ready implements scf.Accumulator.
func (s *sscaQ15Accumulator) Ready() bool { return s.stripLen() != 0 }

// Push implements scf.Accumulator. The quantised prefix is retained in
// full (the conjugate factor reads it back to sample centre and the
// strip length can still grow), except in fixed-N mode once the N hops
// and their conjugate span are complete, after which arriving samples
// only advance the counter.
func (s *sscaQ15Accumulator) Push(samples []complex128) error {
	q := s.front
	if s.nFixed != 0 && len(q.rows) >= s.nFixed {
		q.total += len(samples)
		return nil
	}
	return q.push(samples, 1)
}

// SnapshotQ15 computes the surface in its native Q15-plus-exponent
// form via the shared sscaQ15Finish, leaving the banked state intact.
func (s *sscaQ15Accumulator) SnapshotQ15() (*scf.QSurface, *scf.Stats, error) {
	q := s.front
	n := s.stripLen()
	if n == 0 {
		need := 2*q.p.K - 1
		if s.nFixed != 0 {
			need = s.nFixed + q.p.K - 1
		}
		return nil, nil, needSamples("SSCA-Q15", need, q.total)
	}
	need := n + q.p.K - 1
	return sscaQ15Finish(q.p, q.kern, q.channelizer(n), q.xq, q.gain, 1, need, q.policy)
}

// Snapshot implements scf.Accumulator: SnapshotQ15 converted exactly
// into float-SSCA units.
func (s *sscaQ15Accumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	sf, stats, err := s.SnapshotQ15()
	if err != nil {
		return nil, nil, err
	}
	return sf.Float(), stats, nil
}

// Reset implements scf.Accumulator.
func (s *sscaQ15Accumulator) Reset() { s.front.reset() }
