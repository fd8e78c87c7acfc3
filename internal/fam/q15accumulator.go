package fam

import (
	"fmt"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
)

// This file implements scf.Accumulator for FAMQ15 and SSCAQ15. Batch
// EstimateQ15 is the accumulator bound to len(x) run over x, so batch
// and streaming estimates are one code path.
//
// The fixed-point front door is the obstacle the float accumulators do
// not have: a batch estimate with InputPeak zero conditions the input
// against the peak of the samples it reads, which an incremental path
// cannot know. Streaming accumulators therefore require InputPeak, the
// fixed full-scale reference a real ADC front end presents, so
// quantisation is a pure per-sample map. NewAccumulator rejects
// estimators without it.
//
// The second obstacle is block floating point: every hop carries its
// own exponent, and the common scale emax is a function of ALL hops in
// a snapshot, so per-cell running sums cannot be maintained (a new hop
// with a larger exponent would retroactively re-scale every earlier
// product). Both accumulators instead bank the per-hop channelizer rows,
// computed hop by hop as they complete, and defer alignment and the
// second stage to Snapshot (famQ15Finish / sscaQ15Finish), which reads
// the bank without modifying it. Banked rows cost 4·K bytes per hop:
// bounded by N for SSCAQ15 with N set and by the window's cap for a
// window-bound accumulator (NewWindowAccumulator, the float twins'
// caps), stream-proportional otherwise (long-running monitors should set
// N or Reset between windows, as with the float SSCA).

// q15Front is the shared front end: the fixed-gain quantiser and the
// banked per-hop channelizer state.
type q15Front struct {
	p       scf.Params
	kern    fixed.Kernels
	plan    *fft.FixedPlan
	roots   []fixed.Complex
	win     []fixed.Q15
	policy  fft.ScalingPolicy
	backoff float64
	gain    float64
	workers int // goroutines a snapshot's second stage runs on

	rows  [][]fixed.Complex // banked downconverted hops, hop-major; never written once banked
	exps  []int             // per-hop BFP exponents
	limit int               // window-bound: the most hops banked; 0 = unbounded
	bank  []fixed.Complex   // with a limit: the backing store of all limit rows

	xq    []fixed.Complex // quantised pending tail; xq[0] is sample base
	base  int
	total int
}

// newQ15Front validates the shared configuration. peak is the
// conditioning full scale (InputPeak; zero leaves the gain 0 until
// measure sets it). The kernel implementation is captured once here
// (fixed.Active() at construction), so a process-wide fixed.Use switch
// mid-stream cannot mix kernels within one accumulator's lifetime. With
// a limit, the hop bank and the quantised sample buffer are allocated
// here, once, at their final size.
func newQ15Front(p scf.Params, scale, peak float64, policy fft.ScalingPolicy, limit, workers int) (*q15Front, error) {
	backoff, err := q15Backoff(scale)
	if err != nil {
		return nil, err
	}
	if peak, err = q15InputPeak(peak); err != nil {
		return nil, err
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
	q := &q15Front{
		p:       p,
		kern:    fixed.Active(),
		plan:    plan,
		roots:   roots,
		win:     win,
		policy:  policy,
		backoff: backoff,
		workers: workers,
		limit:   limit,
	}
	q.condition(peak)
	if limit != 0 {
		q.bank = make([]fixed.Complex, limit*p.K)
		q.rows = make([][]fixed.Complex, 0, limit)
		q.exps = make([]int, 0, limit)
		q.xq = make([]fixed.Complex, 0, q.span())
	}
	return q, nil
}

// requireInputPeak rejects a streaming accumulator without InputPeak.
func requireInputPeak(peak float64, name string) error {
	if peak == 0 {
		return fmt.Errorf("fam: %s streaming requires InputPeak: the batch path conditions against the measured input peak, which an incremental path cannot know", name)
	}
	return nil
}

// condition sets the gain that brings full scale peak to the backoff, or
// 0 for a zero peak (every word then quantises to 0, and the surface is
// exactly zero).
func (q *q15Front) condition(peak float64) {
	q.gain = 0
	if peak != 0 {
		q.gain = q.backoff / peak
	}
}

// measure conditions a batch estimate against the peak of the samples
// it reads: the span of the limit's hops (none without a limit, where
// the input is too short for an estimate).
func (q *q15Front) measure(x []complex128) {
	if q.limit != 0 {
		q.condition(peakOf(x[:min(len(x), q.span())]))
	}
}

// span returns the samples the limit's hops read.
func (q *q15Front) span() int { return (q.limit-1)*q.p.Hop + q.p.K }

// push quantises the chunk with the conditioning gain and completes
// every hop the buffered tail now covers (hop h spans samples
// [h·Hop, h·Hop+K)). With a limit, samples past the last banked hop's
// span are dropped.
func (q *q15Front) push(samples []complex128) error {
	q.total += len(samples)
	k, hop := q.p.K, q.p.Hop
	if q.limit != 0 {
		samples = samples[:min(len(samples), max(0, q.span()-q.base-len(q.xq)))]
	}
	g := complex(q.gain, 0)
	for _, s := range samples {
		q.xq = append(q.xq, fixed.CFromFloat(s*g))
	}
	for {
		n := len(q.rows)
		start := n * hop
		if q.base+len(q.xq) < start+k {
			return nil
		}
		var row []fixed.Complex
		if q.bank != nil {
			row = q.bank[n*k : (n+1)*k : (n+1)*k]
		} else {
			row = make([]fixed.Complex, k)
		}
		// Window, FFT under the policy, and downconvert with the
		// absolute-time reference e^{-j2π·start·v/K}, exactly as the
		// float channelizer but through the Q15 roots.
		if block := q.xq[start-q.base : start-q.base+k]; q.win != nil {
			q.kern.ScaleReal(row, block, q.win)
		} else {
			copy(row, block)
		}
		exp, err := q.plan.ForwardScaledWith(q.kern, row, row, q.policy)
		if err != nil {
			return err
		}
		q.kern.MulRoots(row, row, q.roots, 0, start&(k-1), k-1)
		q.rows = append(q.rows, row)
		q.exps = append(q.exps, exp)
	}
}

// channelizer views the first blocks banked hops as a q15Channelizer,
// with their common exponent and the cycle counters the same geometry
// charges. No row is copied: the gathers align as they read.
func (q *q15Front) channelizer(blocks int) *q15Channelizer {
	k := q.p.K
	c := &q15Channelizer{
		k:     k,
		hops:  q.rows[:blocks],
		exps:  q.exps[:blocks],
		fftCy: int64(blocks) * montiumFFTCycles(k),
		macCy: int64(blocks) * int64(k),
	}
	if q.win != nil {
		c.macCy *= 2
	}
	for _, e := range c.exps {
		c.emax = max(c.emax, e)
	}
	for _, e := range c.exps {
		if e != c.emax {
			c.aligned += int64(k)
		}
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
// Workers is ignored: snapshots run serially on the caller's
// goroutine. Memory grows by 4·K bytes per channelizer hop plus the
// K-sample window overlap.
func (e FAMQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: it banks at most
// the window's famHopCap hops.
func (e FAMQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	if err := requireInputPeak(e.InputPeak, "FAM-Q15"); err != nil {
		return nil, err
	}
	return e.newAccumulator(window, 1)
}

// newAccumulator builds the accumulator bound to window with the given
// second-stage worker count (0 = GOMAXPROCS).
func (e FAMQ15) newAccumulator(window, workers int) (*famQ15Accumulator, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	front, err := newQ15Front(p, e.InputScale, e.InputPeak, e.Policy, famHopCap(p, window), workers)
	if err != nil {
		return nil, err
	}
	return &famQ15Accumulator{front: front}, nil
}

var (
	_ scf.StreamingEstimator = FAMQ15{}
	_ scf.WindowEstimator    = FAMQ15{}
)

// famQ15Accumulator computes the FAMQ15, for streams and (through
// EstimateQ15) batches alike: banked channelizer hops (see the file
// comment) with the second stage run by Snapshot over the largest
// power-of-two hop prefix.
type famQ15Accumulator struct {
	front *q15Front
}

// Name implements scf.Accumulator.
func (f *famQ15Accumulator) Name() string { return "fam-q15" }

// Samples implements scf.Accumulator.
func (f *famQ15Accumulator) Samples() int { return f.front.total }

// Ready implements scf.Accumulator: the estimate needs two hops.
func (f *famQ15Accumulator) Ready() bool { return len(f.front.rows) >= 2 }

// Push implements scf.Accumulator.
func (f *famQ15Accumulator) Push(samples []complex128) error {
	q := f.front
	if err := q.push(samples); err != nil {
		return err
	}
	// Hops overlap when Hop < K, but a completed hop's samples before
	// the next hop's start are never read again.
	q.xq, q.base = scf.TrimBefore(q.xq, q.base, len(q.rows)*q.p.Hop)
	return nil
}

// SnapshotQ15 computes the surface in its native Q15-plus-exponent
// form: famQ15Finish over the first pow2floor(hops) banked hops, leaving
// the banked state untouched, so snapshots repeat and the stream
// continues.
func (f *famQ15Accumulator) SnapshotQ15() (*scf.QSurface, *scf.Stats, error) {
	q := f.front
	np := pow2Floor(len(q.rows))
	if np < 2 {
		return nil, nil, needSamples("FAM-Q15", q.p.K+q.p.Hop, q.total)
	}
	need := q.p.K + (np-1)*q.p.Hop
	return famQ15Finish(q.p, q.kern, q.channelizer(np), q.gain, q.workers, need)
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
// state is bounded (N hops of 4·K bytes plus the N+K-1 samples they and
// the conjugate factor read; later samples are dropped); with N zero it
// grows with the stream and each snapshot spans the largest power-of-two
// hop prefix.
func (e SSCAQ15) NewAccumulator() (scf.Accumulator, error) { return e.NewWindowAccumulator(0) }

// NewWindowAccumulator implements scf.WindowEstimator: with N zero it
// banks at most the window's sscaStripCap hops. With N set, the plain
// accumulator already meets the contract.
func (e SSCAQ15) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	if err := requireInputPeak(e.InputPeak, "SSCA-Q15"); err != nil {
		return nil, err
	}
	return e.newAccumulator(window, 1)
}

// newAccumulator builds the accumulator bound to window with the given
// strip worker count (0 = GOMAXPROCS).
func (e SSCAQ15) newAccumulator(window, workers int) (*sscaQ15Accumulator, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	limit := e.N
	if e.N == 0 {
		limit = sscaStripCap(p.K, window)
	} else if e.N < p.K {
		return nil, fmt.Errorf("fam: SSCA-Q15 strip length N=%d must be >= K=%d", e.N, p.K)
	} else if !fft.IsPow2(e.N) {
		return nil, fmt.Errorf("fam: SSCA-Q15 strip length N=%d must be a power of two", e.N)
	}
	front, err := newQ15Front(p, e.InputScale, e.InputPeak, e.Policy, limit, workers)
	if err != nil {
		return nil, err
	}
	return &sscaQ15Accumulator{front: front, nFixed: e.N}, nil
}

var (
	_ scf.StreamingEstimator = SSCAQ15{}
	_ scf.WindowEstimator    = SSCAQ15{}
)

// sscaQ15Accumulator computes the SSCAQ15, for streams and (through
// EstimateQ15) batches alike: banked unit-hop channelizer rows with the
// strip stage run by Snapshot. Unlike the float SSCA accumulator it
// cannot pre-multiply the conjugate factor into running strips (the
// products would need the not-yet-known common exponent), so it banks
// the raw rows and keeps the quantised sample prefix the conjugate
// factor reads.
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
// full: the conjugate factor reads it back to sample centre, and with N
// zero the strip length can still grow.
func (s *sscaQ15Accumulator) Push(samples []complex128) error { return s.front.push(samples) }

// SnapshotQ15 computes the surface in its native Q15-plus-exponent
// form via sscaQ15Finish, leaving the banked state intact.
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
	return sscaQ15Finish(q.p, q.kern, q.channelizer(n), q.xq, q.gain, q.workers, need, q.policy)
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
