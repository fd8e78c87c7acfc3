package scf

import (
	"fmt"

	"tiledcfd/internal/fft"
)

// Accumulator is incremental estimator state: the streaming twin of
// Estimator.Estimate. Samples arrive in arbitrarily sized chunks via
// Push; Snapshot materialises the spectral-correlation surface of
// everything pushed so far. The defining contract, enforced by the
// golden equivalence tests, is
//
//	Push(c1); Push(c2); ...; Snapshot()
//	  ==  Estimate(concat(c1, c2, ...))
//
// bit for bit, for every chunking of the same sample sequence. Snapshot
// does not consume state — it may be called repeatedly as more samples
// arrive (the monitoring loop of the stream engine) — and Reset returns
// the accumulator to its freshly constructed state for windowed
// operation.
//
// Accumulators are deliberately NOT safe for concurrent use: each one
// belongs to a single stream (the engine gives every channel its own and
// serialises access); sharing one across goroutines without external
// locking is a race.
type Accumulator interface {
	// Name identifies the underlying estimator ("direct", "fam", "ssca").
	Name() string
	// Push appends a chunk of samples to the stream. Chunks may have any
	// length, including zero; the accumulator buffers what it cannot yet
	// process.
	Push(samples []complex128) error
	// Samples returns the total number of samples pushed since
	// construction or the last Reset.
	Samples() int
	// Ready reports whether enough samples have arrived for Snapshot to
	// succeed.
	Ready() bool
	// Snapshot returns the surface over all samples pushed so far, plus
	// the work statistics the batch path would report for the same
	// input. It fails when too few samples have arrived (see Ready).
	Snapshot() (*Surface, *Stats, error)
	// Reset discards all accumulated state, returning the accumulator to
	// its initial (empty) condition.
	Reset()
}

// StreamingEstimator is an Estimator that can also maintain incremental
// state. Direct, fam.FAM, fam.SSCA and their Q15 twins fam.FAMQ15 and
// fam.SSCAQ15 implement it.
type StreamingEstimator interface {
	Estimator
	// NewAccumulator returns fresh incremental state for this estimator's
	// configuration.
	NewAccumulator() (Accumulator, error)
}

// WindowEstimator is a StreamingEstimator whose accumulator can be bound
// to one window of a windowed stream (reset every window samples), so
// it does no work and keeps no state past what that window's estimate
// reads. The contract: after any n samples pushed since construction or
// the last Reset, in any chunking, Snapshot equals
// Estimate(x[:min(n, window)]) bit for bit, and Ready is true exactly
// when that Estimate succeeds. A window too short for any snapshot gets
// an uncapped accumulator, as NewAccumulator's, which keeps accumulating
// past it: its Snapshot is Estimate over every sample since Reset.
// fam.FAM, fam.SSCA and their Q15 twins implement it, with one
// accumulator type each, capped at the span the window's estimate reads.
type WindowEstimator interface {
	NewWindowAccumulator(window int) (Accumulator, error)
}

// AccumulatorFor returns est's accumulator bound to window when window
// is positive and est implements WindowEstimator, and
// est.NewAccumulator() otherwise: how windowed serving builds every
// channel's state.
func AccumulatorFor(est StreamingEstimator, window int) (Accumulator, error) {
	if we, ok := est.(WindowEstimator); ok && window > 0 {
		return we.NewWindowAccumulator(window)
	}
	return est.NewAccumulator()
}

// NewAccumulator returns incremental state for the direct DSCF with the
// given parameters. Params.Blocks is ignored: the block count is derived
// from the pushed samples (a snapshot after n complete blocks equals
// Compute with Blocks=n). The accumulator holds one unnormalised surface
// plus at most one analysis block of buffered samples, so its memory
// footprint is independent of stream length.
func NewAccumulator(p Params) (Accumulator, error) {
	p = p.WithDefaults()
	p.Blocks = 1 // derived from the stream; 1 keeps Validate happy
	if err := p.Validate(); err != nil {
		return nil, err
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	var win []float64
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, err
		}
	}
	return &directAccumulator{
		p:         p,
		plan:      plan,
		win:       win,
		rows:      p.CandidateRows(),
		alphas:    p.SurfaceAlphas(),
		dscfMults: p.DSCFMults(),
		sum:       NewSurfaceFor(p),
		spec:      make([]complex128, p.K),
		specc:     make([]complex128, p.K),
	}, nil
}

// NewAccumulator implements StreamingEstimator. An accumulator processes
// blocks in arrival order on the caller's goroutine (streaming
// parallelism lives across channels, in the stream engine's worker
// pool).
func (e Direct) NewAccumulator() (Accumulator, error) {
	return NewAccumulator(e.Params)
}

var _ StreamingEstimator = Direct{}

// directAccumulator is the incremental direct DSCF. It replays the exact
// per-block pipeline of Compute — window, K-point FFT, absolute-time
// phase reference, conjugate hoist, a>=0-row accumulation — as blocks
// complete, in stream order, so the running sum is always the same
// floating-point value the batch path computes over the concatenated
// samples. Snapshot copies the sum, applies the 1/N normalisation and the
// Hermitian mirror, exactly as Compute does at the end.
type directAccumulator struct {
	p    Params
	plan *fft.Plan
	win  []float64
	rows []int // candidate a >= 0 rows; nil = full plane

	// Snapshot runs once per serving decision, so the row layout and the
	// per-block multiply count are computed once here instead of rebuilt
	// (with their sorts) on every call.
	alphas    []int // full signed row set of the snapshot surface; nil = dense
	dscfMults int

	sum    *Surface // unnormalised; only a >= 0 rows carry data
	blocks int

	// buf holds stream samples not yet folded into a block; buf[0] is
	// absolute sample index bufStart. With Hop < K it retains the K-Hop
	// overlap tail, with Hop > K it drops the inter-block gaps.
	buf      []complex128
	bufStart int
	total    int

	// Private scratch (an accumulator is single-goroutine by contract,
	// and long-lived, so it owns its buffers instead of borrowing from
	// the pool per push).
	spec, specc, winbuf []complex128
}

// Name implements Accumulator.
func (d *directAccumulator) Name() string { return "direct" }

// Samples implements Accumulator.
func (d *directAccumulator) Samples() int { return d.total }

// HeldBytes returns the bytes the accumulator holds: its running sum's
// cells, its sample buffer and its block scratch. The stream engine
// counts it into a channel's held memory.
func (d *directAccumulator) HeldBytes() int {
	cells := len(d.sum.Data) * (2*d.p.M - 1)
	return 16 * (cells + cap(d.buf) + cap(d.spec) + cap(d.specc) + cap(d.winbuf))
}

// Ready implements Accumulator: one complete block suffices.
func (d *directAccumulator) Ready() bool { return d.blocks >= 1 }

// Push implements Accumulator.
func (d *directAccumulator) Push(samples []complex128) error {
	d.total += len(samples)
	// Read the chunk in place when nothing is buffered, so a push that
	// only completes blocks copies nothing but its leftover tail. The
	// buffer never starts past the next block's start, so src holds every
	// block the push completes.
	src, srcStart := samples, d.bufStart+len(d.buf)
	if len(d.buf) > 0 {
		d.buf = append(d.buf, samples...)
		src, srcStart = d.buf, d.bufStart
	}
	for {
		start := d.blocks * d.p.Hop // absolute start of the next block
		if start+d.p.K > srcStart+len(src) {
			break
		}
		off := start - srcStart
		if err := d.processBlock(src[off:off+d.p.K], start); err != nil {
			return err
		}
	}
	// Keep only what the next block reads, from its start on (a gap
	// before it, with Hop > K, is dropped): one compaction per push keeps
	// the cost linear in the chunk.
	cut := min(max(0, d.blocks*d.p.Hop-srcStart), len(src))
	d.buf, d.bufStart = append(d.buf[:0], src[cut:]...), srcStart+cut
	return nil
}

// processBlock folds one complete analysis block (absolute sample index
// start) into the running sum: the exact per-block pipeline of Compute.
func (d *directAccumulator) processBlock(block []complex128, start int) error {
	if d.win != nil {
		if d.winbuf == nil {
			d.winbuf = make([]complex128, d.p.K)
		}
		if err := fft.ApplyWindowInto(d.winbuf, block, d.win); err != nil {
			return err
		}
		block = d.winbuf
	}
	if err := d.plan.Forward(d.spec, block); err != nil {
		return err
	}
	phaseReference(d.spec, start, d.p.K)
	if d.rows == nil {
		conjInto(d.specc, d.spec)
		accumulate(d.sum, d.spec, d.specc, d.p.M, d.rows)
	} else {
		// Pruned channels touch few rows: conjugate inline (exact)
		// instead of paying the K-bin conjugation pass per block.
		accumulateConj(d.sum, d.spec, d.rows, d.p.M)
	}
	d.blocks++
	return nil
}

// Snapshot implements Accumulator.
func (d *directAccumulator) Snapshot() (*Surface, *Stats, error) {
	if d.blocks == 0 {
		return nil, nil, fmt.Errorf("scf: accumulator needs %d samples for a first block, has %d",
			d.p.K, d.total)
	}
	var out *Surface
	if d.alphas != nil {
		out = NewSparseSurface(d.p.M, d.alphas)
	} else {
		out = NewSurface(d.p.M)
	}
	for i := range out.Data {
		if out.alphaOf(i) >= 0 {
			copy(out.Data[i], d.sum.Data[i])
		}
	}
	out.Scale(1 / float64(d.blocks))
	out.MirrorHermitian()
	stats := &Stats{
		Blocks:    d.blocks,
		FFTMults:  d.blocks * fft.ComplexMults(d.p.K),
		DSCFMults: d.blocks * d.dscfMults,
	}
	return out, stats, nil
}

// Reset implements Accumulator.
func (d *directAccumulator) Reset() {
	for _, row := range d.sum.Data {
		for i := range row {
			row[i] = 0
		}
	}
	d.blocks = 0
	d.buf = d.buf[:0]
	d.bufStart = 0
	d.total = 0
}
