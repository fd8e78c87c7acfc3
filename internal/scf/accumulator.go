package scf

import "fmt"

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
// Direct, fam.FAM, fam.SSCA and their Q15 twins implement it, with
// NewSpanAccumulator capped at the span the window's estimate reads
// (Direct's estimate being Compute over the complete blocks).
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

// NewSpanAccumulator returns the accumulator every estimator streams
// with. It buffers the first span samples pushed since Reset, allocated
// once at the span (every sample since Reset when span is 0), counts
// and drops the samples past it, and at Snapshot runs fold.Estimate over
// the buffer into the surface it returns. It is Ready once need samples
// are buffered, need being the fewest fold.Estimate accepts. Nothing is
// kept between pushes but the buffer, so a snapshot equals the batch
// fold over the same samples by construction, in any chunking.
func NewSpanAccumulator(fold Estimator, span, need int) Accumulator {
	return &spanAccumulator{fold: fold, span: span, need: need}
}

// spanAccumulator is the one Accumulator: see NewSpanAccumulator.
type spanAccumulator struct {
	fold       Estimator
	span, need int
	buf        []complex128
	total      int
}

// Name implements Accumulator: the fold's estimator name.
func (a *spanAccumulator) Name() string { return a.fold.Name() }

// Push implements Accumulator: it buffers the chunk's share of the span.
func (a *spanAccumulator) Push(samples []complex128) error {
	a.total += len(samples)
	if a.span != 0 {
		if a.buf == nil {
			a.buf = make([]complex128, 0, a.span)
		}
		samples = samples[:min(len(samples), a.span-len(a.buf))]
	}
	a.buf = append(a.buf, samples...)
	return nil
}

// Samples implements Accumulator.
func (a *spanAccumulator) Samples() int { return a.total }

// Ready implements Accumulator.
func (a *spanAccumulator) Ready() bool { return len(a.buf) >= a.need }

// Snapshot implements Accumulator: the fold over the buffer.
func (a *spanAccumulator) Snapshot() (*Surface, *Stats, error) { return a.fold.Estimate(a.buf) }

// SnapshotProfile sets dst to the profile of Snapshot's surface, bit
// for bit, by the fold over the buffer straight into dst when the fold
// is a ProfileEstimator. ok is false, and dst untouched, when it is not;
// then only Snapshot gives the profile. The stream engine decides from
// it when its decider reads no more.
func (a *spanAccumulator) SnapshotProfile(dst *Profile) (ok bool, err error) {
	pe, ok := a.fold.(ProfileEstimator)
	if !ok {
		return false, nil
	}
	return true, pe.EstimateProfile(a.buf, dst)
}

// Reset implements Accumulator: the buffer stays allocated for the next
// window's span.
func (a *spanAccumulator) Reset() {
	a.buf = a.buf[:0]
	a.total = 0
}

// HeldBytes returns the bytes the accumulator holds: its buffer's
// capacity, 16 B a sample. The stream engine counts it into a channel's
// held memory.
func (a *spanAccumulator) HeldBytes() int { return 16 * cap(a.buf) }

// NewAccumulator returns the direct DSCF's accumulator for the given
// parameters. Params.Blocks is ignored: a snapshot over n samples equals
// Compute with Blocks set to the complete blocks they hold. It buffers
// every sample since Reset, so its memory grows with them; the windowed
// stream engine binds it to its window instead (NewWindowAccumulator).
func NewAccumulator(p Params) (Accumulator, error) {
	return Direct{Params: p}.NewWindowAccumulator(0)
}

// NewAccumulator implements StreamingEstimator. The accumulator folds on
// the caller's goroutine (streaming parallelism lives across channels,
// in the stream engine's worker pool).
func (e Direct) NewAccumulator() (Accumulator, error) {
	return e.NewWindowAccumulator(0)
}

// NewWindowAccumulator implements WindowEstimator: it buffers the
// window's complete blocks, and Snapshot folds them. Its reference is
// Compute over the complete blocks of x[:min(n, window)], since Blocks
// is derived from the samples (see NewAccumulator). A window of no
// complete block gets the uncapped accumulator.
func (e Direct) NewWindowAccumulator(window int) (Accumulator, error) {
	p := e.Params.WithDefaults()
	p.Blocks = 1 // derived from the buffer; 1 keeps Validate happy
	if err := p.Validate(); err != nil {
		return nil, err
	}
	span := 0
	if window >= p.K {
		span = (window-p.K)/p.Hop*p.Hop + p.K
	}
	return NewSpanAccumulator(directFold(p), span, p.K), nil
}

var (
	_ StreamingEstimator = Direct{}
	_ WindowEstimator    = Direct{}
)

// directFold is the direct DSCF over every complete block its input
// holds: the fold of Direct's accumulator.
type directFold Params

// Name implements Estimator.
func (directFold) Name() string { return "direct" }

// Estimate implements Estimator: Compute with Blocks set to the complete
// blocks of x.
func (d directFold) Estimate(x []complex128) (*Surface, *Stats, error) {
	p := Params(d)
	if len(x) < p.K {
		return nil, nil, fmt.Errorf("scf: accumulator needs %d samples for a first block, has %d", p.K, len(x))
	}
	p.Blocks = (len(x)-p.K)/p.Hop + 1
	return Compute(x, p)
}
