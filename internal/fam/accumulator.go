package fam

import (
	"fmt"
	"math/cmplx"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// This file implements scf.Accumulator for the FAM and the SSCA: the
// incremental twins of the two batch estimators, bit-identical to
// Estimate on the concatenated stream (golden equivalence tests in
// accumulator_test.go).
//
// The structural obstacle both share is that their smoothing length is a
// function of the total input length — FAM averages over the largest
// power of two of channelizer hops, the SSCA strip FFT spans the largest
// power of two of samples — so a naive running sum over *all* arrived
// hops would diverge from the batch result whenever the hop count is not
// a power of two. Both accumulators keep running sums in arrival order
// and *checkpoint* them every time the hop count reaches a power of two;
// Snapshot reads the latest checkpoint, which by construction is the sum
// over exactly the first pow2floor(hops) hops — the batch prefix.
//
//   - FAM sums each surface cell's channel-pair products.
//   - The SSCA sums each strip's products folded modulo K, and Snapshot
//     turns each fold into the strip bins the grid reads with one
//     K-point FFT. Batch SSCA.Estimate is this accumulator run over its
//     input.

// NewAccumulator implements scf.StreamingEstimator. Workers is ignored:
// accumulators process hops in arrival order on the caller's goroutine
// (streaming parallelism lives across channels, in the stream engine's
// worker pool).
func (e FAM) NewAccumulator() (scf.Accumulator, error) {
	p := famDefaults(e.Params, 0)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, err
	}
	a := &famAccumulator{p: p, plan: plan, roots: roots, win: win}
	a.init()
	return a, nil
}

var _ scf.StreamingEstimator = FAM{}

// famAccumulator is the incremental FAM. Each completed channelizer hop
// is windowed, FFT'd and downconverted exactly as channelize does, then
// folded into per-cell running sums. The sums are split by hop parity
// (acc0 for even hops, acc1 for odd) because famRow sums each cell with
// two interleaved accumulators — keeping the same split keeps the
// floating-point addition order identical, hence bit-identical surfaces.
// Only the a >= 0 rows are accumulated; Snapshot mirrors the rest, as the
// batch path does.
type famAccumulator struct {
	p     scf.Params
	plan  *fft.Plan
	roots []complex128
	win   []float64

	// rowSet lists the a >= 0 rows the accumulator maintains: 0..M-1, or
	// only the candidate rows under alpha pruning.
	rowSet []int
	// acc0/acc1 are the parity-split per-cell sums, indexed
	// [i][f+M-1] with i positional in rowSet; ck holds acc0+acc1 as it
	// stood at the last power-of-two hop count ckHops.
	acc0, acc1, ck [][]complex128
	hops           int
	ckHops         int

	buf      []complex128 // unprocessed stream tail; buf[0] is sample bufStart
	bufStart int
	total    int

	spec, chn, chc, winbuf []complex128 // private per-hop scratch
}

func (f *famAccumulator) init() {
	m := f.p.M - 1
	f.rowSet = f.p.CandidateRows()
	if f.rowSet == nil {
		f.rowSet = make([]int, m+1)
		for a := range f.rowSet {
			f.rowSet[a] = a
		}
	}
	rows, cols := len(f.rowSet), 2*m+1
	grid := func() [][]complex128 {
		data := make([][]complex128, rows)
		cells := make([]complex128, rows*cols)
		for i := range data {
			data[i], cells = cells[:cols], cells[cols:]
		}
		return data
	}
	f.acc0, f.acc1, f.ck = grid(), grid(), grid()
	f.spec = make([]complex128, f.p.K)
	f.chn = make([]complex128, f.p.K)
	f.chc = make([]complex128, f.p.K)
}

// Name implements scf.Accumulator.
func (f *famAccumulator) Name() string { return "fam" }

// Samples implements scf.Accumulator.
func (f *famAccumulator) Samples() int { return f.total }

// Ready implements scf.Accumulator: the batch path needs at least two
// hops of smoothing.
func (f *famAccumulator) Ready() bool { return f.ckHops >= 2 }

// Push implements scf.Accumulator.
func (f *famAccumulator) Push(samples []complex128) error {
	f.buf = append(f.buf, samples...)
	f.total += len(samples)
	k, hop := f.p.K, f.p.Hop
	for {
		start := f.hops * hop
		if f.bufStart+len(f.buf) < start+k {
			// Keep only what the next hop reads (compacting once per
			// push keeps the cost linear in the chunk).
			f.buf, f.bufStart = scf.TrimBefore(f.buf, f.bufStart, start)
			return nil
		}
		block := f.buf[start-f.bufStart : start-f.bufStart+k]
		if f.win != nil {
			if f.winbuf == nil {
				f.winbuf = make([]complex128, k)
			}
			if err := fft.ApplyWindowInto(f.winbuf, block, f.win); err != nil {
				return err
			}
			block = f.winbuf
		}
		if err := f.plan.Forward(f.spec, block); err != nil {
			return err
		}
		// Downconvert with the absolute-time reference, as channelize
		// does: exponent (start·v) mod k advances by start per channel.
		step := start & (k - 1)
		idx := 0
		for v := 0; v < k; v++ {
			f.chn[v] = f.spec[v] * f.roots[idx]
			f.chc[v] = cmplx.Conj(f.chn[v])
			idx = (idx + step) & (k - 1)
		}
		// Fold the hop into the parity accumulator famRow would have
		// used: cell (f, a) gains x_{f+a}(n)·conj(x_{f-a}(n)).
		tgt := f.acc0
		if f.hops&1 == 1 {
			tgt = f.acc1
		}
		m := f.p.M - 1
		mask := k - 1
		for i, a := range f.rowSet {
			row := tgt[i]
			pi := (a - m) & mask
			qi := (-a - m) & mask
			for fi := range row {
				row[fi] += f.chn[pi] * f.chc[qi]
				pi = (pi + 1) & mask
				qi = (qi + 1) & mask
			}
		}
		f.hops++
		if f.hops&(f.hops-1) == 0 {
			// Power-of-two hop count: checkpoint the prefix sums,
			// adding the parities as famRow does.
			for i, ck := range f.ck {
				c0, c1 := f.acc0[i], f.acc1[i]
				for fi := range ck {
					ck[fi] = c0[fi] + c1[fi]
				}
			}
			f.ckHops = f.hops
		}
	}
}

// Snapshot implements scf.Accumulator. It reads the checkpoint at
// P = pow2floor(hops) — the sums over exactly the hops the batch path
// would smooth — normalises each cell by 1/P as famRow does, and mirrors
// the a < 0 rows.
func (f *famAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	if f.ckHops < 2 {
		return nil, nil, needSamples("FAM", f.p.K+f.p.Hop, f.total)
	}
	np := f.ckHops
	inv := complex(1/float64(np), 0)
	s := scf.NewSurfaceFor(f.p)
	for i, a := range f.rowSet {
		row := s.Row(a)
		ck := f.ck[i]
		for fi := range row {
			row[fi] = ck[fi] * inv
		}
	}
	s.MirrorHermitian()
	cells := f.p.DSCFMults()
	stats := &scf.Stats{
		Blocks:    np,
		FFTMults:  np*fft.ComplexMults(f.p.K) + cells*fft.ComplexMults(np),
		DSCFMults: np*f.p.K + cells*np,
	}
	return s, stats, nil
}

// Reset implements scf.Accumulator.
func (f *famAccumulator) Reset() {
	for _, g := range [][][]complex128{f.acc0, f.acc1, f.ck} {
		for _, row := range g {
			for i := range row {
				row[i] = 0
			}
		}
	}
	f.hops, f.ckHops = 0, 0
	f.buf = f.buf[:0]
	f.bufStart = 0
	f.total = 0
}

// NewAccumulator implements scf.StreamingEstimator. State is bounded by
// the grid, not the stream: one K-point running fold per addressed
// strip, plus (with N zero) its copy at the last power-of-two hop count.
// With N set, samples past the first N hops are discarded; with N zero
// each snapshot spans the largest power-of-two prefix of the stream.
func (e SSCA) NewAccumulator() (scf.Accumulator, error) {
	p := famDefaults(e.Params, 1)
	p.Hop = 1
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if e.N != 0 {
		if e.N < p.K {
			return nil, fmt.Errorf("fam: SSCA strip length N=%d must be >= K=%d", e.N, p.K)
		}
		if !fft.IsPow2(e.N) {
			return nil, fmt.Errorf("fam: SSCA strip length N=%d must be a power of two", e.N)
		}
	}
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			return nil, err
		}
	}
	plan, err := fft.PlanFor(p.K)
	if err != nil {
		return nil, err
	}
	roots, err := fft.Roots(p.K)
	if err != nil {
		return nil, err
	}
	a := &sscaAccumulator{p: p, nFixed: e.N, plan: plan, roots: roots, win: win}
	a.init()
	return a, nil
}

var _ scf.StreamingEstimator = SSCA{}

// sscaAccumulator computes the SSCA, for streams and (through
// SSCA.Estimate) batches alike. Every arriving sample completes one more
// position of the unit-hop channelizer; the accumulator runs the K-point
// FFT, downconverts the addressed channels and multiplies each by the
// conjugate centre-aligned input sample, giving strip product p_v[h].
//
// Cell (f, a) reads only strip bin q = (N/K)·j, j = (a-f) mod K, of the
// N-point strip FFT, and that bin equals bin j of the K-point DFT of the
// strip folded modulo K, y_v[r] = Σ_{h ≡ r mod K} p_v[h], because
// e^{-j2π·h·q/N} depends only on h mod K. At those bins the centre-shift
// derotation e^{-j2π·q·(K/2)/N} is (-1)^j. So the accumulator keeps only
// the running fold, and Snapshot runs one K-point FFT per strip.
type sscaAccumulator struct {
	p      scf.Params
	nFixed int
	plan   *fft.Plan
	roots  []complex128
	win    []float64

	rowAlphas []int // surface rows to fill: all of [-m, m], or the candidate set
	needed    []int // addressed channel indices
	rotIdx    []int // per needed channel: running downconversion index (v·hops mod K)
	// fold is the running strip fold, hop-major so each hop's writes are
	// contiguous: fold[(h mod K)·len(needed)+i] sums channel needed[i]'s
	// products over the hops h seen so far. With N zero, ck is fold's
	// copy at the last power-of-two hop count ckHops >= K. Both are
	// allocated on the first hop.
	fold, ck []complex128
	hops     int
	ckHops   int

	buf      []complex128
	bufStart int
	total    int

	spec, winbuf []complex128
}

func (s *sscaAccumulator) init() {
	m := s.p.M - 1
	s.rowAlphas = s.p.SurfaceAlphas()
	if s.rowAlphas == nil {
		s.rowAlphas = make([]int, 2*m+1)
		for i := range s.rowAlphas {
			s.rowAlphas[i] = i - m
		}
	}
	// Only the channels the held rows address get strips: the residues
	// f+a mod K per row a — the full [-2m, 2m] band, or the candidate
	// strips under alpha pruning.
	seen := make([]bool, s.p.K)
	for _, a := range s.rowAlphas {
		for f := -m; f <= m; f++ {
			if k := fft.BinIndex(s.p.K, f+a); !seen[k] {
				seen[k] = true
				s.needed = append(s.needed, k)
			}
		}
	}
	s.rotIdx = make([]int, len(s.needed))
	s.spec = make([]complex128, s.p.K)
}

// Name implements scf.Accumulator.
func (s *sscaAccumulator) Name() string { return "ssca" }

// Samples implements scf.Accumulator.
func (s *sscaAccumulator) Samples() int { return s.total }

// stripLen returns the strip length a snapshot would use now, or 0 when
// too few hops have arrived.
func (s *sscaAccumulator) stripLen() int {
	if s.nFixed == 0 {
		return s.ckHops
	}
	if s.hops >= s.nFixed {
		return s.nFixed
	}
	return 0
}

// Ready implements scf.Accumulator.
func (s *sscaAccumulator) Ready() bool { return s.stripLen() != 0 }

// Push implements scf.Accumulator.
func (s *sscaAccumulator) Push(samples []complex128) error {
	s.buf = append(s.buf, samples...)
	s.total += len(samples)
	k := s.p.K
	mask := k - 1
	nn := len(s.needed)
	for {
		start := s.hops // unit hop: hop m starts at sample m
		if s.nFixed != 0 && s.hops >= s.nFixed {
			// The fold is complete; later samples can only be discarded
			// (the fixed-N estimate spans the first N hops). Drop
			// everything so memory stays flat; bufStart advances to the
			// absolute index of the next sample to arrive.
			s.buf = s.buf[:0]
			s.bufStart = s.total
			return nil
		}
		if s.bufStart+len(s.buf) < start+k {
			// Keep only the K-1 overlap tail the next hop reads
			// (compacting once per push keeps the cost linear).
			s.buf, s.bufStart = scf.TrimBefore(s.buf, s.bufStart, start)
			return nil
		}
		if s.fold == nil {
			s.fold = make([]complex128, k*nn)
			if s.nFixed == 0 {
				s.ck = make([]complex128, k*nn)
			}
		}
		block := s.buf[start-s.bufStart : start-s.bufStart+k]
		if s.win != nil {
			if s.winbuf == nil {
				s.winbuf = make([]complex128, k)
			}
			if err := fft.ApplyWindowInto(s.winbuf, block, s.win); err != nil {
				return err
			}
			block = s.winbuf
		}
		if err := s.plan.Forward(s.spec, block); err != nil {
			return err
		}
		// The conjugate centre-aligned factor of this strip position.
		xc := cmplx.Conj(s.buf[start-s.bufStart+k/2])
		// Fold this hop's products into residue row start mod K; the
		// first K hops open the rows, so Reset never has to clear them.
		// The downconversion exponent (start·v) mod K advances by v per
		// unit hop, so each channel carries a running table index.
		r := start & mask
		row := s.fold[r*nn : (r+1)*nn]
		if start < k {
			clear(row)
		}
		spec, roots, rot := s.spec, s.roots, s.rotIdx
		for i, v := range s.needed {
			idx := rot[i]
			row[i] += spec[v] * roots[idx] * xc
			rot[i] = (idx + v) & mask
		}
		s.hops++
		if s.nFixed == 0 && s.hops >= k && s.hops&(s.hops-1) == 0 {
			// Power-of-two hop count: checkpoint the fold of exactly the
			// prefix a batch estimate of this stream would transform.
			copy(s.ck, s.fold)
			s.ckHops = s.hops
		}
	}
}

// Snapshot implements scf.Accumulator. Each strip's fold column goes
// through one K-point FFT; cell (f, a) reads bin j = (a-f) mod K of
// strip f+a, derotated by (-1)^j and scaled by 1/N.
func (s *sscaAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	n := s.stripLen()
	if n == 0 {
		need := 2*s.p.K - 1
		if s.nFixed != 0 {
			need = s.nFixed + s.p.K - 1
		}
		return nil, nil, needSamples("SSCA", need, s.total)
	}
	fold := s.fold
	if s.nFixed == 0 {
		fold = s.ck
	}
	k, nn := s.p.K, len(s.needed)
	strips := make([][]complex128, k)
	cells := make([]complex128, (nn+1)*k)
	col := cells[nn*k:]
	for i, v := range s.needed {
		for r := range col {
			col[r] = fold[r*nn+i]
		}
		u := cells[i*k : (i+1)*k]
		if err := s.plan.Forward(u, col); err != nil {
			return nil, nil, err
		}
		strips[v] = u
	}
	m := s.p.M - 1
	sf := scf.NewSurfaceFor(s.p)
	inv := complex(1/float64(n), 0)
	for i, a := range s.rowAlphas {
		row := sf.Data[i]
		for f := -m; f <= m; f++ {
			j := fft.BinIndex(k, a-f)
			c := strips[fft.BinIndex(k, f+a)][j]
			if j&1 == 1 {
				c = -c
			}
			row[f+m] = c * inv
		}
	}
	// Stats report the canonical N-point strip model (see doc.go).
	stats := &scf.Stats{
		Blocks:    n,
		FFTMults:  n*fft.ComplexMults(k) + nn*fft.ComplexMults(n),
		DSCFMults: n*k + nn*n,
	}
	return sf, stats, nil
}

// Reset implements scf.Accumulator. The fold needs no clearing: the
// first K hops after a reset overwrite it.
func (s *sscaAccumulator) Reset() {
	clear(s.rotIdx)
	s.hops, s.ckHops = 0, 0
	s.buf = s.buf[:0]
	s.bufStart = 0
	s.total = 0
}
