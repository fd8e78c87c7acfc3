package fam

import (
	"fmt"
	"runtime"
	"sync"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FAM is the FFT Accumulation Method estimator: a K-point channelizer
// hopping by Hop samples (default K/4) with an analysis window, complex
// downconversion of every channel, and a P-point second FFT across the
// channelizer hops for every surface cell's channel-pair product
// sequence. Bin 0 of the second FFT — the cyclic component at exactly
// the cell's cycle frequency α = 2a/K — fills the cell.
//
// P, the smoothing length, is the largest power of two not exceeding the
// number of whole hops the input affords: P = pow2floor((len(x)-K)/Hop+1).
// The zero value estimates with the paper's geometry (K=256, M=64,
// Hop=64, rectangular window).
type FAM struct {
	// Params configures the channelizer and grid. K is the channelizer
	// size, M the surface half-extent, Hop the channelizer advance
	// (default K/4 — the classical 75% overlap), Window the analysis
	// window (a Hamming window is the conventional FAM choice; the
	// default is rectangular for comparability with the direct method).
	// Blocks is ignored: the smoothing length is derived from the input.
	Params scf.Params
	// Workers bounds the goroutines Estimate folds surface rows on: each
	// block of channelizer hops is channelized once, then its rows are
	// partitioned across workers. 0 means runtime.GOMAXPROCS(0); 1 forces
	// the serial path. Each cell is written by one worker only, so every
	// worker count produces bit-identical surfaces. Accumulators
	// (NewAccumulator, NewWindowAccumulator) always fold serially.
	Workers int
}

// Name implements scf.Estimator.
func (FAM) Name() string { return "fam" }

// MinSamples returns the shortest input Estimate accepts for the
// configured geometry: two channelizer hops.
func (e FAM) MinSamples() int {
	p := famDefaults(e.Params, 0)
	return p.K + p.Hop
}

// Estimate implements scf.Estimator: the accumulator bound to len(x)
// run over x, so batch and streaming estimates are one code path.
func (e FAM) Estimate(x []complex128) (*scf.Surface, *scf.Stats, error) {
	acc, err := e.newAccumulator(len(x), e.Workers)
	if err != nil {
		return nil, nil, err
	}
	if err := acc.Push(x); err != nil {
		return nil, nil, err
	}
	return acc.Snapshot()
}

// WithAlphaCandidates implements scf.CandidateEstimator.
func (e FAM) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	if len(alphas) == 0 {
		return e, nil
	}
	p := famDefaults(e.Params, 0)
	p.AlphaCandidates = append([]int(nil), alphas...)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	e.Params = p
	return e, nil
}

var _ scf.Estimator = FAM{}

// famDefaults fills the zero fields of a FAM/SSCA parameter set: K=256,
// M=K/4, and the given default hop. Blocks is forced to 1 — both
// estimators derive their own smoothing length from the input.
func famDefaults(p scf.Params, defaultHop int) scf.Params {
	if p.K == 0 {
		p.K = 256
	}
	if p.M == 0 {
		p.M = p.K / 4
	}
	if p.Hop == 0 {
		p.Hop = defaultHop
		if p.Hop == 0 {
			p.Hop = p.K / 4
		}
	}
	p.Blocks = 1
	return p
}

// pow2Floor returns the largest power of two not exceeding n, or 0 when
// n < 1 (fft.Pow2Floor, aliased for the package's call sites).
func pow2Floor(n int) int { return fft.Pow2Floor(n) }

// needSamples formats the standard too-short error.
func needSamples(name string, need, have int) error {
	return fmt.Errorf("fam: %s needs >= %d samples, have %d", name, need, have)
}

// forEach runs job(i) for every i in [0, n) on up to workers goroutines
// (0 = GOMAXPROCS), worker w taking i ≡ w (mod workers), and returns when
// all are done. One worker runs the jobs in order on the caller's
// goroutine.
func forEach(n, workers int, job func(i int)) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			job(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < n; i += workers {
				job(i)
			}
		}()
	}
	wg.Wait()
}
