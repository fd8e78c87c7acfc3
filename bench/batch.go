package main

import (
	"fmt"
	"math"
	"time"

	"tiledcfd"
)

// loopBands is how many bands of each hypothesis the timed Sense loop
// cycles through: the first ones checked. The other checked bands are
// generated one at a time and dropped, which keeps the heap small.
const loopBands = 256

// checkBands is the batch workload's correctness gate, run once before
// timing over every band (pool occupied, then noisePool noise-only):
// tiledcfd.Sense must return, bit for bit, the verdict and statistic of
// the batch fam-q15 Estimate plus a fresh decider on the same band. It
// also yields pd and pfa over the bands, and the timed loop's bands,
// occupied and noise alternating.
func checkBands(w *workload, seed uint64) (pd, pfa float64, loop [][]complex64, errs []string, err error) {
	est, err := w.referenceEstimator()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	dec, err := w.newDecider()
	if err != nil {
		return 0, 0, nil, nil, err
	}
	cfg := w.senseConfig()
	var det, n [2]int
	var kept [2][][]complex64
	var x []complex128
	for b := 0; b < w.pool+w.noisePool; b++ {
		band, err := genSignal(w, seed, w.bandSignal(b), w.window)
		if err != nil {
			return 0, 0, nil, nil, err
		}
		h := 1
		if occupied(w.bandSignal(b)) {
			h = 0
		}
		if len(kept[h]) < loopBands {
			kept[h] = append(kept[h], band)
		}
		x = widen(x, band, 0, len(band))
		got, err := tiledcfd.Sense(x, cfg)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: band %d: Sense: %v", w.name, b, err))
			continue
		}
		s, _, err := est.Estimate(x)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: band %d: reference estimate: %v", w.name, b, err))
			continue
		}
		ref, err := dec.Decide(s, x)
		if err != nil {
			errs = append(errs, fmt.Sprintf("%s: band %d: reference decide: %v", w.name, b, err))
			continue
		}
		if math.Float64bits(got.Statistic) != math.Float64bits(ref.Statistic) || got.Detected != ref.Detected {
			errs = append(errs, fmt.Sprintf("%s: band %d: Sense detected=%v statistic=%v, reference detected=%v statistic=%v",
				w.name, b, got.Detected, got.Statistic, ref.Detected, ref.Statistic))
		}
		n[h]++
		if got.Detected {
			det[h]++
		}
	}
	for i := 0; i < max(len(kept[0]), len(kept[1])); i++ {
		for h := range kept {
			if i < len(kept[h]) {
				loop = append(loop, kept[h][i])
			}
		}
	}
	return share(det[0], n[0]), share(det[1], n[1]), loop, errs, nil
}

// senseLoop is the record of one closed-loop run over the bands.
type senseLoop struct {
	calls, failed int64
	start         time.Time
	latNs         []float64   // per successful Sense call
	startS        []float64   // its start, seconds into the loop
	ends          []time.Time // its end
	// With traced set, each Sense call is followed by an untimed-for-
	// capacity batch Estimate and Decide on the same band.
	estNs, decNs  []float64
	mults, cycles int64
	senseNs       float64 // total time inside Sense
}

// runSenseLoop calls Sense back to back for dur, cycling through the
// bands (occupied and noise alternate). One caller: the estimator's own
// worker pool (Workers 0) fans each call out over GOMAXPROCS.
func runSenseLoop(w *workload, bands [][]complex64, dur time.Duration, traced bool) (*senseLoop, error) {
	cfg := w.senseConfig()
	l := &senseLoop{}
	est, err := w.referenceEstimator()
	if err != nil {
		return nil, err
	}
	dec, err := w.newDecider()
	if err != nil {
		return nil, err
	}
	var x []complex128
	start := time.Now()
	l.start = start
	for b := 0; time.Since(start) < dur; b++ {
		x = widen(x, bands[b%len(bands)], 0, w.window)
		t0 := time.Now()
		_, err := tiledcfd.Sense(x, cfg)
		d := time.Since(t0)
		l.calls++
		l.senseNs += float64(d)
		if err != nil {
			l.failed++
			continue
		}
		l.latNs = append(l.latNs, float64(d))
		l.startS = append(l.startS, t0.Sub(start).Seconds())
		l.ends = append(l.ends, t0.Add(d))
		if !traced {
			continue
		}
		t1 := time.Now()
		s, st, err := est.Estimate(x)
		t2 := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: traced estimate: %w", w.name, err)
		}
		if _, err := dec.Decide(s, x); err != nil {
			return nil, fmt.Errorf("%s: traced decide: %w", w.name, err)
		}
		t3 := time.Now()
		l.estNs = append(l.estNs, float64(t2.Sub(t1)))
		l.decNs = append(l.decNs, float64(t3.Sub(t2)))
		l.mults, l.cycles = int64(st.TotalMults()), st.Cycles
	}
	return l, nil
}

// capacities returns the samples per second, in Msample/s, of every
// group of rateGroups consecutive calls.
func (l *senseLoop) capacities(w *workload) []float64 {
	rates := groupRates(l.start, l.ends, float64(w.window), rateGroups)
	for i := range rates {
		rates[i] /= 1e6
	}
	return rates
}

// senseCapacity counts only the time spent inside Sense, for comparing
// the traced loop (which runs the per-layer probes between calls) with
// the untraced one.
func (l *senseLoop) senseCapacity(w *workload) float64 {
	return float64(len(l.latNs)) * float64(w.window) / (l.senseNs / 1e9) / 1e6
}

// latencies returns the median call latency (ns) of every latencySlice
// of calls.
func (l *senseLoop) latencies() []float64 {
	return sliceMedians(l.startS, l.latNs, latencySlice, 5)
}
