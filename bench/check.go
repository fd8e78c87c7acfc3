package main

import (
	"fmt"
	"math"
)

// refEvery is the correctness gate's sampling stride: every 16th decided
// window of each channel is recomputed from scratch.
const refEvery = 16

// accounting is a saturation phase's sample bookkeeping, read before the
// system shuts down.
type accounting struct {
	offered  int64
	totals   counters
	accepted []int64 // per channel
}

func (s *system) account(sat *saturation) accounting {
	a := accounting{offered: sat.samples(), totals: s.counters(), accepted: make([]int64, len(s.ids))}
	for ch := range a.accepted {
		a.accepted[ch], _ = s.channelCounts(ch)
	}
	return a
}

// checkSaturation is the correctness gate of a saturation phase, where
// every window is exact. It checks that samples are conserved (offered =
// accepted + dropped + shed), that each channel decided exactly its
// accepted samples over W windows with a gapless Seq, and that every
// 16th window's verdict and statistic equal, bit for bit, a batch
// Estimate plus the same decider on the reconstructed window. Each
// failure names the workload and the window.
func checkSaturation(w *workload, a accounting, per [][]decRec, pools [][]complex64) []string {
	var errs []string
	t := a.totals
	if t.accepted+t.dropped+t.shed != a.offered {
		errs = append(errs, fmt.Sprintf("%s: conservation: offered %d != accepted %d + dropped %d + shed %d",
			w.name, a.offered, t.accepted, t.dropped, t.shed))
	}
	W := int64(w.window)
	for ch, recs := range per {
		if acc := a.accepted[ch]; acc%W != 0 || int64(len(recs)) != acc/W {
			errs = append(errs, fmt.Sprintf("%s: channel %d: %d decisions for %d accepted samples (W=%d)",
				w.name, ch, len(recs), acc, W))
		}
		for k, d := range recs {
			if d.seq != int64(k) || d.total != int64(k+1)*W {
				errs = append(errs, fmt.Sprintf("%s: channel %d window %d: got seq %d ending at sample %d",
					w.name, ch, k, d.seq, d.total))
				break
			}
		}
	}
	return append(errs, checkReference(w, per, pools)...)
}

// checkReference recomputes every refEvery-th window of each channel
// (staggered by channel, so all pool positions get covered) with the
// batch estimator and a fresh decider.
func checkReference(w *workload, per [][]decRec, pools [][]complex64) []string {
	est, err := w.referenceEstimator()
	if err != nil {
		return []string{err.Error()}
	}
	dec, err := w.newDecider()
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	var x []complex128
	for ch, recs := range per {
		for k := ch % refEvery; k < len(recs); k += refEvery {
			x = widen(x, pools[ch], int64(k)*int64(w.window), w.window)
			s, _, err := est.Estimate(x)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: channel %d window %d: reference estimate: %v", w.name, ch, k, err))
				continue
			}
			ref, err := dec.Decide(s, x)
			if err != nil {
				errs = append(errs, fmt.Sprintf("%s: channel %d window %d: reference decide: %v", w.name, ch, k, err))
				continue
			}
			if got := recs[k]; math.Float64bits(got.stat) != math.Float64bits(ref.Statistic) || got.detected != ref.Detected {
				errs = append(errs, fmt.Sprintf("%s: channel %d window %d: served detected=%v statistic=%v, reference detected=%v statistic=%v",
					w.name, ch, k, got.detected, got.stat, ref.Detected, ref.Statistic))
			}
		}
	}
	return errs
}

// detectionRates returns the detection share over the distinct windows
// (the first pool or noisePool) of the occupied channels (pd) and of the
// noise channels (pfa).
func detectionRates(w *workload, per [][]decRec) (pd, pfa float64) {
	var det, n [2]int
	for ch, recs := range per {
		h := 1
		if occupied(ch) {
			h = 0
		}
		for k, d := range recs {
			if k >= w.poolOf(ch) {
				break
			}
			n[h]++
			if d.detected {
				det[h]++
			}
		}
	}
	return share(det[0], n[0]), share(det[1], n[1])
}

func share(a, b int) float64 {
	if b == 0 {
		return math.NaN()
	}
	return float64(a) / float64(b)
}
