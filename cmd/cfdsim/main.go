// Command cfdsim runs the full spectrum-sensing simulation on a
// synthetic band and reports the verdict, the measured cycle breakdown
// and the evaluation figures.
//
// Usage:
//
//	cfdsim [-k 256] [-m 64] [-q 4] [-blocks 4] [-snr 6] [-carrier 0.125]
//	       [-symlen 8] [-idle] [-threshold 0.3] [-seed 1]
//	       [-estimator platform|direct|fam|ssca] [-hop n] [-workers n]
//	       [-alpha 16,32] [-alpha-hz ...] [-rate hz]
//	       [-detector cfar|fixed|dg|urriza] [-pfa 0.05]
//
// With -idle the band contains only noise (the H0 hypothesis); otherwise a
// BPSK licensed user at the given SNR and normalised carrier frequency is
// present. The default estimator is the paper's bit-true tiled-SoC
// platform; -estimator swaps in a software spectral-correlation estimator
// (the direct DSCF, the FFT Accumulation Method, or the Strip Spectral
// Correlation Analyzer), which reports complex-multiplication counts
// instead of hardware cycles.
//
// -alpha restricts a software estimator to a comma-separated list of
// cycle-frequency bin offsets (alpha pruning): only the listed strips,
// their mirrors and a=0 are computed, bit-identical to the full plane,
// and cost scales with the candidate count instead of M. -alpha-hz
// lists physical cycle frequencies instead, converted with the -rate
// sample rate — a BPSK user has features at its symbol rate and twice
// its carrier.
//
// -detector selects the decision layer by registry name. The
// asymptotic detectors (dg, urriza) test the -alpha cycle set directly
// on the samples and derive their threshold in closed form from the
// -pfa target false-alarm probability — no calibration. Without
// -detector, a positive -threshold selects the fixed decision and
// -threshold 0 the self-calibrating cfar.
package main

import (
	"flag"
	"fmt"
	"log"
	"strconv"
	"strings"

	"tiledcfd"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("cfdsim: ")
	k := flag.Int("k", 256, "FFT size K")
	m := flag.Int("m", 0, "grid half-extent M (0 = K/4)")
	q := flag.Int("q", 4, "number of Montium tiles")
	blocks := flag.Int("blocks", 4, "integration blocks")
	snr := flag.Float64("snr", 6, "licensed user SNR in dB")
	carrier := flag.Float64("carrier", 0.125, "normalised carrier frequency (cycles/sample)")
	symlen := flag.Int("symlen", 8, "samples per BPSK symbol")
	idle := flag.Bool("idle", false, "simulate an idle band (noise only)")
	threshold := flag.Float64("threshold", 0.3, "detection threshold")
	seed := flag.Uint64("seed", 1, "random seed")
	estimator := flag.String("estimator", "platform",
		"surface estimator: "+strings.Join(tiledcfd.EstimatorNames(), ", "))
	hop := flag.Int("hop", 0,
		"block/channelizer advance in samples for -estimator=direct|fam|fam-q15 (0 = estimator default; rejected with ssca variants)")
	workers := flag.Int("workers", 0,
		"worker goroutines of the fam, fam-q15 and ssca-q15 estimators (0 = one per CPU core, 1 = serial; direct and ssca are always serial)")
	alpha := flag.String("alpha", "",
		"comma-separated alpha-candidate bin offsets (mirrors and a=0 implied); software estimators only")
	alphaHz := flag.String("alpha-hz", "",
		"comma-separated alpha candidates as physical cycle frequencies in Hz, converted with -rate")
	rate := flag.Float64("rate", 0, "sample rate in Hz for -alpha-hz conversion")
	detector := flag.String("detector", "",
		"decision layer: "+strings.Join(tiledcfd.DetectorNames(), ", ")+
			" (\"\" = fixed when -threshold > 0, else cfar)")
	pfa := flag.Float64("pfa", 0, "target false-alarm probability for -detector=dg|urriza (0 = 0.05)")
	flag.Parse()

	candidates, err := parseAlphaFlags(*alpha, *alphaHz, *rate, tiledcfd.Config{K: *k, M: *m})
	if err != nil {
		log.Fatal(err)
	}
	if len(candidates) > 0 && *estimator == "platform" {
		log.Fatalf("-alpha requires a software estimator: the platform path computes the "+
			"full surface on the modeled hardware (pick -estimator=%s)",
			strings.Join(softwareEstimators(), "|"))
	}

	if *hop != 0 {
		switch *estimator {
		case "ssca", "ssca-q15":
			log.Fatalf("-hop=%d cannot be combined with -estimator=%s: the strip "+
				"spectral correlation analyzer advances its channelizer one sample "+
				"per hop by definition (drop -hop, or pick -estimator=direct|fam|fam-q15)",
				*hop, *estimator)
		case "platform":
			log.Fatalf("-hop=%d has no effect on the platform path: the tiled SoC "+
				"advances by whole K-sample blocks (pick -estimator=direct|fam|fam-q15)", *hop)
		}
	}

	n := *k * *blocks
	if *estimator == "direct" && *hop != 0 {
		// Overlapping (or gapped) integration blocks change the samples
		// the run consumes: K + (Blocks-1)·Hop instead of K·Blocks.
		n = *k + (*blocks-1)**hop
	}
	var band []complex128
	if *idle {
		band, err = tiledcfd.NewNoiseBand(n, 0.25, *seed)
	} else {
		band, err = tiledcfd.NewBPSKBand(n, *carrier, *symlen, *snr, *seed)
	}
	if err != nil {
		log.Fatal(err)
	}

	s, err := tiledcfd.Sense(band, tiledcfd.Config{
		K: *k, M: *m, Q: *q, Blocks: *blocks, Threshold: *threshold,
		Estimator: *estimator, Hop: *hop, Workers: *workers,
		AlphaCandidates: candidates,
		Detector:        *detector, TargetPfa: *pfa,
	})
	if err != nil {
		log.Fatal(err)
	}

	scenario := fmt.Sprintf("BPSK user at %.1f dB, carrier %.4f", *snr, *carrier)
	if *idle {
		scenario = "idle band (noise only)"
	}
	fmt.Printf("scenario:     %s\n", scenario)
	fmt.Printf("platform:     K=%d, M=%d, Q=%d, %d block(s)\n", *k, mOrDefault(*m, *k), *q, *blocks)
	fmt.Printf("estimator:    %s\n", s.Estimator)
	fmt.Printf("detector:     %s\n", s.Detector)
	if len(candidates) > 0 {
		fmt.Printf("alpha:        pruned to candidates %v (%d of %d rows computed)\n",
			candidates, prunedRows(candidates), 2*mOrDefault(*m, *k)-1)
	}
	fmt.Printf("verdict:      detected=%v  statistic=%.4f  threshold=%.4f\n",
		s.Detected, s.Statistic, s.Threshold)
	fmt.Printf("top feature:  f=%d a=%d\n", s.FeatureF, s.FeatureA)
	fmt.Println()
	if s.Estimator == "platform" {
		fmt.Println("cycle breakdown per integration step:")
		fmt.Printf("  multiply accumulate  %7d\n", s.Breakdown.MultiplyAccumulate)
		fmt.Printf("  read data            %7d\n", s.Breakdown.ReadData)
		fmt.Printf("  FFT                  %7d\n", s.Breakdown.FFT)
		fmt.Printf("  reshuffling          %7d\n", s.Breakdown.Reshuffle)
		fmt.Printf("  initialisation       %7d\n", s.Breakdown.Initialisation)
		fmt.Printf("  total                %7d\n", s.Breakdown.Total)
		fmt.Println()
		fmt.Printf("integration step:   %.3f µs @100 MHz\n", s.BlockTimeMicros)
		fmt.Printf("analysed bandwidth: %.1f kHz\n", s.AnalysedBandwidthkHz)
		fmt.Printf("area / power:       %.1f mm² / %.1f mW\n", s.AreaMM2, s.PowerMW)
		fmt.Printf("NoC traffic:        %d boundary values for %d MACs (ratio %.1f)\n",
			s.NoCValues, s.TotalMACs, ratio(s.TotalMACs, s.NoCValues))
		return
	}
	fmt.Println("software estimator work (complex multiplications):")
	fmt.Printf("  FFTs                 %9d\n", s.FFTMults)
	fmt.Printf("  pointwise products   %9d\n", s.EstimatorMults)
	fmt.Printf("  total                %9d\n", s.FFTMults+s.EstimatorMults)
	if s.ModelCycles > 0 {
		fmt.Printf("modeled Montium cycles (Table-1 kernel accounting): %d\n", s.ModelCycles)
	}
}

// parseAlphaFlags assembles the alpha-candidate set from the -alpha
// (bin offsets) and -alpha-hz (physical frequencies via -rate) flags.
func parseAlphaFlags(alpha, alphaHz string, rate float64, cfg tiledcfd.Config) ([]int, error) {
	var out []int
	if alpha != "" {
		for _, f := range strings.Split(alpha, ",") {
			a, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil {
				return nil, fmt.Errorf("-alpha: bad bin offset %q: %v", f, err)
			}
			out = append(out, a)
		}
	}
	if alphaHz != "" {
		if rate <= 0 {
			return nil, fmt.Errorf("-alpha-hz requires -rate (the sample rate in Hz)")
		}
		for _, f := range strings.Split(alphaHz, ",") {
			hz, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
			if err != nil {
				return nil, fmt.Errorf("-alpha-hz: bad frequency %q: %v", f, err)
			}
			a, err := cfg.AlphaBinForHz(hz, rate)
			if err != nil {
				return nil, fmt.Errorf("-alpha-hz %s: %v", strings.TrimSpace(f), err)
			}
			out = append(out, a)
		}
	} else if rate != 0 {
		return nil, fmt.Errorf("-rate only has meaning with -alpha-hz")
	}
	return out, nil
}

// softwareEstimators is EstimatorNames without the hardware path.
func softwareEstimators() []string {
	var out []string
	for _, n := range tiledcfd.EstimatorNames() {
		if n != "platform" {
			out = append(out, n)
		}
	}
	return out
}

// prunedRows counts the surface rows a candidate set keeps: a=0 plus
// both mirrors of every distinct non-zero candidate.
func prunedRows(candidates []int) int {
	seen := map[int]bool{0: true}
	rows := 1
	for _, a := range candidates {
		if !seen[a] {
			seen[a] = true
			rows += 2
		}
	}
	return rows
}

func mOrDefault(m, k int) int {
	if m == 0 {
		return k / 4
	}
	return m
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
