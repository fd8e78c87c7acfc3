package tiledcfd

// Ablation benchmarks for the design choices docs/PAPER_MAPPING.md
// calls out: the
// 3-cycle MAC assumption behind Table 1, folding vs the unfolded array,
// the Q15 fixed-point path vs the float reference, block-parallel
// software computation, and the analysis window. These quantify how the
// paper's numbers move when an assumption changes.

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/mapping"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/soc"
	"tiledcfd/internal/systolic"
)

// BenchmarkAblation_MACLatency recomputes the Table 1 total under 1-, 2-
// and 3-cycle multiply-accumulate datapaths. The MAC loop dominates the
// budget (87%), so its latency assumption is the lever on the 140 µs
// headline.
func BenchmarkAblation_MACLatency(b *testing.B) {
	totals := map[int]int{}
	for i := 0; i < b.N; i++ {
		for _, macCycles := range []int{1, 2, 3} {
			model := mapping.PaperCycleModel()
			model.MACCycles = macCycles
			s, err := mapping.BuildCoreSchedule(64, 256, 4, 0, model)
			if err != nil {
				b.Fatal(err)
			}
			totals[macCycles] = s.TotalCycles()
		}
	}
	b.ReportMetric(float64(totals[1]), "cycles_mac1")
	b.ReportMetric(float64(totals[2]), "cycles_mac2")
	b.ReportMetric(float64(totals[3]), "cycles_mac3_paper")
	b.ReportMetric(float64(totals[3])/100, "block_time_us_paper")
}

// BenchmarkAblation_FoldedVsUnfolded compares the simulation throughput
// of the unfolded 127-PE array against the folded 4-core architecture
// (identical arithmetic, different structure).
func BenchmarkAblation_FoldedVsUnfolded(b *testing.B) {
	x := fixed.FromFloatSlice(paperSignal(b, 1))
	spectra, err := scf.FixedSpectra(x, scf.Params{K: 256, M: 64})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("unfolded", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ar, err := systolic.NewFixedArray(64)
			if err != nil {
				b.Fatal(err)
			}
			if err := ar.ProcessBlock(spectra[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("folded_q4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fa, err := systolic.NewFoldedArray(64, 4)
			if err != nil {
				b.Fatal(err)
			}
			if err := fa.ProcessBlock(spectra[0]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblation_FixedVsFloat measures the Q15 quantisation error of
// the full fixed-point path (fixed FFT + saturating accumulation) against
// the float reference, as the worst relative cell error on the feature
// row. This bounds what 16-bit memories cost in accuracy.
func BenchmarkAblation_FixedVsFloat(b *testing.B) {
	const k, m, blocks = 256, 64, 2
	x := paperSignal(b, blocks)
	// Condition like the pipeline: peak at 0.5 so Q15 never saturates.
	cond := make([]complex128, len(x))
	copy(cond, x)
	fixed.ScaleSliceFloat(cond, 0.5)
	var worst float64
	for i := 0; i < b.N; i++ {
		qx := fixed.FromFloatSlice(cond)
		fs, err := scf.ComputeFixed(qx, scf.Params{K: k, M: m, Blocks: blocks})
		if err != nil {
			b.Fatal(err)
		}
		ref, _, err := scf.Compute(cond, scf.Params{K: k, M: m, Blocks: blocks})
		if err != nil {
			b.Fatal(err)
		}
		got := fs.Float(blocks)
		ref.Scale(1 / float64(k*k)) // fixed FFT is DFT/K; product squares it
		// Worst absolute error over the grid, relative to the PSD peak —
		// the error a detector thresholding the surface actually sees.
		peak := 0.0
		for f := -(m - 1); f <= m-1; f++ {
			if v := cmplx.Abs(ref.At(f, 0)); v > peak {
				peak = v
			}
		}
		worst = 0
		for a := -(m - 1); a <= m-1; a++ {
			for f := -(m - 1); f <= m-1; f++ {
				if d := cmplx.Abs(got.At(f, a) - ref.At(f, a)); d > worst {
					worst = d
				}
			}
		}
		worst /= peak
	}
	b.ReportMetric(worst, "worst_error_vs_psd_peak")
}

// BenchmarkAblation_CoreSweep measures the per-block critical path as the
// core count grows within one platform. Unlike the paper's linear
// inter-platform scaling (E11), intra-platform scaling saturates at the
// serial floor (FFT + reshuffle + init + read data = 1804 cycles), an
// Amdahl bound the paper does not discuss.
func BenchmarkAblation_CoreSweep(b *testing.B) {
	x := fixed.FromFloatSlice(paperSignal(b, 1))
	var pts []soc.SweepPoint
	for i := 0; i < b.N; i++ {
		var err error
		pts, err = soc.SweepCores(256, 64, []int{4, 8, 16, 32}, x)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Feasible {
			b.ReportMetric(float64(p.CyclesPerBlock), "cycles_q"+itoa(p.Q))
		}
	}
	b.ReportMetric(float64(soc.SerialCycles(256, 64)), "serial_floor_cycles")
}

func itoa(v int) string {
	if v == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	return string(buf[i:])
}

// BenchmarkAblation_RealFFT quantifies the real-input FFT optimisation
// the paper leaves on the table: antenna samples are real (expression 1),
// so a specialised kernel needs 576 instead of 1024 complex mults,
// shrinking the Table 1 FFT row accordingly.
func BenchmarkAblation_RealFFT(b *testing.B) {
	x := make([]float64, 256)
	for i := range x {
		xc := paperSignalSample(i)
		x[i] = xc
	}
	for i := 0; i < b.N; i++ {
		if _, err := fft.RealForward(x); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(fft.ComplexMults(256)), "complex_fft_mults")
	b.ReportMetric(float64(fft.RealComplexMults(256)), "real_fft_mults")
}

// paperSignalSample gives a deterministic real sample stream for the
// real-FFT ablation without pulling the generator into the timed loop.
func paperSignalSample(i int) float64 {
	return 0.4*math.Sin(0.37*float64(i)) + 0.2*math.Cos(1.1*float64(i))
}

// BenchmarkAblation_WindowChoice measures the blind CFD statistic of the
// same BPSK band under different analysis windows. The rectangular window
// (the paper's implicit choice) keeps the strongest features; tapered
// windows trade feature strength for leakage suppression.
func BenchmarkAblation_WindowChoice(b *testing.B) {
	const k, m, blocks = 64, 16, 16
	x, err := NewBPSKBand(k*blocks, 8.0/k, 8, 6, 99)
	if err != nil {
		b.Fatal(err)
	}
	stats := map[fft.WindowKind]float64{}
	for i := 0; i < b.N; i++ {
		for _, w := range []fft.WindowKind{fft.Rectangular, fft.Hann, fft.Hamming, fft.Blackman} {
			s, _, err := scf.Compute(x, scf.Params{K: k, M: m, Blocks: blocks, Window: w})
			if err != nil {
				b.Fatal(err)
			}
			prof := s.AlphaProfile()
			best := 0.0
			for ai, v := range prof {
				a := ai - (m - 1)
				if a >= 2 || a <= -2 {
					if r := v / prof[m-1]; r > best {
						best = r
					}
				}
			}
			stats[w] = best
		}
	}
	b.ReportMetric(stats[fft.Rectangular], "stat_rectangular")
	b.ReportMetric(stats[fft.Hann], "stat_hann")
	b.ReportMetric(stats[fft.Hamming], "stat_hamming")
	b.ReportMetric(stats[fft.Blackman], "stat_blackman")
}
