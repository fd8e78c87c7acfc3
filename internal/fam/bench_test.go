package fam_test

import (
	"testing"

	"tiledcfd"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
)

// benchEstimators builds the three estimators at the paper's geometry
// (K=256, M=64) for a band of blocks·K samples.
func benchEstimators(blocks int) []scf.Estimator {
	p := scf.Params{K: 256, M: 64}
	direct := p
	direct.Blocks = blocks
	return []scf.Estimator{
		scf.Direct{Params: direct},
		fam.FAM{Params: p},
		fam.SSCA{Params: p},
	}
}

// BenchmarkEstimators compares the three spectral-correlation estimators
// on the same BPSK band at the paper's geometry: wall-clock per estimate
// plus the complex-multiplication counts each spends in FFTs and in
// pointwise products (the complexity comparison of the paper's section 2,
// extended to the time-smoothing estimators).
func BenchmarkEstimators(b *testing.B) {
	const blocks = 8
	band, err := tiledcfd.NewBPSKBand(256*blocks, 0.125, 8, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	for _, e := range benchEstimators(blocks) {
		b.Run(e.Name(), func(b *testing.B) {
			var stats *scf.Stats
			for i := 0; i < b.N; i++ {
				_, st, err := e.Estimate(band)
				if err != nil {
					b.Fatal(err)
				}
				stats = st
			}
			b.ReportMetric(float64(stats.FFTMults), "fft_mults")
			b.ReportMetric(float64(stats.DSCFMults), "pointwise_mults")
			b.ReportMetric(float64(stats.TotalMults()), "total_mults")
			b.ReportMetric(float64(stats.Blocks), "smoothing_len")
		})
	}
}

// BenchmarkBatchEstimate times one batch estimate of an 8192-sample band
// at the paper's geometry (K=256, M=64) for FAM at one and two fold
// workers and for the Q15 estimators with a measured input peak. Run with
//
//	go test -run '^$' -bench BatchEstimate -benchmem -cpu 2 ./internal/fam
func BenchmarkBatchEstimate(b *testing.B) {
	band, err := tiledcfd.NewBPSKBand(8192, 0.125, 8, 10, 42)
	if err != nil {
		b.Fatal(err)
	}
	p := scf.Params{K: 256, M: 64}
	for _, c := range []struct {
		name string
		est  scf.Estimator
	}{
		{"fam/workers=1", fam.FAM{Params: p, Workers: 1}},
		{"fam/workers=2", fam.FAM{Params: p, Workers: 2}},
		{"fam-q15", fam.FAMQ15{Params: p}},
		{"ssca-q15", fam.SSCAQ15{Params: p}},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := c.est.Estimate(band); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
