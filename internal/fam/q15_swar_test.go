package fam

import (
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
)

// withKernels runs fn with the process-wide kernel selection pinned,
// restoring the previous selection afterwards.
func withKernels(t *testing.T, k fixed.Kernels, fn func()) {
	t.Helper()
	prev := fixed.Use(k)
	defer fixed.Use(prev)
	fn()
}

// TestQ15EstimatorsKernelImplInvariant is the end-to-end SWAR
// acceptance criterion: running the full FAM-Q15 and SSCA-Q15 pipelines
// under the scalar reference kernels and under the SWAR kernels yields
// bit-identical QSurfaces — words, exponent and gain — across Workers
// settings, dense and alpha-pruned grids, both scaling policies, and
// the streaming accumulators; only Stats.Kernel may differ, and it must
// name the implementation that actually ran.
func TestQ15EstimatorsKernelImplInvariant(t *testing.T) {
	band := q15TestBand(t, 1600, 41)
	params := []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, Window: fft.Hann, AlphaCandidates: []int{0, 2, 9}},
	}
	policies := []fft.ScalingPolicy{fft.ScaleBFP, fft.ScaleUniform}
	for pi, p := range params {
		for _, policy := range policies {
			for _, w := range []int{1, 4, 8} {
				fam := FAMQ15{Params: p, Workers: w, InputPeak: 1.5, Policy: policy}
				ssca := SSCAQ15{Params: p, Workers: w, InputPeak: 1.5, Policy: policy}
				type result struct {
					fam, ssca, famAcc, sscaAcc *scf.QSurface
					famKern, sscaKern          string
				}
				results := map[string]*result{}
				for _, kern := range []fixed.Kernels{fixed.ScalarKernels{}, fixed.SWARKernels{}} {
					r := &result{}
					withKernels(t, kern, func() {
						q, stats, err := fam.EstimateQ15(band)
						if err != nil {
							t.Fatal(err)
						}
						r.fam, r.famKern = q, stats.Kernel
						q, stats, err = ssca.EstimateQ15(band)
						if err != nil {
							t.Fatal(err)
						}
						r.ssca, r.sscaKern = q, stats.Kernel
						facc, err := fam.NewAccumulator()
						if err != nil {
							t.Fatal(err)
						}
						pushChunks(t, facc, band, []int{190})
						r.famAcc = q15SnapshotQ15(t, facc)
						sacc, err := ssca.NewAccumulator()
						if err != nil {
							t.Fatal(err)
						}
						pushChunks(t, sacc, band, []int{190})
						r.sscaAcc = q15SnapshotQ15(t, sacc)
					})
					if r.famKern != kern.Name() || r.sscaKern != kern.Name() {
						t.Fatalf("Stats.Kernel = %q/%q under %q kernels", r.famKern, r.sscaKern, kern.Name())
					}
					results[kern.Name()] = r
				}
				sc, sw := results["scalar"], results["swar"]
				for _, cmp := range []struct {
					label    string
					ref, got *scf.QSurface
				}{
					{"FAM-Q15 batch", sc.fam, sw.fam},
					{"SSCA-Q15 batch", sc.ssca, sw.ssca},
					{"FAM-Q15 accumulator", sc.famAcc, sw.famAcc},
					{"SSCA-Q15 accumulator", sc.sscaAcc, sw.sscaAcc},
				} {
					if ok, diff := cmp.ref.Equal(cmp.got); !ok {
						t.Errorf("params[%d] %v Workers=%d: %s scalar vs swar: %s",
							pi, policy, w, cmp.label, diff)
					}
				}
			}
		}
	}
}

// quantiseQ15 conditions the first n samples of x so full scale peak
// (the measured peak when zero) sits at backoff, then rounds to Q15. It
// returns the words and the gain applied.
func quantiseQ15(x []complex128, n int, backoff, peak float64) ([]fixed.Complex, float64) {
	if peak == 0 {
		peak = peakOf(x[:n])
	}
	out := make([]fixed.Complex, n)
	if peak == 0 {
		return out, 0
	}
	gain := backoff / peak
	for i := range out {
		out[i] = fixed.CFromFloat(x[i] * complex(gain, 0))
	}
	return out, gain
}

// TestQ15ChannelizerBatchAllocs guards the steady-state allocation
// behaviour of the batched strip machinery underneath the estimators:
// with rows, window and plan in hand, windowing + the batched FFT +
// downconversion allocate only the batch's exponent slice, regardless
// of hop count.
func TestQ15ChannelizerBatchAllocs(t *testing.T) {
	const k, hops = 256, 32
	kern := fixed.Active()
	plan, err := fft.NewFixedPlan(k)
	if err != nil {
		t.Fatal(err)
	}
	roots, err := fft.FixedRoots(k)
	if err != nil {
		t.Fatal(err)
	}
	win, err := fft.FixedWindow(fft.Hann, k)
	if err != nil {
		t.Fatal(err)
	}
	band := q15TestBand(t, k+hops, 42)
	xq, _ := quantiseQ15(band, len(band), 0.5, 1.5)
	rows := make([][]fixed.Complex, hops)
	for i := range rows {
		rows[i] = make([]fixed.Complex, k)
	}
	if a := testing.AllocsPerRun(10, func() {
		for i := range rows {
			kern.ScaleReal(rows[i], xq[i:i+k], win)
		}
		if _, err := plan.ForwardScaledBatchWith(kern, rows, fft.ScaleBFP); err != nil {
			t.Fatal(err)
		}
		for i := range rows {
			kern.MulRoots(rows[i], rows[i], roots, 0, i&(k-1), k-1)
		}
	}); a > 1 {
		t.Errorf("batched strip pass allocates %v times per snapshot, want <= 1", a)
	}
}
