package scf

import (
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fixed"
	"tiledcfd/internal/sig"
)

// strongTone returns a near-full-scale real tone: the worst case for
// accumulator headroom because its feature cells accumulate coherently.
func strongTone(k, blocks int) []complex128 {
	x := sig.Samples(&sig.Tone{Amp: 0.95, Freq: 4.0 / float64(k), Real: true}, k*blocks)
	return x
}

// saturatedCells returns how many cells of a fixed surface sit at the
// positive or negative rail in either component.
func saturatedCells(s *FixedSurface) int {
	n := 0
	for _, row := range s.Data {
		for _, c := range row {
			if c.Re == fixed.MaxQ15 || c.Re == fixed.MinQ15 ||
				c.Im == fixed.MaxQ15 || c.Im == fixed.MinQ15 {
				n++
			}
		}
	}
	return n
}

func TestMeasureFixedAccuracyModerate(t *testing.T) {
	// At few blocks and half-scale input the Q15 path tracks the float
	// reference, rescaled by 1/K² to the fixed path's units, to well
	// under 2% of the PSD peak over the whole grid, and nothing clips.
	const k, m, blocks = 64, 16, 4
	rng := sig.NewRand(41)
	x := sig.Samples(&sig.WGN{Sigma: 0.35, Real: true, Rng: rng}, k*blocks)
	p := Params{K: k, M: m, Blocks: blocks}
	ref, _, err := Compute(x, p)
	if err != nil {
		t.Fatal(err)
	}
	fs, err := ComputeFixed(fixed.FromFloatSlice(x), p)
	if err != nil {
		t.Fatal(err)
	}
	if n := saturatedCells(fs); n != 0 {
		t.Fatalf("unexpected saturation: %d cells", n)
	}
	got := fs.Float(blocks)
	ref.Scale(1 / float64(k*k))
	peak, worst := 0.0, 0.0
	for f := -(m - 1); f <= m-1; f++ {
		peak = max(peak, cmplx.Abs(ref.At(f, 0)))
		for a := -(m - 1); a <= m-1; a++ {
			worst = max(worst, cmplx.Abs(got.At(f, a)-ref.At(f, a)))
		}
	}
	if worst > 0.02*peak {
		t.Fatalf("worst error %.4f of peak, want < 2%%", worst/peak)
	}
}

func TestLongIntegrationSaturatesWithoutPrescale(t *testing.T) {
	// The section 4.1 headroom limit made visible: a strong coherent tone
	// accumulated over many blocks pins the feature cells at full scale
	// in plain Q15 accumulation.
	const k, m, blocks = 64, 8, 64
	p := Params{K: k, M: m, Blocks: blocks}
	x := fixed.FromFloatSlice(strongTone(k, blocks))
	plain, err := ComputeFixed(x, p)
	if err != nil {
		t.Fatal(err)
	}
	if got := saturatedCells(plain); got == 0 {
		t.Fatal("expected saturated cells in 64-block full-scale accumulation")
	}
}
