package fam

import (
	"math/cmplx"
	"math/rand/v2"
	"slices"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

func TestSSCAToneConcentratesOnPSDRow(t *testing.T) {
	const k, m = 64, 16
	e := SSCA{Params: scf.Params{K: k, M: m}}
	s, stats, err := e.Estimate(tone(k*16, 8.0/k))
	if err != nil {
		t.Fatal(err)
	}
	fPeak, aPeak, _ := s.MaxFeature(false)
	if aPeak != 0 || fPeak != 8 {
		t.Fatalf("tone peak at (f=%d, a=%d), want (8, 0)", fPeak, aPeak)
	}
	psd := cmplx.Abs(s.At(8, 0))
	_, _, off := s.MaxFeature(true)
	if off > psd*0.05 {
		t.Fatalf("off-row leakage %g vs PSD peak %g", off, psd)
	}
	// 16·K samples minus the channelizer tail leaves a 512-point strip.
	if stats.Blocks != 512 {
		t.Fatalf("strip length %d, want 512", stats.Blocks)
	}
}

func TestSSCADoubledCarrierFeature(t *testing.T) {
	const k, m = 64, 16
	const bin = 8
	x := realTone(k*16, float64(bin)/k)
	for _, w := range []fft.WindowKind{fft.Rectangular, fft.Hamming} {
		e := SSCA{Params: scf.Params{K: k, M: m, Window: w}}
		s, _, err := e.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		f, a, _ := s.MaxFeature(true)
		if abs(a) != bin || f != 0 {
			t.Fatalf("window %v: doubled-carrier feature at (f=%d, a=%d), want (0, ±%d)", w, f, a, bin)
		}
	}
}

func TestSSCAExplicitStripLength(t *testing.T) {
	const k, m = 64, 16
	x := tone(k*16, 8.0/k)
	e := SSCA{Params: scf.Params{K: k, M: m}, N: 256}
	s, stats, err := e.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Blocks != 256 {
		t.Fatalf("strip length %d, want explicit 256", stats.Blocks)
	}
	if f, a, _ := s.MaxFeature(false); a != 0 || f != 8 {
		t.Fatalf("peak (f=%d, a=%d), want (8, 0)", f, a)
	}
}

func TestSSCAErrors(t *testing.T) {
	e := SSCA{Params: scf.Params{K: 64, M: 16}}
	if _, _, err := e.Estimate(make([]complex128, 100)); err == nil {
		t.Error("input shorter than K+K-1 should fail")
	}
	if _, _, err := (SSCA{Params: scf.Params{K: 64, M: 16}, N: 192}).Estimate(make([]complex128, 1024)); err == nil {
		t.Error("non-power-of-two N should fail")
	}
	if _, _, err := (SSCA{Params: scf.Params{K: 64, M: 16}, N: 1024}).Estimate(make([]complex128, 512)); err == nil {
		t.Error("N longer than the input should fail")
	}
	// A strip shorter than the channelizer names N and K on both entry
	// points, not a sample count.
	short := SSCA{Params: scf.Params{K: 64, M: 16}, N: 32}
	const want = "fam: SSCA strip length N=32 must be >= K=64"
	if _, _, err := short.Estimate(make([]complex128, 1024)); err == nil || err.Error() != want {
		t.Errorf("Estimate with N < K: error %v, want %q", err, want)
	}
	if _, err := short.NewAccumulator(); err == nil || err.Error() != want {
		t.Errorf("NewAccumulator with N < K: error %v, want %q", err, want)
	}
}

// TestSSCANeededStripsMatchRowScan: the strip set newSSCAKernel builds
// by walking the union of the rows' [a-m, a+m] equals, element for
// element and in order, the residues (f+a) mod K a row-by-row scan over
// every f first meets. The random geometries cover every power-of-two K
// from 4 to 512, full planes and candidate sets (with the rows'
// intervals overlapping, touching and apart), and m = K/4, the largest
// Params.Validate allows, where f+a = ±2m share a residue.
func TestSSCANeededStripsMatchRowScan(t *testing.T) {
	rng := rand.New(rand.NewPCG(30, 1))
	for trial := 0; trial < 400; trial++ {
		k := 4 << rng.IntN(8)
		m := k / 4
		if trial%3 != 0 {
			m = rng.IntN(k/4 + 1)
		}
		p := scf.Params{K: k, M: m + 1}
		if trial%2 == 1 && m > 0 {
			for a := 0; a <= m; a++ {
				if rng.IntN(4) == 0 {
					p.AlphaCandidates = append(p.AlphaCandidates, a)
				}
			}
			rng.Shuffle(len(p.AlphaCandidates), func(i, j int) {
				p.AlphaCandidates[i], p.AlphaCandidates[j] = p.AlphaCandidates[j], p.AlphaCandidates[i]
			})
		}
		c, err := newSSCAKernel(SSCA{Params: p})
		if err != nil {
			t.Fatalf("K=%d M=%d candidates %v: %v", k, p.M, p.AlphaCandidates, err)
		}
		var want []int
		seen := make([]bool, k)
		for _, a := range c.rowAlphas {
			for f := -m; f <= m; f++ {
				if v := fft.BinIndex(k, f+a); !seen[v] {
					seen[v] = true
					want = append(want, v)
				}
			}
		}
		if !slices.Equal(c.needed, want) {
			t.Fatalf("K=%d M=%d candidates %v: needed %v, row scan %v", k, p.M, p.AlphaCandidates, c.needed, want)
		}
	}
}
