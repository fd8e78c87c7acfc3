// White-box performance-invariant tests for the estimator hot paths:
// golden cross-checks that the optimized FAM/SSCA pipelines match the
// pre-optimization formulations, and bit-identity between serial and
// parallel FAM evaluation.
package fam

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// goldenBand is a seeded BPSK-in-noise band: the signal class every
// cross-check in this package exercises.
func goldenBand(n int, seed uint64) []complex128 {
	rng := sig.NewRand(seed)
	src := sig.Mix{Sources: []sig.Source{
		&sig.BPSK{Amp: 1, Carrier: 8.0 / 64, SymbolLen: 8, Rng: rng},
		&sig.WGN{Sigma: 0.3, Rng: rng},
	}}
	return sig.Samples(&src, n)
}

// channelize is the reference FAM/SSCA front end: blocks hops of a
// k-point windowed FFT over x, hop samples apart, each channel
// downconverted to baseband with the absolute-time phase reference
// e^{-j2π·v·start/k}. out[v][n] is channel v of the hop starting at
// sample n·hop. win is the analysis window (nil for rectangular), and
// len(x) >= k+(blocks-1)·hop.
func channelize(x []complex128, k, hop, blocks int, win []float64) ([][]complex128, error) {
	roots, err := fft.Roots(k)
	if err != nil {
		return nil, err
	}
	out := make([][]complex128, k)
	for v := range out {
		out[v] = make([]complex128, blocks)
	}
	for n := 0; n < blocks; n++ {
		start := n * hop
		block := append([]complex128(nil), x[start:start+k]...)
		for i, w := range win {
			block[i] *= complex(w, 0)
		}
		spec, err := fft.FFT(block)
		if err != nil {
			return nil, err
		}
		for v := range out {
			out[v][n] = spec[v] * roots[start*v%k]
		}
	}
	return out, nil
}

// famReference evaluates FAM exactly as the pre-optimization code did:
// a full P-point second FFT per surface cell, reading bin 0, every row
// evaluated directly (no Hermitian mirroring).
func famReference(t *testing.T, x []complex128, p scf.Params) *scf.Surface {
	t.Helper()
	p = famDefaults(p, 0)
	hops := (len(x)-p.K)/p.Hop + 1
	np := pow2Floor(hops)
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := channelize(x, p.K, p.Hop, np, win)
	if err != nil {
		t.Fatal(err)
	}
	plan2, err := fft.NewPlan(np)
	if err != nil {
		t.Fatal(err)
	}
	s := scf.NewSurface(p.M)
	prod := make([]complex128, np)
	spec2 := make([]complex128, np)
	inv := complex(1/float64(np), 0)
	m := p.M - 1
	for a := -m; a <= m; a++ {
		for f := -m; f <= m; f++ {
			cp := ch[fft.BinIndex(p.K, f+a)]
			cm := ch[fft.BinIndex(p.K, f-a)]
			for n := 0; n < np; n++ {
				prod[n] = cp[n] * cmplx.Conj(cm[n])
			}
			if err := plan2.Forward(spec2, prod); err != nil {
				t.Fatal(err)
			}
			s.Add(f, a, spec2[0]*inv)
		}
	}
	return s
}

// sscaReference evaluates SSCA exactly as the pre-optimization code did:
// lazy per-strip allocation, per-sample conjugation of the shifted input,
// and cmplx.Exp derotation.
func sscaReference(t *testing.T, x []complex128, p scf.Params, n int) *scf.Surface {
	t.Helper()
	p = famDefaults(p, 1)
	p.Hop = 1
	var win []float64
	var err error
	if p.Window != fft.Rectangular {
		if win, err = fft.Window(p.Window, p.K); err != nil {
			t.Fatal(err)
		}
	}
	ch, err := channelize(x, p.K, 1, n, win)
	if err != nil {
		t.Fatal(err)
	}
	planN, err := fft.NewPlan(n)
	if err != nil {
		t.Fatal(err)
	}
	strips := make([][]complex128, p.K)
	prod := make([]complex128, n)
	centre := p.K / 2
	derot := make([]complex128, n)
	for q := range derot {
		ang := -2 * math.Pi * float64((q*centre)%n) / float64(n)
		derot[q] = cmplx.Exp(complex(0, ang))
	}
	stripOf := func(k int) []complex128 {
		if strips[k] != nil {
			return strips[k]
		}
		cs := ch[k]
		for m := 0; m < n; m++ {
			prod[m] = cs[m] * cmplx.Conj(x[m+centre])
		}
		u := make([]complex128, n)
		if err := planN.Forward(u, prod); err != nil {
			t.Fatal(err)
		}
		for q := range u {
			u[q] *= derot[q]
		}
		strips[k] = u
		return u
	}
	s := scf.NewSurface(p.M)
	inv := complex(1/float64(n), 0)
	m := p.M - 1
	for a := -m; a <= m; a++ {
		for f := -m; f <= m; f++ {
			u := stripOf(fft.BinIndex(p.K, f+a))
			q := fft.BinIndex(n, n/p.K*(a-f))
			s.Add(f, a, u[q]*inv)
		}
	}
	return s
}

// surfacePeak returns the largest cell magnitude, used to scale golden
// tolerances.
func surfacePeak(s *scf.Surface) float64 {
	_, _, mag := s.MaxFeature(false)
	return mag
}

func TestFAMGoldenMatchesPreOptimization(t *testing.T) {
	const n = 2048
	x := goldenBand(n, 7)
	for _, p := range []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, Window: fft.Hamming},
		{K: 128, M: 32, Hop: 32},
	} {
		want := famReference(t, x, p)
		got, _, err := FAM{Params: p, Workers: 1}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		// The optimized path evaluates bin 0 as a dot product instead of
		// a full second FFT (different floating-point summation order),
		// so agreement is to rounding, scaled by the surface peak.
		tol := 1e-12 * (1 + surfacePeak(want))
		if d := scf.MaxAbsDiff(got, want); d > tol {
			t.Errorf("K=%d M=%d: optimized FAM differs from pre-optimization surface by %g (tol %g)", p.K, p.M, d, tol)
		}
	}
}

func TestSSCAGoldenMatchesPreOptimization(t *testing.T) {
	const n = 2048
	x := goldenBand(n, 8)
	for _, p := range []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, Window: fft.Hamming},
	} {
		want := sscaReference(t, x, p, 1024)
		got, _, err := SSCA{Params: p, N: 1024}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * (1 + surfacePeak(want))
		if d := scf.MaxAbsDiff(got, want); d > tol {
			t.Errorf("K=%d M=%d: optimized SSCA differs from pre-optimization surface by %g (tol %g)", p.K, p.M, d, tol)
		}
	}
}

// TestSSCAFoldIdentity: bin (N/K)·j of the N-point DFT of p, derotated
// by the centre shift e^{-j2π·q·(K/2)/N}, equals (-1)^j times bin j of
// the K-point DFT of p folded modulo K — the identity the SSCA strip
// evaluation rests on.
func TestSSCAFoldIdentity(t *testing.T) {
	rng := sig.NewRand(16)
	for _, tc := range []struct{ k, n int }{{8, 8}, {8, 64}, {64, 1024}, {256, 2048}} {
		p := make([]complex128, tc.n)
		for i := range p {
			p[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		full, err := fft.FFT(p)
		if err != nil {
			t.Fatal(err)
		}
		rootsN, err := fft.Roots(tc.n)
		if err != nil {
			t.Fatal(err)
		}
		fold := make([]complex128, tc.k)
		for i, v := range p {
			fold[i%tc.k] += v
		}
		short, err := fft.FFT(fold)
		if err != nil {
			t.Fatal(err)
		}
		for j := range short {
			q := tc.n / tc.k * j
			want := full[q] * rootsN[q*(tc.k/2)%tc.n]
			got := short[j]
			if j%2 == 1 {
				got = -got
			}
			if d := cmplx.Abs(got - want); d > 1e-12*(1+cmplx.Abs(want)) {
				t.Fatalf("K=%d N=%d bin %d: fold gives %v, N-point DFT %v (|diff| %g)", tc.k, tc.n, j, got, want, d)
			}
		}
	}
}

// TestSSCAPaperGeometryGolden: at the paper geometry (K=256, M=64) the
// folded SSCA matches the N-point reference for both strip lengths,
// both windows, full plane and pruned, to rounding.
func TestSSCAPaperGeometryGolden(t *testing.T) {
	x := goldenBand(2048+255, 17)
	for _, n := range []int{1024, 2048} {
		for _, w := range []fft.WindowKind{fft.Rectangular, fft.Hamming} {
			full := scf.Params{K: 256, M: 64, Window: w}
			want := sscaReference(t, x, full, n)
			tol := 1e-12 * (1 + surfacePeak(want))
			for _, alphas := range [][]int{nil, {16, 32, 11, 40}} {
				p := full
				p.AlphaCandidates = alphas
				got, _, err := SSCA{Params: p, N: n}.Estimate(x)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range got.AlphaValues() {
					for f := -63; f <= 63; f++ {
						if d := cmplx.Abs(got.At(f, a) - want.At(f, a)); d > tol {
							t.Fatalf("N=%d window %v alphas %v: cell (f=%d, a=%d) differs from reference by %g (tol %g)",
								n, w, alphas, f, a, d, tol)
						}
					}
				}
			}
		}
	}
}

func TestFAMParallelBitIdenticalToSerial(t *testing.T) {
	x := goldenBand(4096, 9)
	p := scf.Params{K: 64, M: 16}
	serial, _, err := FAM{Params: p, Workers: 1}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 8} {
		par, _, err := FAM{Params: p, Workers: workers}.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		for i := range serial.Data {
			for j := range serial.Data[i] {
				if par.Data[i][j] != serial.Data[i][j] {
					t.Fatalf("workers=%d: cell [%d][%d] %v != serial %v", workers, i, j, par.Data[i][j], serial.Data[i][j])
				}
			}
		}
	}
}

// The FAM surface must be exactly Hermitian in α — the property the
// mirrored evaluation relies on.
func TestFAMSurfaceExactlyHermitian(t *testing.T) {
	x := goldenBand(2048, 11)
	s, _, err := FAM{Params: scf.Params{K: 64, M: 16}}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	if e := s.HermitianError(); e != 0 {
		t.Fatalf("FAM Hermitian error %g, want exact 0", e)
	}
}
