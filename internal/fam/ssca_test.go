package fam

import (
	"math/cmplx"
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
	if got, want := e.MinSamples(), 64+63; got != want {
		t.Errorf("MinSamples = %d, want %d", got, want)
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
