package sig

import (
	"math"
	"math/cmplx"
	"testing"

	"tiledcfd/internal/fft"
)

func TestToneComplexSpectrum(t *testing.T) {
	// A complex tone at bin 8 of a 64-point FFT must land in exactly that bin.
	const n, bin = 64, 8
	tone := &Tone{Amp: 1, Freq: float64(bin) / n}
	x := Samples(tone, n)
	X := fft.DFT(x)
	for v := range X {
		mag := cmplx.Abs(X[v])
		if v == bin && math.Abs(mag-n) > 1e-9 {
			t.Fatalf("tone bin magnitude %v, want %d", mag, n)
		}
		if v != bin && mag > 1e-9 {
			t.Fatalf("leakage at bin %d: %v", v, mag)
		}
	}
}

func TestToneRealHasTwoLines(t *testing.T) {
	const n, bin = 64, 8
	tone := &Tone{Amp: 1, Freq: float64(bin) / n, Real: true}
	x := Samples(tone, n)
	X := fft.DFT(x)
	if cmplx.Abs(X[bin]) < n/2-1e-6 || cmplx.Abs(X[n-bin]) < n/2-1e-6 {
		t.Fatalf("real tone should have lines at ±bin: %v / %v", X[bin], X[n-bin])
	}
}

func TestToneStateContinues(t *testing.T) {
	// Two calls of 32 samples must equal one call of 64.
	a := &Tone{Amp: 1, Freq: 0.1}
	b := &Tone{Amp: 1, Freq: 0.1}
	one := Samples(a, 64)
	two := b.Generate(nil, 32)
	two = b.Generate(two, 32)
	for i := range one {
		if cmplx.Abs(one[i]-two[i]) > 1e-12 {
			t.Fatalf("phase discontinuity at %d", i)
		}
	}
}

func TestAMEnvelope(t *testing.T) {
	am := &AM{Amp: 1, Carrier: 0.25, ModFreq: 1.0 / 32, Depth: 0.5}
	x := Samples(am, 256)
	// Peak must reach ~(1+depth), never exceed it.
	peak := 0.0
	for _, v := range x {
		if a := math.Abs(real(v)); a > peak {
			peak = a
		}
		if imag(v) != 0 {
			t.Fatal("AM must be real")
		}
	}
	if peak > 1.5+1e-9 || peak < 1.3 {
		t.Fatalf("AM peak %v, want ~1.5", peak)
	}
}

func TestBPSKSymbolStructure(t *testing.T) {
	const symLen = 8
	b := &BPSK{Amp: 1, Carrier: 0, SymbolLen: symLen, Rng: NewRand(1)}
	x := Samples(b, 20*symLen)
	// With zero carrier, each symbol period is a constant ±1.
	for s := 0; s < 20; s++ {
		first := real(x[s*symLen])
		if math.Abs(math.Abs(first)-1) > 1e-12 {
			t.Fatalf("symbol %d amplitude %v", s, first)
		}
		for k := 1; k < symLen; k++ {
			if real(x[s*symLen+k]) != first {
				t.Fatalf("symbol %d not constant", s)
			}
		}
	}
}

func TestBPSKBothSymbolsAppear(t *testing.T) {
	b := &BPSK{Amp: 1, Carrier: 0, SymbolLen: 4, Rng: NewRand(3)}
	x := Samples(b, 400)
	plus, minus := false, false
	for _, v := range x {
		if real(v) > 0.5 {
			plus = true
		}
		if real(v) < -0.5 {
			minus = true
		}
	}
	if !plus || !minus {
		t.Fatal("BPSK produced only one symbol value")
	}
}

func TestBPSKPanicsWithoutRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BPSK without Rng should panic")
		}
	}()
	(&BPSK{Amp: 1, SymbolLen: 4}).Generate(nil, 4)
}

func TestBPSKPanicsOnBadSymbolLen(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("BPSK with SymbolLen 0 should panic")
		}
	}()
	(&BPSK{Amp: 1, Rng: NewRand(1)}).Generate(nil, 4)
}

func TestQPSKPower(t *testing.T) {
	q := &QPSK{Amp: 1, Carrier: 0.2, SymbolLen: 8, Rng: NewRand(9)}
	x := Samples(q, 8192)
	p := Power(x)
	// Real passband QPSK with unit symbol energy: average power = 1/2.
	if math.Abs(p-0.5) > 0.05 {
		t.Fatalf("QPSK power %v, want ~0.5", p)
	}
}

func TestQPSKPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("QPSK without Rng should panic")
		}
	}()
	(&QPSK{Amp: 1, SymbolLen: 4}).Generate(nil, 4)
}

func TestWGNPower(t *testing.T) {
	w := &WGN{Sigma: 0.5, Rng: NewRand(17)}
	x := Samples(w, 100000)
	p := Power(x)
	if math.Abs(p-0.25) > 0.01 {
		t.Fatalf("complex WGN power %v, want 0.25", p)
	}
	wr := &WGN{Sigma: 0.5, Real: true, Rng: NewRand(18)}
	xr := Samples(wr, 100000)
	pr := Power(xr)
	if math.Abs(pr-0.25) > 0.01 {
		t.Fatalf("real WGN power %v, want 0.25", pr)
	}
	for _, v := range xr[:100] {
		if imag(v) != 0 {
			t.Fatal("real WGN has imaginary component")
		}
	}
}

func TestWGNPanicsWithoutRng(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("WGN without Rng should panic")
		}
	}()
	(&WGN{Sigma: 1}).Generate(nil, 4)
}

func TestMixSumsSources(t *testing.T) {
	m := &Mix{Sources: []Source{
		&Tone{Amp: 1, Freq: 0.125},
		&Tone{Amp: 0.5, Freq: 0.25},
	}}
	x := Samples(m, 32)
	a := Samples(&Tone{Amp: 1, Freq: 0.125}, 32)
	b := Samples(&Tone{Amp: 0.5, Freq: 0.25}, 32)
	for i := range x {
		if cmplx.Abs(x[i]-(a[i]+b[i])) > 1e-12 {
			t.Fatalf("mix mismatch at %d", i)
		}
	}
}

func TestSilence(t *testing.T) {
	x := Samples(Silence{}, 16)
	for _, v := range x {
		if v != 0 {
			t.Fatal("silence not silent")
		}
	}
}
