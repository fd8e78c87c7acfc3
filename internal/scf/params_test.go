package scf

import (
	"testing"

	"tiledcfd/internal/fft"
)

func TestParamsDefaults(t *testing.T) {
	p := Params{}.WithDefaults()
	if p.K != 256 || p.M != 64 || p.Blocks != 1 || p.Hop != 256 {
		t.Fatalf("defaults: %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	if p.Window != fft.Rectangular {
		t.Fatal("default window should be rectangular")
	}
}

func TestParamsPaperGrid(t *testing.T) {
	p := Params{K: 256, M: 64}.WithDefaults()
	if p.P() != 127 || p.F() != 127 {
		t.Fatalf("P=%d F=%d, want 127/127 (the paper's 127x127 DSCF)", p.P(), p.F())
	}
	if p.DSCFMults() != 16129 {
		t.Fatalf("DSCFMults = %d, want 127²=16129", p.DSCFMults())
	}
}

func TestParamsValidation(t *testing.T) {
	bad := []Params{
		{K: 100, M: 4, Blocks: 1, Hop: 100}, // K not pow2
		{K: 2, M: 1, Blocks: 1, Hop: 2},     // K too small
		{K: 16, M: 0, Blocks: 1, Hop: 16},   // M < 1 (bypassing defaults)
		{K: 16, M: 6, Blocks: 1, Hop: 16},   // 2(M-1)=10 > K/2=8
		{K: 16, M: 4, Blocks: 0, Hop: 16},   // blocks < 1
		{K: 16, M: 4, Blocks: 1, Hop: 0},    // hop < 1
		{K: 16, M: 4, Blocks: -2, Hop: 16},  // negative blocks
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("case %d (%+v) should fail validation", i, p)
		}
	}
	good := Params{K: 16, M: 5, Blocks: 3, Hop: 8}
	if err := good.Validate(); err != nil {
		t.Errorf("good params rejected: %v", err)
	}
}

func TestSamplesNeeded(t *testing.T) {
	p := Params{K: 256, M: 64, Blocks: 4, Hop: 256}
	if got := p.SamplesNeeded(); got != 1024 {
		t.Fatalf("SamplesNeeded = %d, want 1024", got)
	}
	q := Params{K: 256, M: 64, Blocks: 4, Hop: 128}
	if got := q.SamplesNeeded(); got != 640 {
		t.Fatalf("SamplesNeeded hop 128 = %d, want 640", got)
	}
}
