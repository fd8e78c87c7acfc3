package scf

import (
	"reflect"
	"testing"

	"tiledcfd/internal/sig"
)

var _ Estimator = Direct{}

func estimatorBand(t *testing.T, n int) []complex128 {
	t.Helper()
	rng := sig.NewRand(5)
	b := &sig.BPSK{Amp: 1, Carrier: 8.0 / 64, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, n)
	y, _, err := sig.AddAWGN(x, 10, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

func TestDirectEstimatorMatchesCompute(t *testing.T) {
	p := Params{K: 64, M: 16, Blocks: 8}
	x := estimatorBand(t, p.WithDefaults().SamplesNeeded())
	want, wantStats, err := Compute(x, p)
	if err != nil {
		t.Fatal(err)
	}
	got, gotStats, err := Direct{Params: p}.Estimate(x)
	if err != nil {
		t.Fatal(err)
	}
	if d := MaxAbsDiff(want, got); d != 0 {
		t.Errorf("surface differs from Compute by %g (want bit-identical)", d)
	}
	if !reflect.DeepEqual(gotStats, wantStats) {
		t.Errorf("stats %+v != Compute's %+v", gotStats, wantStats)
	}
	if got := (Direct{}).Name(); got != "direct" {
		t.Errorf("Name() = %q", got)
	}
}

func TestDirectEstimatorPropagatesErrors(t *testing.T) {
	e := Direct{Params: Params{K: 64, M: 16, Blocks: 8}}
	if _, _, err := e.Estimate(make([]complex128, 10)); err == nil {
		t.Error("short input should fail")
	}
	e.Params.K = 63
	if _, _, err := e.Estimate(make([]complex128, 1024)); err == nil {
		t.Error("non-power-of-two K should fail")
	}
}

func TestStatsTotalMults(t *testing.T) {
	s := Stats{FFTMults: 100, DSCFMults: 1600}
	if got := s.TotalMults(); got != 1700 {
		t.Fatalf("TotalMults = %d, want 1700", got)
	}
}
