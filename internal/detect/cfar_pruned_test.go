package detect

import (
	"testing"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// prunedTestBand synthesises the BPSK-in-noise band the pruned CFAR
// cases examine: symbol-rate feature at a=8 on the K=64 grid.
func prunedTestBand(t *testing.T, n int) []complex128 {
	t.Helper()
	rng := sig.NewRand(94)
	b := &sig.BPSK{Amp: 1, Carrier: 8.0 / 64, SymbolLen: 8, Rng: rng}
	x := sig.Samples(b, n)
	y, _, err := sig.AddAWGN(x, 3, true, rng)
	if err != nil {
		t.Fatal(err)
	}
	return y
}

// TestCFARPrunedSurface: CFAR decides directly on an alpha-pruned
// surface — detecting the feature when the candidate set covers it plus
// enough reference strips, and agreeing with the full-plane examination
// on the winning offset.
func TestCFARPrunedSurface(t *testing.T) {
	const k, m, blocks = 64, 16, 32
	full := scf.Params{K: k, M: m, Blocks: blocks}
	x := prunedTestBand(t, k*blocks)
	cfar := CFAR{MinAbsA: 2, Scale: 2}
	fullDec, err := cfar.Examine(computeSurface(t, x, full))
	if err != nil {
		t.Fatal(err)
	}
	if !fullDec.Detected {
		t.Fatalf("full plane missed the user: %+v", fullDec)
	}
	pruned := full
	// Feature row 8 plus reference strips where no feature lives, so
	// the floor median stays at noise level.
	pruned.AlphaCandidates = []int{8, 5, 11, 14}
	dec, err := cfar.Examine(computeSurface(t, x, pruned))
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Detected {
		t.Fatalf("pruned CFAR missed the user: %+v", dec)
	}
	if dec.FeatureA != fullDec.FeatureA && dec.FeatureA != -fullDec.FeatureA {
		t.Fatalf("pruned feature at a=%d, full plane at a=%d", dec.FeatureA, fullDec.FeatureA)
	}
	if dec.Floor <= 0 {
		t.Fatal("pruned floor not populated")
	}
}

// TestCFARPrunedTooFewRows: a candidate set that leaves fewer than
// three off-peak reference rows is rejected rather than silently
// producing a meaningless floor.
func TestCFARPrunedTooFewRows(t *testing.T) {
	const k, m, blocks = 64, 16, 8
	p := scf.Params{K: k, M: m, Blocks: blocks, AlphaCandidates: []int{8, 5}}
	x := prunedTestBand(t, k*blocks)
	cfar := CFAR{MinAbsA: 2, Scale: 2}
	if _, err := cfar.Examine(computeSurface(t, x, p)); err == nil {
		t.Fatal("CFAR accepted a candidate set with too few reference rows")
	}
}
