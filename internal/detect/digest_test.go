package detect

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"slices"
	"testing"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// digestWindows returns the windows the statistic digests run over:
// noise alone and a BPSK carrier in noise, at each length.
func digestWindows(t *testing.T, lengths []int) [][]complex128 {
	t.Helper()
	rng := sig.NewRand(91)
	var out [][]complex128
	for _, n := range lengths {
		noise := sig.WGN{Sigma: 1, Rng: rng}
		out = append(out, sig.Samples(&noise, n))
		clean := sig.Samples(&sig.BPSK{Amp: 1, Carrier: 0.125, SymbolLen: 8, Rng: rng}, n)
		x, _, err := sig.AddAWGN(clean, -6, false, rng)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, x)
	}
	return out
}

// statDigest hashes statistics bit for bit: SHA-256 over
// math.Float64bits of each value in order.
func statDigest(stats []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, v := range stats {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestStatisticDigestsPinned pins the exact Urriza statistic, the exact
// DG statistic at off-grid cycles (α·size not an integer, so every
// cycle takes the derotation path) and the exact decisions of both
// registry deciders. The digests were recorded before DG shared its lag
// spectra across cycles and both detectors reused their scratch, so
// they prove that rework moved no bit on these paths. Any intended
// numerical change must re-record them on purpose.
func TestStatisticDigestsPinned(t *testing.T) {
	windows := digestWindows(t, []int{300, 2048, 4100})
	onGrid, err := CyclesForBins([]int{16, 32, 11, 40}, 256)
	if err != nil {
		t.Fatal(err)
	}
	offGrid := []float64{0.1234, -0.3, 0.0517}
	one := func(stat func([]complex128) (float64, error)) func([]complex128) ([]float64, error) {
		return func(x []complex128) ([]float64, error) {
			s, err := stat(x)
			return []float64{s}, err
		}
	}
	geom := scf.Params{K: 256, M: 64, AlphaCandidates: []int{16, 32, 11, 40}}.WithDefaults()
	urDec, err := NewDecider("urriza", DeciderParams{Scf: geom})
	if err != nil {
		t.Fatal(err)
	}
	dgDec, err := NewDecider("dg", DeciderParams{Scf: geom})
	if err != nil {
		t.Fatal(err)
	}
	// decision returns the statistic and threshold of d's decision; keep
	// drops the DG decider's statistic, whose on-grid cycles the tolerance
	// test guards instead.
	decision := func(d Decider, keepStat bool) func([]complex128) ([]float64, error) {
		return func(x []complex128) ([]float64, error) {
			dec, err := d.Decide(nil, x)
			if dec.Detected != (dec.Statistic > dec.Threshold) {
				t.Errorf("%s decision %+v inconsistent with its threshold", d.Name(), dec)
			}
			if !keepStat {
				return []float64{dec.Threshold}, err
			}
			return []float64{dec.Statistic, dec.Threshold}, err
		}
	}
	cases := []struct {
		name   string
		minLen int // windows shorter than this are under the detector's minimum
		stat   func([]complex128) ([]float64, error)
		want   string
	}{
		{"urriza/m2", 0, one(Urriza{Cycles: onGrid}.Statistic),
			"e43c8bb77e0f126ca49707553c770988aed8ed5aea2e0310c3cb68ce541a937d"},
		{"urriza/m3-lag2", 400, one(Urriza{Cycles: slices.Concat(onGrid, offGrid), Branches: 3, Lag: 2}.Statistic),
			"0bae0b7d4775f110f5c09646066b31e9a481381f2572ef30cf8101571138bc4e"},
		{"dg-offgrid/lags1234", 0, one(DG{Cycles: offGrid}.Statistic),
			"e3a1db349fca883d61654e5867b6f0fb5ab89234a5632222b04d8abc9cea99f7"},
		{"dg-offgrid/lag0", 0, one(DG{Cycles: offGrid, Lags: []int{0}}.Statistic),
			"feefad57912b70b82ae7a1830f9889b268ea0f83272c8492c3303c0c48b03bdd"},
		{"dg-offgrid/lags1-7-16", 0, one(DG{Cycles: offGrid, Lags: []int{1, 7, 16}, GuardBins: 3}.Statistic),
			"94af4d5a02ced68dfb9b88b7329dede355a6dff7ca5d09b4ac2bc645b53d27b8"},
		{"decider/urriza", 0, decision(urDec, true),
			"7614ab0a684a3ebea5c54f9a3dcca476b98920f5728de751077112d55169bab7"},
		{"decider/dg-threshold", 0, decision(dgDec, false),
			"56891b5177b6c6b11741f6c24bc02185d0e068c61694b7fe4a9c05671aaa65d6"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stats []float64
			for _, x := range windows {
				if len(x) < tc.minLen {
					continue
				}
				s, err := tc.stat(x)
				if err != nil {
					t.Fatalf("window %d: %v", len(x), err)
				}
				stats = append(stats, s...)
			}
			if got := statDigest(stats); got != tc.want {
				t.Errorf("digest %s, want %s (stats %v)", got, tc.want, stats)
			}
		})
	}
}
