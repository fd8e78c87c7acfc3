package fam

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/fixed"
	"tiledcfd/internal/scf"
)

// surfaceDigest hashes a surface and its stats: SHA-256 over
// math.Float64bits of every cell (real, then imaginary, row by row),
// then Blocks, FFTMults, DSCFMults, Cycles and each PerTile entry.
// Stats.Kernel is left out: it names the active kernel set, which never
// changes surface bits.
func surfaceDigest(s *scf.Surface, st *scf.Stats) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, row := range s.Data {
		for _, c := range row {
			put(math.Float64bits(real(c)))
			put(math.Float64bits(imag(c)))
		}
	}
	for _, v := range []int64{int64(st.Blocks), int64(st.FFTMults), int64(st.DSCFMults), st.Cycles} {
		put(uint64(v))
	}
	for _, tc := range st.PerTile {
		put(uint64(tc.Tile))
		put(uint64(tc.Compute))
		put(uint64(tc.Transfer))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestEstimatorDigestsPinned pins the exact output of the FAM, SSCA,
// FAM-Q15 and SSCA-Q15 estimators: every surface cell and stat, hashed.
// The FAM and Q15 digests were recorded before batch FAM and the Q15
// estimators were rebuilt on their accumulators, and the SSCA digests
// before the window-bound FAM and SSCA became span folds, so they prove
// those rebuilds moved no bit. Any intended numerical change must
// re-record them on purpose.
func TestEstimatorDigestsPinned(t *testing.T) {
	type geometry struct {
		k, m, n int
		alphas  []int // the pruned FAM candidate rows
	}
	geometries := []geometry{
		{k: 256, m: 64, n: 8192, alphas: []int{16, 32, 11, 40}},
		{k: 64, m: 16, n: 2048, alphas: []int{4, 8, 3, 10}},
	}
	cases := []struct {
		name string
		est  func(g geometry) scf.Estimator
		want [2]string // per geometry
	}{
		{"fam-full", func(g geometry) scf.Estimator {
			return FAM{Params: scf.Params{K: g.k, M: g.m}}
		}, [2]string{
			"516bf95dab0dfce02e3a029bbbe9b0c0e6c6a77e73c9cfc23080d4e1ca8b53ae",
			"5de34908536d3358b97b18f6d84e9841feded37818c60c00ce4e4507e401aa58",
		}},
		{"fam-pruned", func(g geometry) scf.Estimator {
			return FAM{Params: scf.Params{K: g.k, M: g.m, AlphaCandidates: g.alphas}}
		}, [2]string{
			"b7a279be23631482dc32bf5e7dc6187abfbc09c5ef2db1ee003608f43ef70cfa",
			"fd7217576bced0ddd5b8b3cee77d650561e3fc45804e70bed914e3f8e4cf5bea",
		}},
		{"fam-hamming", func(g geometry) scf.Estimator {
			return FAM{Params: scf.Params{K: g.k, M: g.m, Window: fft.Hamming}}
		}, [2]string{
			"9c39abbd9a4dbb26662ffecf1aef21c7acc5e7fb439cd6bad4da3c2b91916679",
			"2b0faff7aa3fd1d1213cb12a92967540fded491971d45095a4c88e91f70d8d35",
		}},
		{"fam-hop13", func(g geometry) scf.Estimator {
			return FAM{Params: scf.Params{K: g.k, M: g.m, Hop: 13}}
		}, [2]string{
			"8c38913a550a70bd3b32c471a16ee5b6ff0d53632a140f2f757bb7a3d9e6af98",
			"9b940b0b1b0ec8f42a9cde28f2cb0fa0b01c6185cdce68e664e12ab732143fa3",
		}},
		{"ssca-full", func(g geometry) scf.Estimator {
			return SSCA{Params: scf.Params{K: g.k, M: g.m}}
		}, [2]string{
			"a86ab268339b6845d9e05f03acf9d0414143e0f5e8a1e791a5cf2bf58b6fd05d",
			"8a5a9e57c9b15696d2b15c15dfc7258187caebe191f9e600fedb4e0f377f710f",
		}},
		{"ssca-pruned", func(g geometry) scf.Estimator {
			return SSCA{Params: scf.Params{K: g.k, M: g.m, AlphaCandidates: g.alphas}}
		}, [2]string{
			"c1f7d9912a71c65ce75fa10600e6fc6c6e627be0538061f5c115f114f3758d9f",
			"32a0b7de45aa7de84195f44f7092499a3ae9b6361605e1acd8ca55c1dadd5d7e",
		}},
		{"ssca-hann", func(g geometry) scf.Estimator {
			return SSCA{Params: scf.Params{K: g.k, M: g.m, Window: fft.Hann}}
		}, [2]string{
			"5d0c6387998fb6ae330fb9cdb20ed2703c0392742afeb087482aa83ae86be339",
			"16723f019fc6ec5533562db869a7c224cf617f686f5f117d7e83340fa90aba3e",
		}},
		{"ssca-fixed-n", func(g geometry) scf.Estimator {
			return SSCA{Params: scf.Params{K: g.k, M: g.m}, N: g.n / 8}
		}, [2]string{
			"9fe58ba7f2f2495439ed48411e96b7ad3a99cf52faa61fe98b023d5c7727cb31",
			"847d1285ae58e2eb7f847f5a4411016677940ed3cc47d7f7409996141c7c9cb2",
		}},
		{"fam-q15-measured", func(g geometry) scf.Estimator {
			return FAMQ15{Params: scf.Params{K: g.k, M: g.m}}
		}, [2]string{
			"1e5d6bffb09ddd9389dc00f4995852ea6aaa00b18ad9da69f288d0fdb5f8aee8",
			"10ff32434384c053415542c7a47c0a149c73e6e10cc407bcf119b2f0a8c04e46",
		}},
		{"fam-q15-peak", func(g geometry) scf.Estimator {
			return FAMQ15{Params: scf.Params{K: g.k, M: g.m}, InputPeak: 1.5}
		}, [2]string{
			"26f715d1175dcbed337cf0b5bc84995afdaa276f9c49cfa5f9bd995069471ece",
			"bf19cc7bcfd93341d9cbca1ab719919f02c3986d17908660e76e0feb4f2c291e",
		}},
		{"ssca-q15-measured", func(g geometry) scf.Estimator {
			return SSCAQ15{Params: scf.Params{K: g.k, M: g.m}}
		}, [2]string{
			"52c6a16e7b920e539f4ad6bf43f89c0b4677f7dd68088a49b5d6ff2f52821348",
			"c3ce5df82ae96ba051b18c2ef43d771ab30405b259ef460ba202b944757ffb95",
		}},
		{"ssca-q15-peak", func(g geometry) scf.Estimator {
			return SSCAQ15{Params: scf.Params{K: g.k, M: g.m}, InputPeak: 1.5}
		}, [2]string{
			"e3419ed40d4bcb0dd13b0efef0aaf952ba25392bf2299407c97b91dd253ea7fb",
			"6e3e908b5c19ac97626d5f18c69f65726c495167a82919102b92aebaeaf7ab1a",
		}},
	}
	for _, tc := range cases {
		for i, g := range geometries {
			t.Run(fmt.Sprintf("%s/K=%d", tc.name, g.k), func(t *testing.T) {
				s, st, err := tc.est(g).Estimate(goldenBand(g.n, 21))
				if err != nil {
					t.Fatal(err)
				}
				if got := surfaceDigest(s, st); got != tc.want[i] {
					t.Errorf("digest %s, want %s", got, tc.want[i])
				}
				if st.Cycles != 0 && st.Kernel != fixed.Active().Name() {
					t.Errorf("Stats.Kernel %q, want the active %q", st.Kernel, fixed.Active().Name())
				}
			})
		}
	}
}
