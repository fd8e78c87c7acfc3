package stream

import (
	"fmt"
	"math"
	"runtime"
	"testing"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// surfaceOnly hides every optional method of an estimator and its
// accumulators, as a decorator does, so an engine over it decides from
// the snapshot surface.
type surfaceOnly struct{ scf.StreamingEstimator }

func (e surfaceOnly) NewWindowAccumulator(window int) (scf.Accumulator, error) {
	acc, err := scf.AccumulatorFor(e.StreamingEstimator, window)
	return struct{ scf.Accumulator }{acc}, err
}

func (e surfaceOnly) WithAlphaCandidates(alphas []int) (scf.StreamingEstimator, error) {
	est, err := e.StreamingEstimator.(scf.CandidateEstimator).WithAlphaCandidates(alphas)
	return surfaceOnly{est}, err
}

// rowMajorFeature is the reference feature search: the largest |v|² over
// the rows with |a| >= minAbsA, scanned row by row in ascending f with a
// strict >.
func rowMajorFeature(s *scf.Surface, minAbsA int) (f, a int) {
	best := -1.0
	alphas := s.AlphaValues()
	for i, row := range s.Data {
		if av := alphas[i]; av <= -minAbsA || av >= minAbsA {
			for fi, v := range row {
				if mag := real(v)*real(v) + imag(v)*imag(v); mag > best {
					best, f, a = mag, fi-(s.M-1), av
				}
			}
		}
	}
	return f, a
}

// requireSameProfile fails unless got and want agree bit for bit.
func requireSameProfile(t *testing.T, got, want *scf.Profile, label string) {
	t.Helper()
	if got.M != want.M || fmt.Sprint(got.Alphas) != fmt.Sprint(want.Alphas) || len(got.Sum) != len(want.Sum) {
		t.Fatalf("%s: profile rows M=%d %v (%d), want M=%d %v (%d)", label, got.M, got.Alphas, len(got.Sum), want.M, want.Alphas, len(want.Sum))
	}
	for i := range want.Sum {
		if math.Float64bits(got.Sum[i]) != math.Float64bits(want.Sum[i]) ||
			math.Float64bits(got.Peak[i]) != math.Float64bits(want.Peak[i]) || got.PeakF[i] != want.PeakF[i] {
			t.Fatalf("%s: row a=%d: sum %v peak %v at f=%d, want %v, %v at f=%d", label, want.Alpha(i),
				got.Sum[i], got.Peak[i], got.PeakF[i], want.Sum[i], want.Peak[i], want.PeakF[i])
		}
	}
}

// TestProfileMatchesSurface: a window-bound FAM or SSCA accumulator's
// SnapshotProfile is the profile of its Snapshot bit for bit (row sums
// as AlphaProfile adds them, each row's peak and its f), cfar and fixed
// decide the same statistic from it as from the surface, and an engine
// that decides from it reports the statistic, the feature of a
// row-major surface scan and the pruned-cell count an engine deciding
// from the surface reports. The geometries cover full and pruned FAM at
// hop K/4 and an odd hop, full, pruned and Hann SSCA, and the 4(M-1) = K
// edge, where one SSCA strip serves the top row's last cell first.
func TestProfileMatchesSurface(t *testing.T) {
	const window = 2048
	p := scf.Params{K: 64, M: 16}
	odd := p
	odd.Hop = 13
	hann := p
	hann.Window = fft.Hann
	edge := scf.Params{K: 64, M: 17} // 4(M-1) = K
	cases := []struct {
		name   string
		est    scf.StreamingEstimator
		alphas []int
	}{
		{"fam", fam.FAM{Params: p}, nil},
		{"fam-pruned", fam.FAM{Params: p}, []int{3, 8, 11}},
		{"fam-odd-hop", fam.FAM{Params: odd}, nil},
		{"fam-odd-hop-pruned", fam.FAM{Params: odd}, []int{15, 2, 7}},
		{"fam-edge", fam.FAM{Params: edge}, nil},
		{"ssca", fam.SSCA{Params: p}, nil},
		{"ssca-pruned", fam.SSCA{Params: p}, []int{3, 8, 11, 15}},
		{"ssca-hann", fam.SSCA{Params: hann}, nil},
		{"ssca-edge", fam.SSCA{Params: edge}, nil},
		{"ssca-edge-pruned", fam.SSCA{Params: edge}, []int{16, 5, 9}},
	}
	cfar, err := detect.NewDecider("cfar", detect.DeciderParams{MinAbsA: 2})
	if err != nil {
		t.Fatal(err)
	}
	deciders := map[string]detect.Decider{"cfar": cfar, "fixed": fixedDecider(t)}
	// Moving one cell within a row's sum changes its bits in about a
	// third of noise windows, so the edge needs several.
	bands := [][]complex128{bpskBand(t, window, 8.0/64, 0, 61)}
	for seed := range uint64(7) {
		bands = append(bands, noiseBand(t, window, 62+seed))
	}
	for _, c := range cases {
		acc, err := accumulatorFor(c.est, c.alphas, window)
		if err != nil {
			t.Fatal(err)
		}
		for bi, band := range bands {
			label := fmt.Sprintf("%s band %d", c.name, bi)
			acc.Reset()
			if err := acc.Push(band); err != nil {
				t.Fatal(err)
			}
			var got, want scf.Profile
			ok, err := acc.(profileSnapshotter).SnapshotProfile(&got)
			if err != nil || !ok {
				t.Fatalf("%s: SnapshotProfile ok=%v err=%v", label, ok, err)
			}
			s, _, err := acc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			want.FromSurface(s)
			want.SetPeaks(s)
			requireSameProfile(t, &got, &want, label)
			for i, v := range s.AlphaProfile() {
				if math.Float64bits(got.Sum[i]) != math.Float64bits(v) {
					t.Fatalf("%s: row %d sum %v, AlphaProfile %v", label, i, got.Sum[i], v)
				}
			}
			gf, ga := got.Feature(2)
			if wf, wa := rowMajorFeature(s, 2); gf != wf || ga != wa {
				t.Fatalf("%s: profile feature (%d, %d), surface scan (%d, %d)", label, gf, ga, wf, wa)
			}
			extent := int64(s.Extent())
			if skipped := got.PrunedCellsSkipped(); skipped != (extent-int64(len(s.Data)))*extent {
				t.Fatalf("%s: profile skips %d cells, surface holds %d of %d rows", label, skipped, len(s.Data), extent)
			}
			for name, dec := range deciders {
				fromSurface, err := dec.Decide(s, nil)
				if err != nil {
					t.Fatal(err)
				}
				fromProfile, err := dec.(detect.ProfileDecider).DecideProfile(&got)
				if err != nil {
					t.Fatal(err)
				}
				if fromProfile != fromSurface {
					t.Fatalf("%s %s: profile decision %+v, surface decision %+v", label, name, fromProfile, fromSurface)
				}
			}
		}
		// The engine's two paths, over the same windows.
		for name, dec := range deciders {
			served := serveWindows(t, c.est, c.alphas, dec, window, bands)
			viaSurface := serveWindows(t, surfaceOnly{c.est}, c.alphas, dec, window, bands)
			for k, d := range served {
				ref := viaSurface[k]
				if math.Float64bits(d.Statistic) != math.Float64bits(ref.Statistic) || d.Detected != ref.Detected ||
					d.FeatureF != ref.FeatureF || d.FeatureA != ref.FeatureA {
					t.Fatalf("%s %s window %d: served %+v, from the surface %+v", c.name, name, k, d, ref)
				}
			}
		}
	}
}

// serveWindows runs the bands through a one-channel engine, one window
// each, and returns its decisions. It checks the features against a
// row-major scan of each window's batch surface and the pruned-cell
// count against the geometry's.
func serveWindows(t *testing.T, est scf.StreamingEstimator, alphas []int, dec detect.Decider, window int, bands [][]complex128) []Decision {
	t.Helper()
	e, err := New(Config{Estimator: est, SnapshotSamples: window, Block: true, Decider: dec, MinAbsA: 2, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.AddChannelCandidates("c", alphas); err != nil {
		t.Fatal(err)
	}
	ref, err := accumulatorFor(est, alphas, window)
	if err != nil {
		t.Fatal(err)
	}
	var skipped int64
	out := make([]Decision, len(bands))
	for k, band := range bands {
		if _, err := e.Push("c", band); err != nil {
			t.Fatal(err)
		}
		select {
		case out[k] = <-e.Decisions():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s: no decision for window %d", est.Name(), k)
		}
		ref.Reset()
		if err := ref.Push(band); err != nil {
			t.Fatal(err)
		}
		s, _, err := ref.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if f, a := rowMajorFeature(s, 2); out[k].FeatureF != f || out[k].FeatureA != a {
			t.Fatalf("%s window %d: feature (%d, %d), surface scan (%d, %d)", est.Name(), k, out[k].FeatureF, out[k].FeatureA, f, a)
		}
		extent := int64(s.Extent())
		skipped += (extent - int64(len(s.Data))) * extent
	}
	if got := e.Stats().PrunedCellsSkipped; got != skipped {
		t.Fatalf("%s: PrunedCellsSkipped %d, want %d", est.Name(), got, skipped)
	}
	return out
}

// TestServedCFARWindowAllocatesNoSurface: once the first window has
// sized the borrowed scratch, a served cfar window (the engine's feed,
// fold, decision and emit) on the bench geometries, fam at W=8192 and
// ssca at W=2048 with K=256 and M=64, allocates a few hundred bytes,
// where one surface is (2M-1)²·16 = 258,064 B.
func TestServedCFARWindowAllocatesNoSurface(t *testing.T) {
	p := scf.Params{K: 256, M: 64}
	const bound = 4096
	for _, c := range []struct {
		est    scf.StreamingEstimator
		window int
	}{
		{fam.FAM{Params: p}, 8192},
		{fam.SSCA{Params: p}, 2048},
	} {
		e, err := New(Config{Estimator: c.est, SnapshotSamples: c.window, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		acc, err := accumulatorFor(c.est, nil, c.window)
		if err != nil {
			t.Fatal(err)
		}
		// The test's goroutine feeds a channel the workers never see.
		ch := &channel{id: "c", acc: acc, dec: e.dec}
		band := noiseBand(t, c.window, 5)
		serve := func() {
			for off := 0; off < c.window; off += drainChunk {
				e.feed(ch, band[off:min(off+drainChunk, c.window)])
			}
			<-e.out
		}
		serve()
		const runs = 10
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			serve()
		}
		runtime.ReadMemStats(&after)
		if ch.snapshots.Load() != runs+1 {
			t.Fatalf("%s: %d decisions, want %d", c.est.Name(), ch.snapshots.Load(), runs+1)
		}
		if perWindow := (after.TotalAlloc - before.TotalAlloc) / runs; perWindow > bound {
			t.Errorf("%s W=%d: a served window allocates %d B, want at most %d", c.est.Name(), c.window, perWindow, bound)
		}
		e.Close()
	}
}
