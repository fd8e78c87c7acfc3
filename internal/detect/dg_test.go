package detect

import (
	"math"
	"slices"
	"sync"
	"testing"

	"tiledcfd/internal/scf"
	"tiledcfd/internal/sig"
)

// servingDecider builds the named registry decider at the serving
// geometry of the stream-pruned-dg workload: K=256, bins {16,32,11,40}.
func servingDecider(tb testing.TB, name string) Decider {
	tb.Helper()
	d, err := NewDecider(name, DeciderParams{
		Scf: scf.Params{K: 256, M: 64, AlphaCandidates: []int{16, 32, 11, 40}}.WithDefaults(),
	})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func benchmarkDecide(b *testing.B, name string) {
	d := servingDecider(b, name)
	noise := sig.WGN{Sigma: 1, Rng: sig.NewRand(5)}
	x := sig.Samples(&noise, 2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Decide(nil, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDGDecide times one dg decision on a 2048-sample window with
// the four serving cycles and the default four lags.
func BenchmarkDGDecide(b *testing.B) { benchmarkDecide(b, "dg") }

// BenchmarkUrrizaDecide times one urriza decision on the same window.
func BenchmarkUrrizaDecide(b *testing.B) { benchmarkDecide(b, "urriza") }

// within reports whether a statistic agrees with its reference to 1e-9
// relative (absolute below 1, where the chi-square statistics are
// noise-level).
func within(got, ref float64) bool {
	return math.Abs(got-ref) <= 1e-9*math.Max(math.Abs(ref), 1)
}

// TestDGSharedSpectraMatchPerCycle: reading every on-grid cycle from
// shifted bins of one spectrum per lag agrees with derotating and
// transforming per cycle to 1e-9 relative, for each cycle alone and for
// the mixed on-grid/off-grid set, across window lengths and lag sets.
// The shift rounds differently from the derotation recurrence, so the
// two paths are not bit-identical.
func TestDGSharedSpectraMatchPerCycle(t *testing.T) {
	onGrid, err := CyclesForBins([]int{16, 32, 11, 40}, 256)
	if err != nil {
		t.Fatal(err)
	}
	cycles := slices.Concat(onGrid, []float64{-0.25, 0.1234, -0.3})
	for _, lags := range [][]int{{0}, {1, 2, 3, 4}, {1, 7, 16}} {
		for _, x := range digestWindows(t, []int{300, 2048, 4100}) {
			d := DG{Cycles: cycles, Lags: lags}.withDefaults()
			size := nextPow2(len(x) - slices.Max(lags))
			var on, off int
			for _, a := range cycles {
				if v := a * float64(size); v == math.Trunc(v) {
					on++
				} else {
					off++
				}
			}
			if on == 0 || off == 0 {
				t.Fatalf("size %d: %d on-grid and %d off-grid cycles, want both", size, on, off)
			}
			sets := [][]float64{cycles}
			for i := range cycles {
				sets = append(sets, cycles[i:i+1])
			}
			for _, set := range sets {
				d.Cycles = set
				got, err := d.statistic(x, true)
				if err != nil {
					t.Fatal(err)
				}
				ref, err := d.statistic(x, false)
				if err != nil {
					t.Fatal(err)
				}
				if !within(got, ref) {
					t.Errorf("lags %v n=%d cycles %v: shared %.17g, per-cycle %.17g (rel %.2g)",
						lags, len(x), set, got, ref, math.Abs(got-ref)/ref)
				}
			}
		}
	}
}

// TestDGDegenerateWindows pins the outcomes the DG doc comment promises
// on both paths: an all-zero window gives statistic 0 through the
// ridged solve, and a constant (DC-only) window gives a finite
// statistic well below the threshold. Neither is an error or a
// detection.
func TestDGDegenerateWindows(t *testing.T) {
	onGrid, err := CyclesForBins([]int{16, 32, 11, 40}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cycles []float64
	}{
		{"on-grid", onGrid},
		{"off-grid", []float64{0.1234, -0.3}},
	} {
		d := DG{Cycles: tc.cycles}
		th, err := d.Threshold()
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]complex128, 2048)
		stat, err := d.Statistic(zero)
		if err != nil || stat != 0 || stat > th {
			t.Errorf("%s all-zero window: statistic %v (threshold %v), %v; want statistic 0, not detected", tc.name, stat, th, err)
		}
		dc := make([]complex128, 2048)
		for i := range dc {
			dc[i] = complex(0.3, -2)
		}
		stat, err = d.Statistic(dc)
		if err != nil || math.IsNaN(stat) || stat < 0 || stat > 1 || stat > th {
			t.Errorf("%s constant window: statistic %v (threshold %v), %v; want a finite statistic in [0, 1], not detected", tc.name, stat, th, err)
		}
	}
}

// TestUrrizaDegenerateWindows: an all-zero window has a zero branch
// correlation matrix and a constant one a rank-one matrix; both solve
// with a ridged diagonal instead of failing, so a silent or DC-only
// channel still decides. The all-zero window gives statistic 0 and the
// constant one a finite statistic, neither detected.
func TestUrrizaDegenerateWindows(t *testing.T) {
	onGrid, err := CyclesForBins([]int{16, 32, 11, 40}, 256)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		cycles []float64
	}{
		{"on-grid", onGrid},
		{"off-grid", []float64{0.1234, -0.3}},
	} {
		u := Urriza{Cycles: tc.cycles}
		th, err := u.Threshold()
		if err != nil {
			t.Fatal(err)
		}
		zero := make([]complex128, 2048)
		stat, err := u.Statistic(zero)
		if err != nil || stat != 0 || stat > th {
			t.Errorf("%s all-zero window: statistic %v (threshold %v), %v; want statistic 0, not detected", tc.name, stat, th, err)
		}
		dc := make([]complex128, 2048)
		for i := range dc {
			dc[i] = complex(0.3, -2)
		}
		stat, err = u.Statistic(dc)
		if err != nil || math.IsNaN(stat) || math.IsInf(stat, 0) || stat < 0 || stat > th {
			t.Errorf("%s constant window: statistic %v (threshold %v), %v; want a finite statistic, not detected", tc.name, stat, th, err)
		}
	}
}

// TestDecidersAllocateNothing: once the scratch list holds a decision's
// working memory, the dg and urriza deciders allocate nothing per
// decision.
func TestDecidersAllocateNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	noise := sig.WGN{Sigma: 1, Rng: sig.NewRand(3)}
	x := sig.Samples(&noise, 2048)
	for _, name := range []string{"dg", "urriza"} {
		d := servingDecider(t, name)
		if _, err := d.Decide(nil, x); err != nil {
			t.Fatal(err)
		}
		if a := testing.AllocsPerRun(20, func() {
			if _, err := d.Decide(nil, x); err != nil {
				t.Fatal(err)
			}
		}); a != 0 {
			t.Errorf("%s: %v allocations per decision, want 0", name, a)
		}
	}
}

// FuzzDGSharedSpectra differentially checks the shared-spectra path
// against the per-cycle derotation reference over random window
// lengths (>= 260), lag sets, FFT sizes K and alpha-bin sets. With K up
// to 4096 some CyclesForBins cycles fall off the size-point grid and
// take the derotation fallback inside the shared path, so mixed sets
// are exercised too. The statistics must agree to 1e-9 relative.
func FuzzDGSharedSpectra(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, extra uint16, lagBits uint32, kLog uint8, binBits uint64) {
		var lags []int
		for l := 0; l < 32 && len(lags) < 4; l++ {
			if lagBits>>l&1 == 1 {
				lags = append(lags, l)
			}
		}
		if len(lags) == 0 {
			lags = []int{1}
		}
		n := max(260+int(extra%3840), dgMinWindow+slices.Max(lags))
		k := 4 << (kLog % 11)
		var bins []int
		for i := 0; i < 4; i++ {
			bins = append(bins, 1+int(binBits>>(16*i)&0xffff)%(k/2-1))
		}
		cycles, err := CyclesForBins(bins, k)
		if err != nil {
			t.Fatal(err)
		}
		rng := sig.NewRand(seed)
		noise := sig.WGN{Sigma: 1, Rng: rng}
		x := sig.Samples(&noise, n)
		amp := float64(seed%3) * 0.5
		bpsk := sig.Samples(&sig.BPSK{Amp: amp, Carrier: 0.125, SymbolLen: 8, Rng: rng}, n)
		for i := range x {
			x[i] += bpsk[i]
		}
		d := DG{Cycles: cycles, Lags: lags}.withDefaults()
		got, err := d.statistic(x, true)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := d.statistic(x, false)
		if err != nil {
			t.Fatal(err)
		}
		if !within(got, ref) {
			t.Errorf("n=%d lags %v k=%d bins %v: shared %.17g, per-cycle %.17g", n, lags, k, bins, got, ref)
		}
	})
}

// TestDecidersConcurrentMatchSerial: one decider serves every channel
// of an engine, so concurrent decisions must each get their own scratch
// and return exactly the serial decision. Run it under -race.
func TestDecidersConcurrentMatchSerial(t *testing.T) {
	windows := digestWindows(t, []int{300, 2048, 4100})
	for _, name := range []string{"dg", "urriza"} {
		d := servingDecider(t, name)
		want := make([]Decision, len(windows))
		for i, x := range windows {
			var err error
			if want[i], err = d.Decide(nil, x); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for r := 0; r < 8; r++ {
					i := (g + r) % len(windows)
					got, err := d.Decide(nil, windows[i])
					if err != nil || got != want[i] {
						t.Errorf("%s window %d: concurrent %+v (%v), serial %+v", name, i, got, err, want[i])
						return
					}
				}
			}(g)
		}
		wg.Wait()
	}
}
