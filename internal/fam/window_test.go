package fam

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"

	"tiledcfd/internal/fft"
	"tiledcfd/internal/scf"
)

// FuzzWindowAccumulator: every accumulator the windowed stream engine
// builds (scf.AccumulatorFor) honours its contract. For a
// scf.WindowEstimator, after n samples pushed since the last Reset, in
// any chunking, Snapshot equals Estimate(x[:min(n, W)]) bit for bit with
// the same stats, and Ready holds exactly when that Estimate succeeds. A
// window too short for any snapshot gets the uncapped accumulator, whose
// snapshot is Estimate(x[:n]). The direct DSCF's reference is
// scf.Compute over the complete blocks of those samples. Every
// snapshot must also equal the uncapped accumulator's (NewAccumulator)
// fed the same samples, the same way, and where the accumulator folds
// straight into a profile (SnapshotProfile), that profile must be
// the snapshot's bit for bit. A second Snapshot before the Reset
// gives the same bits, also when the samples past a complete span arrive
// between the two (they are dropped), and after the Reset a partial
// refill snapshots as Estimate on the refill.
//
// The inputs decode as: seed picks the band; estSel%5 picks fam, pruned
// fam, ssca, fam-q15 or ssca-q15 (both with InputPeak 2), estSel/5%3 the
// FAM or direct hop (the default, 13 or 40 > K), and estSel/15%3 the
// family: 0 as listed, 1 the direct DSCF (pruned when estSel%5 is 1), 2
// fam-q15 (estSel even) or ssca-q15 (odd) with InputPeak 0, conditioned
// on each span's measured peak; winSel the analysis window; w the window
// length (1 + w%2048); n1 and n2 the prefix lengths pushed before and
// after a Reset (each modulo 2W+1); each chunks byte one push size
// (byte+1 samples, cycled; empty pushes each prefix at once).
func FuzzWindowAccumulator(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint16(600), uint16(1201), uint16(400), []byte{0, 16, 89})
	f.Add(uint64(2), uint8(1), uint8(1), uint16(2047), uint16(3000), uint16(2048), []byte{40})
	f.Add(uint64(3), uint8(2), uint8(2), uint16(2047), uint16(1500), uint16(4096), []byte{})
	// A whole window with its overflow, then a partial refill.
	f.Add(uint64(4), uint8(3), uint8(0), uint16(1023), uint16(1030), uint16(700), []byte{99, 7})
	f.Add(uint64(5), uint8(4), uint8(1), uint16(1500), uint16(1600), uint16(1000), []byte{255})
	f.Add(uint64(6), uint8(2), uint8(0), uint16(2047), uint16(2100), uint16(1800), []byte{127, 3})
	f.Add(uint64(7), uint8(6), uint8(2), uint16(700), uint16(900), uint16(300), []byte{12})
	// The direct DSCF: hop K, pruned, and a gap hop of 40 > K.
	f.Add(uint64(8), uint8(15), uint8(0), uint16(500), uint16(1001), uint16(31), []byte{30, 2})
	f.Add(uint64(9), uint8(16), uint8(1), uint16(300), uint16(600), uint16(450), []byte{})
	f.Add(uint64(10), uint8(25), uint8(2), uint16(900), uint16(1500), uint16(70), []byte{63})
	// FAM-Q15 and SSCA-Q15 without InputPeak.
	f.Add(uint64(11), uint8(30), uint8(0), uint16(1023), uint16(1500), uint16(700), []byte{99, 7})
	f.Add(uint64(12), uint8(31), uint8(1), uint16(1500), uint16(1600), uint16(2000), []byte{255})
	f.Fuzz(func(t *testing.T, seed uint64, estSel, winSel uint8, w, n1, n2 uint16, chunks []byte) {
		const k, m = 32, 8
		windows := []fft.WindowKind{fft.Rectangular, fft.Hamming, fft.Hann}
		p := scf.Params{K: k, M: m, Window: windows[int(winSel)%len(windows)]}
		famP := p
		famP.Hop = []int{0, 13, 40}[int(estSel/5)%3]
		if estSel%5 == 1 {
			famP.AlphaCandidates = []int{2, 5}
		}
		var est scf.StreamingEstimator
		switch family := estSel / 15 % 3; {
		case family == 1:
			est = scf.Direct{Params: famP}
		case family == 2 && estSel%2 == 0:
			est = FAMQ15{Params: famP}
		case family == 2:
			est = SSCAQ15{Params: p}
		case estSel%5 < 2:
			est = FAM{Params: famP}
		case estSel%5 == 2:
			est = SSCA{Params: p}
		case estSel%5 == 3:
			est = FAMQ15{Params: famP, InputPeak: 2}
		default:
			est = SSCAQ15{Params: p, InputPeak: 2}
		}
		estimate := est.Estimate
		if d, ok := est.(scf.Direct); ok {
			estimate = func(x []complex128) (*scf.Surface, *scf.Stats, error) {
				dp := d.Params.WithDefaults()
				if len(x) < dp.K {
					return nil, nil, fmt.Errorf("%d samples hold no block", len(x))
				}
				dp.Blocks = (len(x)-dp.K)/dp.Hop + 1
				return scf.Compute(x, dp)
			}
		}
		window := 1 + int(w)%2048
		x := streamBand(t, 2*window, seed)
		sizes := []int{len(x)}
		if len(chunks) > 0 {
			sizes = sizes[:0]
			for _, c := range chunks {
				sizes = append(sizes, int(c)+1)
			}
		}
		_, _, shortErr := estimate(x[:window])
		_, bound := est.(scf.WindowEstimator)
		capped := bound && shortErr == nil
		acc, err := scf.AccumulatorFor(est, window)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{int(n1) % (2*window + 1), int(n2) % (2*window + 1)} {
			acc.Reset()
			pushChunks(t, acc, x[:n], sizes)
			if acc.Samples() != n {
				t.Fatalf("Samples() = %d after %d pushed", acc.Samples(), n)
			}
			lim := n
			if capped {
				lim = min(n, window)
			}
			want, wantStats, wantErr := estimate(x[:lim])
			if acc.Ready() != (wantErr == nil) {
				t.Fatalf("%s W=%d n=%d: Ready %v, Estimate error %v", est.Name(), window, n, acc.Ready(), wantErr)
			}
			got, gotStats, err := acc.Snapshot()
			var prof scf.Profile
			folded, profErr := acc.(profileSnapshotter).SnapshotProfile(&prof)
			if wantErr != nil {
				if err == nil || (folded && profErr == nil) {
					t.Fatalf("%s W=%d n=%d: Snapshot or SnapshotProfile succeeded where Estimate fails", est.Name(), window, n)
				}
				continue
			}
			if err != nil || profErr != nil {
				t.Fatal(err, profErr)
			}
			label := fmt.Sprintf("%s W=%d n=%d", est.Name(), window, n)
			requireIdentical(t, got, want, label)
			requireSameStats(t, gotStats, wantStats)
			if folded {
				requireProfileOf(t, &prof, got, label)
			}
			// The uncapped accumulator buffers the same lim samples with no
			// cap. It is not an independent reference: Estimate and both
			// accumulators run one span fold, whose bits the goldens and
			// digest tests pin. It holds the capped buffer to the uncapped
			// one.
			ref, err := est.NewAccumulator()
			if err != nil {
				t.Fatal(err)
			}
			pushChunks(t, ref, x[:lim], sizes)
			refSurface, refStats, err := ref.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, got, refSurface, label+" vs uncapped accumulator")
			requireSameStats(t, gotStats, refStats)
			// Snapshot folds the buffer and keeps nothing: a second one
			// gives the same bits. Once the span is complete, the rest of
			// the band, pushed in between, is past it and dropped.
			if capped && lim == window {
				pushChunks(t, acc, x[n:], sizes)
			}
			again, againStats, err := acc.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, again, got, label+" second snapshot")
			requireSameStats(t, againStats, gotStats)
		}
	})
}

// profileSnapshotter is the optional accumulator method the stream
// engine decides from.
type profileSnapshotter interface {
	SnapshotProfile(dst *scf.Profile) (ok bool, err error)
}

// requireProfileOf fails unless p is the profile of s bit for bit.
func requireProfileOf(t *testing.T, p *scf.Profile, s *scf.Surface, label string) {
	t.Helper()
	var want scf.Profile
	want.FromSurface(s)
	want.SetPeaks(s)
	if p.M != want.M || !reflect.DeepEqual(p.Alphas, want.Alphas) || len(p.Sum) != len(want.Sum) {
		t.Fatalf("%s: profile rows M=%d %v, want M=%d %v", label, p.M, p.Alphas, want.M, want.Alphas)
	}
	for i := range want.Sum {
		if math.Float64bits(p.Sum[i]) != math.Float64bits(want.Sum[i]) ||
			math.Float64bits(p.Peak[i]) != math.Float64bits(want.Peak[i]) || p.PeakF[i] != want.PeakF[i] {
			t.Fatalf("%s: profile row a=%d: sum %v peak %v at f=%d, surface's %v, %v at f=%d", label, want.Alpha(i),
				p.Sum[i], p.Peak[i], p.PeakF[i], want.Sum[i], want.Peak[i], want.PeakF[i])
		}
	}
}

// TestWindowAccumulatorKeepsNoCheckpoint: after a whole window, a
// window-bound FAM, pruned FAM, SSCA, FAM-Q15 or SSCA-Q15 accumulator
// holds exactly its span, 16 B a sample (the Q15 fold quantises at
// Snapshot). None holds anything else: no result, no parity grid, no
// checkpoint, no K×strips fold, no hop bank, no quantised span. At the paper geometry
// (K=256, M=64) the result is larger than the span, so a result kept
// between pushes would show. Its snapshot still equals Estimate, and
// its HeldBytes method, which the stream engine reads, agrees with the
// reflective count after the window and after Reset.
func TestWindowAccumulatorKeepsNoCheckpoint(t *testing.T) {
	p := scf.Params{K: 64, M: 16} // FAM: 125 hops in a 2048 window, 64 read
	pruned := p
	pruned.AlphaCandidates = []int{3, 8, 11}
	// The paper geometry: FAM-Q15 reads 16 of 29 hops; SSCA-Q15 folds
	// N = 1024 hops, whose bank alone was N·K·4 B = 1 MB. The float SSCA
	// at W=2048 reads a 1279-sample (20 KB) span for a 127×127-cell
	// (258 KB) surface, and the FAM at W=8192 a 4288-sample span (64 of
	// 125 hops, 67 KB) for 64×127 cells of sums (130 KB).
	paper := scf.Params{K: 256, M: 64}
	for _, c := range []struct {
		name         string
		est          scf.StreamingEstimator
		window, span int
	}{
		{"fam", FAM{Params: p}, 2048, 63*16 + 64},
		{"fam-pruned", FAM{Params: pruned}, 2048, 63*16 + 64},
		{"ssca", SSCA{Params: p}, 2048, 1024 + 63},
		{"fam-paper", FAM{Params: paper}, 8192, 63*64 + 256},
		{"ssca-paper", SSCA{Params: paper}, 2048, 1024 + 255},
		{"fam-q15", FAMQ15{Params: paper, InputPeak: 2}, 2048, 15*64 + 256},
		{"ssca-q15", SSCAQ15{Params: paper, InputPeak: 2}, 2048, 1024 + 255},
	} {
		x := streamBand(t, c.window, 16)
		acc, err := c.est.(scf.WindowEstimator).NewWindowAccumulator(c.window)
		if err != nil {
			t.Fatal(err)
		}
		pushChunks(t, acc, x, []int{500})
		if got, want := heldBytes(reflect.ValueOf(acc)), 16*c.span; got != want {
			t.Errorf("%s W=%d: holds %d bytes past its geometry, want its %d-sample span alone (%d bytes)",
				c.name, c.window, got, c.span, want)
		}
		got, _, err := acc.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if got := heldBytes(reflect.ValueOf(acc)); got != 16*c.span {
			t.Errorf("%s W=%d: holds %d bytes after Snapshot, want its %d-byte span", c.name, c.window, got, 16*c.span)
		}
		wantSurface, _, err := c.est.Estimate(x)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, got, wantSurface, c.name)
		// The count the stream engine reads agrees with the reflective one,
		// after the window and after Reset, which keeps the buffer.
		counter, ok := acc.(interface{ HeldBytes() int })
		if !ok {
			t.Fatalf("%s: the window accumulator has no HeldBytes method", c.name)
		}
		for _, stage := range []string{"a whole window", "Reset"} {
			if stage == "Reset" {
				acc.Reset()
			}
			if got, want := counter.HeldBytes(), heldBytes(reflect.ValueOf(acc)); got != want {
				t.Errorf("%s W=%d after %s: HeldBytes() = %d, reflection finds %d", c.name, c.window, stage, got, want)
			}
		}
	}
}

// TestSSCAFoldScratchBytes: the SSCA span fold slides one channel at a
// time, so it borrows the N/K anchor spectra, the N-cell difference and
// conjugate arrays and one K-cell column: about 52 KB at K=256, N=1024,
// where a K×strips residue fold was 1 MB. After a full-plane window
// snapshot at W=2048, which runs the fold, and after a batch Estimate of
// the same samples, the one free-list entry both borrowed holds at most
// 64 KB.
func TestSSCAFoldScratchBytes(t *testing.T) {
	const window, limit = 2048, 64 << 10
	// Leave one fresh entry on the list, so it holds what these folds
	// grew it to and nothing an earlier test did.
	var drained []*sscaScratch
	for {
		sc := sscaScratches.Get()
		if heldBytes(reflect.ValueOf(sc)) == 0 {
			sscaScratches.Put(sc)
			break
		}
		drained = append(drained, sc)
	}
	t.Cleanup(func() {
		for _, sc := range drained {
			sscaScratches.Put(sc)
		}
	})
	held := func(label string) {
		t.Helper()
		sc := sscaScratches.Get()
		defer sscaScratches.Put(sc)
		if got := heldBytes(reflect.ValueOf(sc)); got == 0 || got > limit {
			t.Errorf("after %s: the fold scratch holds %d bytes, want 1..%d", label, got, limit)
		}
	}
	x := goldenBand(window, 3)
	e := SSCA{Params: scf.Params{K: 256, M: 64}}
	acc, err := e.NewWindowAccumulator(window)
	if err != nil {
		t.Fatal(err)
	}
	pushChunks(t, acc, x, []int{4096})
	if _, _, err := acc.Snapshot(); err != nil {
		t.Fatal(err)
	}
	held("a W=2048 window snapshot")
	if _, _, err := e.Estimate(x); err != nil {
		t.Fatal(err)
	}
	held("a batch Estimate")
}

// heldBytes sums the memory an accumulator keeps per channel: the
// backing array of every slice, and every *scf.Surface's or
// *scf.QSurface's cells, reachable through its struct fields and
// embedded structs. Each byte counts once, however many slices or
// surface rows share it. Interface values are not followed, so the
// fold kernel behind an accumulator (plans, tables and row sets that
// describe the geometry, not the stream) is left out.
func heldBytes(v reflect.Value) int {
	var spans [][2]uintptr // [start, end) of every array reached
	heldSpans(v, &spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i][0] < spans[j][0] })
	n, end := 0, uintptr(0)
	for _, s := range spans {
		start := max(s[0], end)
		if s[1] > start {
			n += int(s[1] - start)
			end = s[1]
		}
	}
	return n
}

// heldSpans appends the address range of every array heldBytes counts.
func heldSpans(v reflect.Value, spans *[][2]uintptr) {
	add := func(s reflect.Value, n int) {
		if n > 0 {
			p := s.Pointer()
			*spans = append(*spans, [2]uintptr{p, p + uintptr(n)*s.Type().Elem().Size()})
		}
	}
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		switch v.Type() {
		case reflect.TypeOf(&scf.Surface{}), reflect.TypeOf(&scf.QSurface{}):
			data := v.Elem().FieldByName("Data")
			for i := 0; i < data.Len(); i++ {
				row := data.Index(i)
				add(row, row.Len())
			}
			return
		}
		heldSpans(v.Elem(), spans)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			heldSpans(v.Field(i), spans)
		}
	case reflect.Slice:
		add(v, v.Cap())
	}
}

// sink keeps benchmark and allocation-test results live.
var (
	sinkSurface  *scf.Surface
	sinkQSurface *scf.QSurface
	sinkStats    *scf.Stats
)

// TestSSCASnapshotAllocs: an SSCA snapshot allocates no more than the
// surface it returns plus its Stats — no strip table, no cell scratch.
func TestSSCASnapshotAllocs(t *testing.T) {
	x := streamBand(t, 2048, 17)
	for _, p := range []scf.Params{
		{K: 64, M: 16},
		{K: 64, M: 16, AlphaCandidates: []int{3, 8, 11}},
	} {
		e := SSCA{Params: p}
		for _, window := range []int{0, len(x)} {
			acc, err := e.NewWindowAccumulator(window)
			if err != nil {
				t.Fatal(err)
			}
			if err := acc.Push(x); err != nil {
				t.Fatal(err)
			}
			got := testing.AllocsPerRun(20, func() {
				var err error
				if sinkSurface, sinkStats, err = acc.Snapshot(); err != nil {
					t.Fatal(err)
				}
			})
			sp := famDefaults(p, 1)
			want := testing.AllocsPerRun(20, func() {
				sinkSurface, sinkStats = scf.NewSurfaceFor(sp), &scf.Stats{}
			})
			if got > want {
				t.Errorf("pruned=%v window=%d: Snapshot allocates %v objects, the surface plus stats %v",
					p.Pruned(), window, got, want)
			}
		}
	}
}

// TestBatchEstimateBytes: at the paper geometry (K=256, M=64), a batch
// FAM, SSCA, FAM-Q15 or SSCA-Q15 estimate allocates at most the surface
// and stats it returns plus a small constant: the float surface for
// Estimate, the QSurface for EstimateQ15. The fold's working set (block,
// sums, K×strips fold; quantised span, hop bank, gathers, int64 grid and
// Estimate's QSurface) is borrowed from the shared free lists, and the
// input is never copied. The Q15 estimators run with a measured peak and
// with InputPeak.
func TestBatchEstimateBytes(t *testing.T) {
	const slack = 16 << 10
	p := scf.Params{K: 256, M: 64}
	type estimatorQ15 interface {
		EstimateQ15(x []complex128) (*scf.QSurface, *scf.Stats, error)
	}
	for _, n := range []int{2048, 8192} {
		x := goldenBand(n, 2)
		for _, est := range []scf.Estimator{
			FAM{Params: p}, SSCA{Params: p},
			FAMQ15{Params: p}, FAMQ15{Params: p, InputPeak: 1.5},
			SSCAQ15{Params: p}, SSCAQ15{Params: p, InputPeak: 1.5},
		} {
			// A Q15 estimate's allocations do not vary from call to call,
			// and SSCA-Q15 at 8192 samples is slow under the race
			// detector, so one call each measures it.
			runs := 10
			if _, ok := est.(estimatorQ15); ok {
				runs = 1
			}
			estimate := func() {
				var err error
				if sinkSurface, sinkStats, err = est.Estimate(x); err != nil {
					t.Fatal(err)
				}
			}
			estimate() // size the free lists
			got := bytesPerRun(runs, estimate)
			want := bytesPerRun(10, func() {
				sinkSurface, sinkStats = scf.NewSurfaceFor(p), q15Stats(scf.Stats{})
			})
			if got > want+slack {
				t.Errorf("%s over %d samples: Estimate allocates %d bytes per call, want at most the surface plus stats (%d) + %d",
					est.Name(), n, got, want, slack)
			}
			eq, ok := est.(estimatorQ15)
			if !ok {
				continue
			}
			got = bytesPerRun(runs, func() {
				var err error
				if sinkQSurface, sinkStats, err = eq.EstimateQ15(x); err != nil {
					t.Fatal(err)
				}
			})
			want = bytesPerRun(10, func() {
				sinkQSurface, sinkStats = scf.NewQSurface(p.M), q15Stats(scf.Stats{})
			})
			if got > want+slack {
				t.Errorf("%s over %d samples: EstimateQ15 allocates %d bytes per call, want at most the QSurface plus stats (%d) + %d",
					est.Name(), n, got, want, slack)
			}
		}
	}
}

// TestQ15WindowSteadyCycleAllocsOnlySurface: once the first window has
// sized its buffers and the fold scratch is on the free list, a
// window-bound Q15 channel's Push/Snapshot/Reset cycle allocates only
// the float surface and stats Snapshot returns: the fold Snapshot runs
// allocates nothing else.
func TestQ15WindowSteadyCycleAllocsOnlySurface(t *testing.T) {
	const window = 2048
	p := scf.Params{K: 64, M: 16}
	x := streamBand(t, window, 19)
	for _, est := range []scf.StreamingEstimator{
		FAMQ15{Params: p, InputPeak: 2},
		SSCAQ15{Params: p, InputPeak: 2},
	} {
		acc, err := est.(scf.WindowEstimator).NewWindowAccumulator(window)
		if err != nil {
			t.Fatal(err)
		}
		cycle := func() {
			for off := 0; off < window; off += 512 {
				if err := acc.Push(x[off : off+512]); err != nil {
					t.Fatal(err)
				}
			}
			if sinkSurface, sinkStats, err = acc.Snapshot(); err != nil {
				t.Fatal(err)
			}
			acc.Reset()
		}
		cycle()
		got := testing.AllocsPerRun(20, cycle)
		want := testing.AllocsPerRun(20, func() {
			sinkSurface, sinkStats = scf.NewSurfaceFor(p), q15Stats(scf.Stats{})
		})
		if got > want {
			t.Errorf("%s: window Push/Snapshot/Reset allocates %v objects per cycle, the float surface plus stats %v",
				est.Name(), got, want)
		}
	}
}

// bytesPerRun returns the heap bytes one call of f allocates, averaged
// over runs calls.
func bytesPerRun(runs int, f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestConcurrentFoldsShareScratch: window accumulators and batch
// estimates folding at once on several goroutines, each with fold
// scratch from the shared free lists, still give the serial bits. The
// FAM hop of 13 makes 128 hops, two blocks, so the odd-hop sums are
// borrowed too. The batch Q15 estimates also run their second stage on
// GOMAXPROCS workers sharing one borrowed scratch.
func TestConcurrentFoldsShareScratch(t *testing.T) {
	const window, goroutines = 2048, 4
	x := streamBand(t, window, 18)
	p := scf.Params{K: 64, M: 16}
	multi := p
	multi.Hop = 13
	ests := []scf.StreamingEstimator{
		FAM{Params: p}, FAM{Params: multi}, SSCA{Params: p},
		FAMQ15{Params: p, InputPeak: 2}, SSCAQ15{Params: p, InputPeak: 2},
	}
	want := make([]*scf.Surface, len(ests))
	for i, est := range ests {
		var err error
		if want[i], _, err = est.Estimate(x); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for i, est := range ests {
					acc, err := est.(scf.WindowEstimator).NewWindowAccumulator(window)
					if err != nil {
						t.Error(err)
						return
					}
					for off := 0; off < window; off += 300 + 100*g {
						if err := acc.Push(x[off:min(off+300+100*g, window)]); err != nil {
							t.Error(err)
							return
						}
					}
					got, _, err := acc.Snapshot()
					if err != nil {
						t.Error(err)
						return
					}
					batch, _, err := est.Estimate(x)
					if err != nil {
						t.Error(err)
						return
					}
					for _, s := range []*scf.Surface{got, batch} {
						if d := scf.MaxAbsDiff(s, want[i]); d != 0 {
							t.Errorf("goroutine %d, %s: surface differs from the serial one by %g", g, est.Name(), d)
							return
						}
					}
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkWindowPushSnapshot times one serving window's Push and
// Snapshot at the paper geometry (K=256, M=64), through the uncapped
// accumulator (buffer the whole window, fold at Snapshot), the
// window-bound one (buffer only the span the snapshot reads, fold it at
// Snapshot), and the window-bound one folding into the α-profile a
// served cfar or fixed decision reads (SnapshotProfile, no surface).
// Samples arrive in 4096-sample chunks, the stream engine's drain size.
// Run with
//
//	go test -run '^$' -bench WindowPushSnapshot -benchmem ./internal/fam
func BenchmarkWindowPushSnapshot(b *testing.B) {
	p := scf.Params{K: 256, M: 64}
	pruned := p
	pruned.AlphaCandidates = []int{16, 32, 11, 40}
	hann := p
	hann.Window = fft.Hann
	cases := []struct {
		name   string
		est    scf.StreamingEstimator
		window int
	}{
		{"fam-full/W=8192", FAM{Params: p}, 8192},
		{"fam-pruned/W=2048", FAM{Params: pruned}, 2048},
		{"ssca/W=2048", SSCA{Params: p}, 2048},
		{"ssca-pruned/W=2048", SSCA{Params: pruned}, 2048},
		{"ssca-hann/W=2048", SSCA{Params: hann}, 2048},
	}
	for _, c := range cases {
		x := goldenBand(c.window, 1)
		for _, mode := range []string{"uncapped", "window", "profile"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				acc, err := c.est.NewAccumulator()
				if mode != "uncapped" {
					acc, err = c.est.(scf.WindowEstimator).NewWindowAccumulator(c.window)
				}
				if err != nil {
					b.Fatal(err)
				}
				var prof scf.Profile
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					acc.Reset()
					for off := 0; off < len(x); off += 4096 {
						if err := acc.Push(x[off:min(off+4096, len(x))]); err != nil {
							b.Fatal(err)
						}
					}
					if mode == "profile" {
						if ok, err := acc.(profileSnapshotter).SnapshotProfile(&prof); !ok || err != nil {
							b.Fatal(ok, err)
						}
					} else if sinkSurface, sinkStats, err = acc.Snapshot(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
