package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tiledcfd/internal/quant"
)

func TestMedian(t *testing.T) {
	cases := []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	}
	for _, c := range cases {
		if got := median(append([]float64(nil), c.in...)); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestBandPeak(t *testing.T) {
	band := []complex128{complex(0.25, -0.5), complex(-1.75, 0.125), complex(0, 1.5)}
	if got := bandPeak(band); got != 1.75 {
		t.Errorf("bandPeak = %v, want 1.75", got)
	}
	if got := bandPeak(nil); got != 0 {
		t.Errorf("bandPeak(nil) = %v, want 0", got)
	}
}

// TestScenarios runs the whole scenario list once, in order, at a tiny
// geometry and checks that each scenario fills its report section with
// finite values (json.Marshal rejects NaN and Inf).
func TestScenarios(t *testing.T) {
	// K=32, M=8 is the smallest geometry where a pruned surface is both
	// smaller than the full plane and keeps the three off-peak rows CFAR
	// needs. testing.Benchmark reads -test.benchtime, so one iteration
	// per timing keeps the run short.
	const k = 32
	bt := flag.Lookup("test.benchtime")
	prev := bt.Value.String()
	if err := bt.Value.Set("1x"); err != nil {
		t.Fatal(err)
	}
	defer bt.Value.Set(prev)

	e, err := newEnv(k, 8, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	sz := sizes{
		prunedAlpha:      []int{2, 3, 5},
		prunedWindows:    []int{64, 256},
		q15Rounds:        1,
		q15Procs:         []int{1},
		degradedChannels: 2,
		degradedSamples:  1 << 12,
		rocTrials:        4,
	}
	rep := e.newReport()
	checks := map[string]func(t *testing.T) any{
		"batch": func(t *testing.T) any {
			if len(rep.Results) != len(batchNames) {
				t.Errorf("%d batch rows, want %d", len(rep.Results), len(batchNames))
			}
			for _, r := range rep.Results {
				if !(r.NsPerOp > 0) || r.TotalMults <= 0 {
					t.Errorf("%s: ns/op %v, total mults %d", r.Name, r.NsPerOp, r.TotalMults)
				}
			}
			return rep.Results
		},
		"pruned": func(t *testing.T) any {
			if len(rep.Pruned) != len(prunedEstimators)*len(sz.prunedWindows) {
				t.Errorf("%d pruned rows", len(rep.Pruned))
			}
			for _, r := range rep.Pruned {
				if r.MaxAbsDiff != 0 || !(r.Speedup > 0) || r.RowsComputed >= r.RowsFull {
					t.Errorf("%s w=%d: diff %g, speedup %v, rows %d of %d",
						r.Name, r.WindowSamples, r.MaxAbsDiff, r.Speedup, r.RowsComputed, r.RowsFull)
				}
			}
			return rep.Pruned
		},
		"q15-kernel": func(t *testing.T) any {
			if len(rep.Q15Kernel) != len(fixedPairs) {
				t.Errorf("%d q15-kernel rows, want %d", len(rep.Q15Kernel), len(fixedPairs))
			}
			for i, r := range rep.Q15Kernel {
				// The scenario extends the band to its steady-state workload.
				if !r.BitExact || r.Samples != q15KernelBlocks*k || r.GOMAXPROCS != 1 || r.Rounds != 1 ||
					r.Reference != fixedPairs[i].ref {
					t.Errorf("%s: %+v", r.Name, r)
				}
				for _, v := range []float64{r.ScalarNsPerOp, r.SWARNsPerOp, r.FloatNsPerOp, r.KernelSpeedup, r.FixedOverFloat} {
					if !(v > 0) {
						t.Errorf("%s: %+v has a non-positive timing", r.Name, r)
					}
				}
			}
			return rep.Q15Kernel
		},
		"fixed-point": func(t *testing.T) any {
			if len(rep.FixedPoint) != len(fixedPairs) {
				t.Errorf("%d fixed-point rows, want %d", len(rep.FixedPoint), len(fixedPairs))
			}
			return rep.FixedPoint
		},
		"mapping": func(t *testing.T) any {
			if rep.Mapping == nil || len(rep.Mapping.Rows) == 0 {
				t.Fatal("no mapping rows")
			}
			return rep.Mapping
		},
		"degraded": func(t *testing.T) any {
			if d := rep.Degraded; d == nil || d.Failovers == 0 || !(d.SamplesPerSec > 0) {
				t.Fatalf("degraded row %+v", d)
			}
			return rep.Degraded
		},
		"detection": func(t *testing.T) any {
			if rep.Detection == nil || len(rep.Detection.Curves) == 0 {
				t.Fatal("no ROC curves")
			}
			return rep.Detection
		},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			check, ok := checks[sc.name]
			if !ok {
				t.Fatal("scenario has no check")
			}
			if err := sc.run(e, sz, &rep); err != nil {
				t.Fatal(err)
			}
			if _, err := json.Marshal(check(t)); err != nil {
				t.Errorf("section does not encode: %v", err)
			}
		})
	}
}

func TestGates(t *testing.T) {
	q15 := func(name string, procs int, floatNs, swarNs float64) Q15KernelMeasurement {
		return Q15KernelMeasurement{Name: name, GOMAXPROCS: procs, FloatNsPerOp: floatNs,
			SWARNsPerOp: swarNs, FixedOverFloat: swarNs / floatNs}
	}
	roc := &DetectionScenario{ROCReport: quant.ROCReport{Confidence: 0.99},
		PfaFailures: []string{"dg bpsk pfa=0.01"}}
	cases := []struct {
		name string
		gate func(*Report) error
		rep  Report
		trip string // "" = passes
	}{
		{"speedup 0.79 trips", func(r *Report) error { return speedupGate(r, 0.8) },
			Report{Speedup: map[string]float64{"ssca": 0.79, "fam": 1.2, "direct": 0.5}},
			"direct 0.50x, ssca 0.79x"},
		{"speedup 0.80 passes", func(r *Report) error { return speedupGate(r, 0.8) },
			Report{Speedup: map[string]float64{"fam": 0.80}}, ""},
		{"speedup gate off", func(r *Report) error { return speedupGate(r, 0) },
			Report{Speedup: map[string]float64{"fam": 0.1}}, ""},
		{"pruned gates the best row", func(r *Report) error { return prunedGate(r, 7) },
			Report{Pruned: []PrunedMeasurement{{Name: "ssca", ServeSpeedup: 1.1}, {Name: "direct", ServeSpeedup: 7.5}}}, ""},
		{"pruned best below trips", func(r *Report) error { return prunedGate(r, 7) },
			Report{Pruned: []PrunedMeasurement{{Name: "ssca", ServeSpeedup: 1.1}, {Name: "direct", ServeSpeedup: 6.9}}},
			"6.90x (direct)"},
		{"q15 any fam-q15 row trips", func(r *Report) error { return q15Gate(r, 0.5) },
			Report{Q15Kernel: []Q15KernelMeasurement{q15("fam-q15", 1, 100, 190), q15("fam-q15", 2, 100, 210)}},
			"fam-q15@p2 float/fixed ratio 0.48"},
		{"q15 ignores ssca-q15", func(r *Report) error { return q15Gate(r, 0.5) },
			Report{Q15Kernel: []Q15KernelMeasurement{q15("fam-q15", 1, 100, 200), q15("ssca-q15", 1, 100, 900)}}, ""},
		{"roc failures trip", func(r *Report) error { return rocGate(r, true) },
			Report{Detection: roc}, "1 operating point(s) outside the 99% CI: dg bpsk pfa=0.01"},
		{"roc gate off", func(r *Report) error { return rocGate(r, false) },
			Report{Detection: roc}, ""},
	}
	for _, c := range cases {
		err := c.gate(&c.rep)
		switch {
		case c.trip == "" && err != nil:
			t.Errorf("%s: unexpected error %v", c.name, err)
		case c.trip != "" && (err == nil || !strings.Contains(err.Error(), c.trip)):
			t.Errorf("%s: error %v, want one containing %q", c.name, err, c.trip)
		}
	}
}

// TestBaseline checks that a baseline must share the run's geometry: a
// schema-9 report at the benchmark geometry is accepted, any other
// geometry is rejected before a scenario runs, and -fail-below without
// -baseline is an error.
func TestBaseline(t *testing.T) {
	e, err := newEnv(benchK, benchM, benchBlocks, benchSeed)
	if err != nil {
		t.Fatal(err)
	}
	geo := e.newReport().Geometry
	base, err := loadBaseline(filepath.Join("..", "..", "BENCH_10.json"), geo)
	if err != nil {
		t.Fatalf("schema-9 report at the same geometry rejected: %v", err)
	}
	if base.Schema != 9 || len(base.Results) == 0 {
		t.Fatalf("baseline schema %d with %d rows", base.Schema, len(base.Results))
	}

	other := Report{Schema: schema, Geometry: geo}
	other.Geometry.K = 128
	path := filepath.Join(t.TempDir(), "other.json")
	if err := writeJSON(path, other); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "out.json")
	if err := run(options{out: out, baseline: path, failBelow: 0.8}); err == nil ||
		!strings.Contains(err.Error(), "geometry") {
		t.Fatalf("run with a K=128 baseline: %v", err)
	}
	if err := run(options{out: out, failBelow: 0.8}); err == nil ||
		!strings.Contains(err.Error(), "needs -baseline") {
		t.Fatalf("run with -fail-below and no -baseline: %v", err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("a rejected run wrote %s", out)
	}
}
