package quant

import (
	"reflect"
	"testing"
)

// small ROC config: one modulation, both detector families, quick trials.
func smallROC() ROCConfig {
	return ROCConfig{
		Trials:      30,
		Estimators:  []string{"direct", "fam"},
		Detectors:   []string{"dg", "cfar"},
		Modulations: []string{"bpsk"},
		SNRsDB:      []float64{0, 6},
		TargetPfas:  []float64{0.1, 0.2},
		CFARScales:  []float64{2, 3},
		Seed:        5,
	}
}

func TestRunROCStructure(t *testing.T) {
	rep, err := RunROC(smallROC())
	if err != nil {
		t.Fatal(err)
	}
	// One curve per estimator × detector × modulation.
	if want := 2 * 2 * 1; len(rep.Curves) != want {
		t.Fatalf("%d curves, want %d", len(rep.Curves), want)
	}
	if rep.K != 64 || rep.Samples != 4096 || rep.Trials != 30 {
		t.Fatalf("geometry not recorded: %+v", rep)
	}
	for _, c := range rep.Curves {
		wantPoints := 2 // TargetPfas for dg, CFARScales for cfar
		if len(c.Points) != wantPoints {
			t.Fatalf("%s/%s/%s: %d points, want %d", c.Estimator, c.Detector, c.Modulation,
				len(c.Points), wantPoints)
		}
		// Asymptotic detectors record their candidate cycle bins; cfar
		// scans the full surface and leaves AlphaBins empty.
		if c.Detector != "cfar" && len(c.AlphaBins) == 0 {
			t.Fatalf("%s/%s/%s: no alpha bins recorded", c.Estimator, c.Detector, c.Modulation)
		}
		for _, p := range c.Points {
			if len(p.Pd) != len(rep.SNRsDB) {
				t.Fatalf("point Pd length %d, want %d (SNR alignment)", len(p.Pd), len(rep.SNRsDB))
			}
			if p.Threshold <= 0 {
				t.Fatalf("non-positive threshold %v", p.Threshold)
			}
			for _, pd := range p.Pd {
				if pd < 0 || pd > 1 {
					t.Fatalf("Pd %v outside [0,1]", pd)
				}
			}
		}
		// A higher threshold can only lower the measured Pfa and every
		// Pd, Pd does not fall as the SNR rises, and at the top SNR the
		// curve beats chance (Pd > Pfa).
		for i, p := range c.Points {
			if top := p.Pd[len(p.Pd)-1]; top <= p.MeasuredPfa {
				t.Fatalf("%s/%s point %d: Pd %v not above Pfa %v", c.Estimator, c.Detector, i, top, p.MeasuredPfa)
			}
			for j := 1; j < len(p.Pd); j++ {
				if p.Pd[j] < p.Pd[j-1] {
					t.Fatalf("%s/%s point %d: Pd %v falls as the SNR rises", c.Estimator, c.Detector, i, p.Pd)
				}
			}
			if i == 0 {
				continue
			}
			lo, hi := c.Points[i-1], p
			if lo.Threshold > hi.Threshold {
				lo, hi = hi, lo
			}
			if hi.MeasuredPfa > lo.MeasuredPfa {
				t.Fatalf("%s/%s: Pfa %v at threshold %v above %v at %v", c.Estimator, c.Detector,
					hi.MeasuredPfa, hi.Threshold, lo.MeasuredPfa, lo.Threshold)
			}
			for j := range hi.Pd {
				if hi.Pd[j] > lo.Pd[j] {
					t.Fatalf("%s/%s: Pd rises with the threshold at SNR index %d", c.Estimator, c.Detector, j)
				}
			}
		}
		// Lower target Pfa (stricter) must mean a higher threshold; cfar
		// points are ordered by growing scale, so thresholds rise there.
		if c.Detector == "dg" {
			if c.Points[0].TargetPfa >= c.Points[1].TargetPfa {
				t.Fatalf("dg points not in TargetPfas order")
			}
			if c.Points[0].Threshold <= c.Points[1].Threshold {
				t.Fatalf("dg threshold not decreasing in target Pfa: %v then %v",
					c.Points[0].Threshold, c.Points[1].Threshold)
			}
		}
	}
}

// Sample-based detectors decide on the raw window regardless of the
// surface estimator, so their curves must be identical across estimator
// tags — the documented sharing, asserted.
func TestRunROCSampleCurvesEstimatorInvariant(t *testing.T) {
	rep, err := RunROC(smallROC())
	if err != nil {
		t.Fatal(err)
	}
	var direct, famc *ROCCurve
	for i := range rep.Curves {
		c := &rep.Curves[i]
		if c.Detector != "dg" {
			continue
		}
		switch c.Estimator {
		case "direct":
			direct = c
		case "fam":
			famc = c
		}
	}
	if direct == nil || famc == nil {
		t.Fatal("missing dg curves")
	}
	if !reflect.DeepEqual(direct.Points, famc.Points) {
		t.Fatal("dg curves differ across estimator tags; sample-based decisions must be estimator-invariant")
	}
}

func TestRunROCDeterministic(t *testing.T) {
	a, err := RunROC(smallROC())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunROC(smallROC())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same config and seed produced different reports")
	}
}

func TestRunROCUnknownNames(t *testing.T) {
	cfg := smallROC()
	cfg.Detectors = []string{"nope"}
	if _, err := RunROC(cfg); err == nil {
		t.Error("unknown detector accepted")
	}
	cfg = smallROC()
	cfg.Modulations = []string{"fm"}
	if _, err := RunROC(cfg); err == nil {
		t.Error("unknown modulation accepted")
	}
}

// TestRunROCRejectsBadRuns: fewer than two trials per hypothesis is an
// error, and so is a detector that fails on a window (here one shorter
// than the estimation geometry); neither yields a report.
func TestRunROCRejectsBadRuns(t *testing.T) {
	cfg := smallROC()
	cfg.Trials = 1
	if _, err := RunROC(cfg); err == nil {
		t.Error("one trial accepted")
	}
	for _, det := range []string{"dg", "cfar"} {
		cfg = smallROC()
		cfg.Detectors = []string{det}
		cfg.Samples = 8
		if rep, err := RunROC(cfg); err == nil {
			t.Errorf("%s: detector error on an 8-sample window not returned (%d curves)", det, len(rep.Curves))
		}
	}
}

func TestPfaAccuracy(t *testing.T) {
	rep := &ROCReport{Curves: []ROCCurve{{
		Estimator: "direct", Detector: "dg", Modulation: "bpsk",
		Points: []ROCPoint{
			{TargetPfa: 0.05, MeasuredPfa: 0.06, PfaWithinCI: true},
			{TargetPfa: 0.1, MeasuredPfa: 0.2, PfaWithinCI: false},
			{MeasuredPfa: 0.5, PfaWithinCI: true}, // cfar-style point: no target, skipped
		},
	}}}
	worst, failures := rep.PfaAccuracy()
	if worst < 0.0999 || worst > 0.1001 {
		t.Errorf("worst error %v, want 0.1", worst)
	}
	if len(failures) != 1 {
		t.Fatalf("%d failures, want 1: %v", len(failures), failures)
	}
}
