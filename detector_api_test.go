package tiledcfd

import (
	"math"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestDetectorNames(t *testing.T) {
	want := []string{"cfar", "fixed", "dg", "urriza"}
	if got := DetectorNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("DetectorNames() = %v, want %v", got, want)
	}
}

// An empty Config.Detector with a positive Threshold resolves to the
// "fixed" registry entry; naming "fixed" explicitly must make the same
// decision on the same samples, under the same label.
func TestSenseLegacyThresholdEquivalence(t *testing.T) {
	const k, m, blocks = 64, 16, 8
	x, err := NewBPSKBand(k*blocks, 8.0/k, 8, 10, 21)
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Sense(x, Config{K: k, M: m, Blocks: blocks, Estimator: "direct", Threshold: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	named, err := Sense(x, Config{K: k, M: m, Blocks: blocks, Estimator: "direct",
		Threshold: 0.3, Detector: "fixed"})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Detector != "fixed" {
		t.Errorf("legacy label = %q, want fixed", legacy.Detector)
	}
	if named.Detector != "fixed" {
		t.Errorf("registry label = %q, want fixed", named.Detector)
	}
	if legacy.Detected != named.Detected || legacy.Statistic != named.Statistic ||
		legacy.Threshold != named.Threshold {
		t.Errorf("decisions diverge: legacy %v/%v/%v, fixed %v/%v/%v",
			legacy.Detected, legacy.Statistic, legacy.Threshold,
			named.Detected, named.Statistic, named.Threshold)
	}
}

// Sense with the dg detector: closed-form thresholding on the sample
// window, no Threshold knob involved.
func TestSenseDGDetector(t *testing.T) {
	const k, m, blocks = 64, 16, 32
	cfg := Config{K: k, M: m, Blocks: blocks, Estimator: "direct",
		AlphaCandidates: []int{8, 4}, Detector: "dg"}
	busy, err := NewBPSKBand(k*blocks, 8.0/k, 8, 6, 23)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Sense(busy, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Detector != "dg" {
		t.Errorf("Detector = %q, want dg", s.Detector)
	}
	if !s.Detected {
		t.Errorf("BPSK at 6 dB not detected: statistic %v threshold %v", s.Statistic, s.Threshold)
	}
	if s.Threshold <= 0 {
		t.Errorf("closed-form threshold %v not positive", s.Threshold)
	}
	idle, err := NewNoiseBand(k*blocks, 1, 24)
	if err != nil {
		t.Fatal(err)
	}
	s, err = Sense(idle, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s.Detected {
		t.Errorf("idle band flagged: statistic %v threshold %v", s.Statistic, s.Threshold)
	}
}

func TestSenseDetectorErrors(t *testing.T) {
	x, err := NewNoiseBand(64*8, 1, 25)
	if err != nil {
		t.Fatal(err)
	}
	// The asymptotic detectors need a cycle set under test.
	_, err = Sense(x, Config{K: 64, M: 16, Blocks: 8, Estimator: "direct", Detector: "dg"})
	if err == nil {
		t.Error("dg accepted without AlphaCandidates")
	} else if !strings.Contains(err.Error(), "alpha candidates") {
		t.Errorf("dg error %q does not explain the missing cycle set", err)
	}
	// Unknown names fail with the registry enumerated, tiledcfd-prefixed.
	_, err = Sense(x, Config{K: 64, M: 16, Blocks: 8, Estimator: "direct", Detector: "bayes"})
	if err == nil {
		t.Fatal("unknown detector accepted")
	}
	msg := err.Error()
	if !strings.HasPrefix(msg, "tiledcfd:") || !strings.Contains(msg, `unknown detector "bayes"`) {
		t.Errorf("error %q lacks the tiledcfd prefix or the bad name", msg)
	}
	for _, name := range DetectorNames() {
		if !strings.Contains(msg, name) {
			t.Errorf("error %q does not list registered detector %q", msg, name)
		}
	}
}

// A Monitor built with an asymptotic detector must stamp its decisions
// with the detector name and the configured target Pfa — the fields a
// downstream consumer needs to interpret the verdict.
func TestMonitorDecisionCarriesDetector(t *testing.T) {
	const k, m = 64, 16
	mon, err := NewMonitor(
		Config{K: k, M: m, Blocks: 8, Estimator: "direct",
			AlphaCandidates: []int{8, 4}, Detector: "dg", TargetPfa: 0.1},
		MonitorOptions{Channels: []string{"ch"}, SnapshotSamples: 2048},
	)
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	x, err := NewBPSKBand(2048, 8.0/k, 8, 6, 29)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mon.Push("ch", x); err != nil {
		t.Fatal(err)
	}
	if err := mon.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	select {
	case d := <-mon.Decisions():
		if d.Detector != "dg" {
			t.Errorf("decision detector = %q, want dg", d.Detector)
		}
		if d.TargetPfa != 0.1 {
			t.Errorf("decision target Pfa = %v, want 0.1", d.TargetPfa)
		}
		if !d.Detected {
			t.Errorf("BPSK at 6 dB not detected: statistic %v threshold %v", d.Statistic, d.Threshold)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no decision after flush")
	}
}

// TestSenseAndMonitorAgree: Config alone decides the verdict. For every
// empty-Detector config and every named detector, Sense on one window
// and a one-shard Monitor decision over the same samples must agree on
// the detector, the verdict and the statistic bits.
func TestSenseAndMonitorAgree(t *testing.T) {
	const k, m, blocks = 64, 16, 8
	const window = k * blocks
	base := Config{K: k, M: m, Blocks: blocks, Estimator: "direct"}
	cases := []struct {
		name string
		mod  func(*Config)
		want string
	}{
		{"empty/threshold-0", func(*Config) {}, "cfar"},
		{"empty/threshold-0.3", func(c *Config) { c.Threshold = 0.3 }, "fixed"},
		{"cfar", func(c *Config) { c.Detector = "cfar" }, "cfar"},
		{"fixed", func(c *Config) { c.Detector, c.Threshold = "fixed", 0.3 }, "fixed"},
		{"dg", func(c *Config) { c.Detector, c.AlphaCandidates = "dg", []int{8, 4} }, "dg"},
	}
	noise, err := NewNoiseBand(window, 1, 71)
	if err != nil {
		t.Fatal(err)
	}
	busy, err := NewBPSKBand(window, 8.0/k, 8, 6, 72)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range cases {
		cfg := base
		tc.mod(&cfg)
		for band, x := range map[string][]complex128{"noise": noise, "bpsk": busy} {
			s, err := Sense(x, cfg)
			if err != nil {
				t.Fatalf("%s/%s: Sense: %v", tc.name, band, err)
			}
			d := monitorDecision(t, cfg, x)
			if s.Detector != tc.want || d.Detector != tc.want {
				t.Errorf("%s/%s: detectors Sense %q, Monitor %q, want %q",
					tc.name, band, s.Detector, d.Detector, tc.want)
			}
			if s.Detected != d.Detected || math.Float64bits(s.Statistic) != math.Float64bits(d.Statistic) {
				t.Errorf("%s/%s: Sense %v/%v, Monitor %v/%v", tc.name, band,
					s.Detected, s.Statistic, d.Detected, d.Statistic)
			}
		}
	}
}

// monitorDecision runs x through a one-shard Monitor as one window and
// returns its decision.
func monitorDecision(t *testing.T, cfg Config, x []complex128) MonitorDecision {
	t.Helper()
	mon, err := NewMonitor(cfg, MonitorOptions{
		Channels: []string{"ch"}, SnapshotSamples: len(x), Backpressure: true})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if _, err := mon.Push("ch", x); err != nil {
		t.Fatal(err)
	}
	if err := mon.Flush(5 * time.Second); err != nil {
		t.Fatal(err)
	}
	cs, ok := mon.ChannelStats("ch")
	if !ok || cs.Last == nil {
		t.Fatalf("no decision: %+v", cs)
	}
	return *cs.Last
}
