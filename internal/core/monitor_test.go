package core

import (
	"math"
	"testing"

	"tiledcfd/internal/sig"
	"tiledcfd/internal/soc"
)

func monitorConfig() Config {
	return Config{
		SoC:     soc.Config{K: 64, M: 16, Q: 2, Blocks: 16},
		Decider: fixedDecider(),
	}
}

func TestMonitorTracksAppearingUser(t *testing.T) {
	// Stream: 2 idle windows, then 2 windows with a licensed user.
	m, err := NewMonitor(monitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := m.WindowSamples()
	if w != 64*16 {
		t.Fatalf("window samples %d", w)
	}
	rng := sig.NewRand(81)
	stream := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, 2*w)
	b := &sig.BPSK{Amp: 1, Carrier: 8.0 / 64, SymbolLen: 8, Rng: rng}
	user := sig.Samples(b, 2*w)
	noise2 := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, 2*w)
	for i := range user {
		user[i] += noise2[i]
	}
	stream = append(stream, user...)

	decisions, err := m.Process(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 4 {
		t.Fatalf("windows %d, want 4", len(decisions))
	}
	for i := 0; i < 2; i++ {
		if decisions[i].Decision.Detected {
			t.Fatalf("false alarm in idle window %d (stat %v)", i, decisions[i].Decision.Statistic)
		}
	}
	for i := 2; i < 4; i++ {
		if !decisions[i].Decision.Detected {
			t.Fatalf("missed user in window %d (stat %v)", i, decisions[i].Decision.Statistic)
		}
	}
	if got := OccupancyRatio(decisions); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("occupancy %v, want 0.5", got)
	}
}

func TestMonitorDropsPartialWindow(t *testing.T) {
	m, err := NewMonitor(monitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	w := m.WindowSamples()
	rng := sig.NewRand(82)
	stream := sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: rng}, w+w/2)
	decisions, err := m.Process(stream)
	if err != nil {
		t.Fatal(err)
	}
	if len(decisions) != 1 {
		t.Fatalf("windows %d, want 1 (partial dropped)", len(decisions))
	}
}

func TestMonitorErrors(t *testing.T) {
	if _, err := NewMonitor(Config{SoC: soc.Config{K: 256, M: 64, Q: 1}}); err == nil {
		t.Error("infeasible config should fail")
	}
	m, err := NewMonitor(monitorConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Process(make([]complex128, 10)); err == nil {
		t.Error("short stream should fail")
	}
	// A window of pure zeros makes quantisation produce a zero surface;
	// the statistic step must surface the error with the window index.
	if _, err := m.Process(make([]complex128, m.WindowSamples())); err == nil {
		t.Error("all-zero window should fail with a window-indexed error")
	}
}

func TestOccupancyRatioEmpty(t *testing.T) {
	if OccupancyRatio(nil) != 0 {
		t.Fatal("empty occupancy should be 0")
	}
}
