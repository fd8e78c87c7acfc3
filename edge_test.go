package tiledcfd

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"tiledcfd/internal/stream"
)

// TestNonFiniteSamplesRejected: a NaN or infinite sample in either part,
// anywhere in the input, must fail every public entry point with an
// error naming its index — never a silent "vacant" verdict.
func TestNonFiniteSamplesRejected(t *testing.T) {
	const k, m, blocks = 64, 16, 8
	const n = k * blocks
	cfg := Config{K: k, M: m, Blocks: blocks, Estimator: "direct"}
	clean, err := NewNoiseBand(n, 1, 61)
	if err != nil {
		t.Fatal(err)
	}
	entries := map[string]func(x []complex128) error{
		"Sense": func(x []complex128) error {
			_, err := Sense(x, cfg)
			return err
		},
		"Watch": func(x []complex128) error {
			_, err := Watch(x, cfg)
			return err
		},
		"SpectralCorrelation": func(x []complex128) error {
			_, err := SpectralCorrelation(x, cfg)
			return err
		},
		"Monitor.Push": func(x []complex128) error {
			mon, err := NewMonitor(cfg, MonitorOptions{Channels: []string{"ch"}, SnapshotSamples: n})
			if err != nil {
				t.Fatal(err)
			}
			defer mon.Close()
			got, err := mon.Push("ch", x)
			if err != nil && (got != 0 || mon.Stats().SamplesIn != 0) {
				t.Errorf("Monitor.Push accepted %d samples of a rejected block", got)
			}
			return err
		},
		"shardWorkerSink.Push": func(x []complex128) error {
			scfg, err := streamConfig(cfg, MonitorOptions{SnapshotSamples: n})
			if err != nil {
				t.Fatal(err)
			}
			eng, err := stream.New(scfg)
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			if err := eng.AddChannel("ch"); err != nil {
				t.Fatal(err)
			}
			sink := shardWorkerSink{eng: eng, cfg: cfg}
			got, err := sink.Push("ch", x)
			if err != nil && (got != 0 || eng.Stats().SamplesIn != 0) {
				t.Errorf("worker sink accepted %d samples of a rejected block", got)
			}
			return err
		},
	}
	for name, push := range entries {
		if err := push(clean); err != nil {
			t.Fatalf("%s rejected a finite band: %v", name, err)
		}
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for _, imagPart := range []bool{false, true} {
				for _, at := range []int{0, n / 2, n - 1} {
					x := append([]complex128(nil), clean...)
					if imagPart {
						x[at] = complex(real(x[at]), bad)
					} else {
						x[at] = complex(bad, imag(x[at]))
					}
					err := push(x)
					if err == nil {
						t.Errorf("%s accepted %v (imag %v) at sample %d", name, bad, imagPart, at)
						continue
					}
					if want := fmt.Sprintf("sample %d ", at); !strings.Contains(err.Error(), want) {
						t.Errorf("%s: error %q does not name %q", name, err, want)
					}
				}
			}
		}
	}
}
