package tiledcfd

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
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

// TestShardWorkerCountsNonFiniteSamples: a block holding a NaN, pushed
// over the wire straight at a ShardWorker, is rejected whole. Its
// samples show in Stats().SamplesNonFinite and none reach the engine.
func TestShardWorkerCountsNonFiniteSamples(t *testing.T) {
	w, err := NewShardWorker(Config{K: 64, M: 16, Estimator: "fam"},
		ShardWorkerOptions{SnapshotSamples: 2048, Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	c, err := wire.Dial(w.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(wire.Meta{ID: "ch", Format: wire.FormatCF64})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]complex128, 300)
	block[7] = complex(math.NaN(), 0)
	if err := cs.Send(block); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for w.Stats().SamplesNonFinite == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if st := w.Stats(); st.SamplesNonFinite != int64(len(block)) || st.SamplesIn != 0 {
		t.Fatalf("SamplesNonFinite = %d, SamplesIn = %d; want %d rejected and none accepted",
			st.SamplesNonFinite, st.SamplesIn, len(block))
	}
}
