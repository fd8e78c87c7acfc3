package main

import (
	"fmt"

	"tiledcfd"
	"tiledcfd/internal/detect"
	"tiledcfd/internal/fam"
	"tiledcfd/internal/scf"
)

// Geometry shared by every workload: the paper's K=256 channelizer and
// M=64 grid half-extent.
const (
	geomK = 256
	geomM = 64
)

// Workload kinds.
const (
	kindWire   = "wire"   // TCP clients → wire.Server → shard.Router → engines
	kindStream = "stream" // generator → stream.Engine in process
	kindBatch  = "batch"  // closed loop over tiledcfd.Sense
)

// workload is one benchmark input set. Rates and SNRs are frozen: they
// were calibrated once against the commit that introduced the benchmark
// (README.md, "Calibration record") and are never derived at run time.
type workload struct {
	name, why string
	kind      string
	// channels is the number of monitored channels; even channels carry
	// BPSK, odd ones noise only. For the batch workload it is unused.
	channels int
	// conns is the number of TCP connections the channels share (wire
	// only); it must not exceed the host's CPU count.
	conns int
	// window is W, the samples per decision window (the band length for
	// the batch workload).
	window int
	// rate is the open-loop offered load in samples/s over all channels.
	rate float64
	// snrDB is the BPSK-in-noise SNR of the occupied channels or bands.
	snrDB float64
	// pool is the number of distinct windows generated per occupied
	// channel, and noisePool per noise-only channel; streams cycle through
	// them. pd and pfa are computed over the first pool (noisePool)
	// windows of each channel. Occupied channels get the larger pool
	// because pd is an end-to-end metric: its seed-to-seed spread shrinks
	// with the windows it counts. The batch workload has pool occupied
	// and noisePool noise-only bands.
	pool, noisePool int
	// ring is each channel's ingestion ring (stream.Config.RingSamples,
	// cfdserve -ring), sized to hold over half a second of the channel's
	// open-loop samples so a stall of the shared host rarely holds the
	// generator back.
	ring int
	// openChunk is the samples sent per channel per open-loop tick;
	// satChunk the samples per push in the saturation phase. Both divide
	// window or are multiples of it.
	openChunk, satChunk int
	// estimator is "fam" or "ssca" for the streaming workloads, "fam-q15"
	// for the batch one; alphas the alpha-candidate set (nil = full plane).
	estimator string
	alphas    []int
	// detector and targetPfa select the decision layer.
	detector  string
	targetPfa float64
}

// workloads is the benchmark's workload table, in the order -workload all
// runs them. BENCHMARK.json lists the same names.
var workloads = []*workload{
	{
		name:      "wire-fam",
		why:       "The only workload with wire decode and shard routing; full-plane FAM does the rest, so ingestion and FAM changes show here.",
		kind:      kindWire,
		channels:  16,
		conns:     2,
		window:    8192,
		rate:      1.6e6,
		snrDB:     -2.5,
		pool:      128,
		noisePool: 32,
		ring:      8 * 8192,
		openChunk: 512,
		satChunk:  4096,
		estimator: "fam",
		detector:  "cfar",
	},
	{
		name:      "stream-ssca",
		why:       "SSCA strip FFTs take most of the CPU and wire and shard are bypassed: moves with SSCA work, flat for ingestion changes.",
		kind:      kindStream,
		channels:  4,
		conns:     0,
		window:    2048,
		rate:      0.08e6,
		snrDB:     4.8,
		pool:      512,
		noisePool: 128,
		ring:      8 * 2048,
		openChunk: 256,
		satChunk:  2048,
		estimator: "ssca",
		detector:  "cfar",
	},
	{
		name:      "stream-pruned-dg",
		why:       "Same FAM code used pruned: channelizer floor, the sample-based dg decider and per-decision engine overhead dominate.",
		kind:      kindStream,
		channels:  16,
		conns:     0,
		window:    2048,
		rate:      1.5e6,
		snrDB:     -3.0,
		pool:      256,
		noisePool: 64,
		ring:      32 * 2048,
		openChunk: 256,
		satChunk:  2048,
		estimator: "fam",
		alphas:    []int{16, 32, 11, 40},
		detector:  "dg",
		targetPfa: 0.01,
	},
	{
		name:      "sense-batch",
		why:       "The only workload on the batch fam-q15 body, its worker pool, the core glue and the Q15/SWAR kernels; streaming bypasses them.",
		kind:      kindBatch,
		window:    8192,
		snrDB:     -2.5,
		pool:      1536,
		noisePool: 256,
		estimator: "fam-q15",
		detector:  "cfar",
	},
}

// findWorkload returns the named workload.
func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v or all)", name, names)
}

// params is the estimation geometry of the workload.
func (w *workload) params() scf.Params {
	p := scf.Params{K: geomK, M: geomM}
	if w.kind == kindBatch {
		p.Blocks = w.window / geomK
	}
	return p
}

// streamingEstimator builds a fresh, undecorated estimator for the
// streaming workloads. Pruning is applied by the engine (Config.
// AlphaCandidates) or, for the reference path, by referenceEstimator.
func (w *workload) streamingEstimator() scf.StreamingEstimator {
	if w.estimator == "ssca" {
		return fam.SSCA{Params: w.params()}
	}
	return fam.FAM{Params: w.params()}
}

// referenceEstimator is the batch estimator whose Estimate over one
// window must equal the engine's snapshot of that window bit for bit.
func (w *workload) referenceEstimator() (scf.Estimator, error) {
	if w.kind == kindBatch {
		return fam.FAMQ15{Params: w.params()}, nil
	}
	est := w.streamingEstimator()
	if len(w.alphas) == 0 {
		return est, nil
	}
	ce, ok := est.(scf.CandidateEstimator)
	if !ok {
		return nil, fmt.Errorf("%s: estimator %s cannot prune", w.name, est.Name())
	}
	return ce.WithAlphaCandidates(w.alphas)
}

// newDecider builds a fresh, undecorated decision layer.
func (w *workload) newDecider() (detect.Decider, error) {
	p := w.params()
	p.AlphaCandidates = w.alphas
	return detect.NewDecider(w.detector, detect.DeciderParams{
		Scf:       p,
		MinAbsA:   2,
		TargetPfa: w.targetPfa,
	})
}

// senseConfig is the public-API configuration of the batch workload.
func (w *workload) senseConfig() tiledcfd.Config {
	return tiledcfd.Config{
		Estimator: w.estimator,
		Detector:  w.detector,
		K:         geomK,
		M:         geomM,
		Blocks:    w.window / geomK,
	}
}

// occupied reports whether channel (or band) i carries a BPSK user.
func occupied(i int) bool { return i%2 == 0 }

// poolOf returns the distinct windows of streaming channel i.
func (w *workload) poolOf(i int) int {
	if occupied(i) {
		return w.pool
	}
	return w.noisePool
}

// carrier is channel i's normalised BPSK carrier, spread across the band
// as in the cfdserve selftest.
func carrier(i int) float64 { return float64(4+3*(i%8)) / geomK }

// subSeed derives channel i's generator seed from the run seed.
func subSeed(seed uint64, i int) uint64 {
	x := seed*0x9E3779B97F4A7C15 + uint64(i+1)*0xBF58476D1CE4E5B9
	x ^= x >> 31
	return x
}

// genSignal returns n samples of channel i's input: BPSK at the
// workload's SNR on even channels, unit-power noise on odd ones. Samples
// are stored as complex64, so the cf32 wire encoding is lossless and the
// reference recompute sees exactly the engine's input.
func genSignal(w *workload, seed uint64, i, n int) ([]complex64, error) {
	var x []complex128
	var err error
	if occupied(i) {
		x, err = tiledcfd.NewBPSKBand(n, carrier(i), 8, w.snrDB, subSeed(seed, i))
	} else {
		x, err = tiledcfd.NewNoiseBand(n, 1, subSeed(seed, i))
	}
	if err != nil {
		return nil, fmt.Errorf("%s: generating channel %d: %w", w.name, i, err)
	}
	out := make([]complex64, n)
	for k, v := range x {
		out[k] = complex64(v)
	}
	return out, nil
}

// genInputs returns the per-channel sample pools of a streaming workload
// ([channel][pool·window], noisePool on noise-only channels).
func genInputs(w *workload, seed uint64) ([][]complex64, error) {
	out := make([][]complex64, w.channels)
	for i := range out {
		x, err := genSignal(w, seed, i, w.poolOf(i)*w.window)
		if err != nil {
			return nil, err
		}
		out[i] = x
	}
	return out, nil
}

// bandSignal returns the signal index (see occupied and carrier) of batch
// band b: the occupied bands take the even indices, the noise bands the
// odd ones.
func (w *workload) bandSignal(b int) int {
	if b < w.pool {
		return 2 * b
	}
	return 2*(b-w.pool) + 1
}

// widen copies n samples of the cyclic pool starting at absolute stream
// index from into dst (grown as needed) as complex128.
func widen(dst []complex128, pool []complex64, from int64, n int) []complex128 {
	dst = dst[:0]
	off := int(from % int64(len(pool)))
	for len(dst) < n {
		end := off + n - len(dst)
		if end > len(pool) {
			end = len(pool)
		}
		for _, v := range pool[off:end] {
			dst = append(dst, complex128(v))
		}
		off = 0
	}
	return dst
}
