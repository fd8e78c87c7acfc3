package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"tiledcfd"
)

// openPhase is the record of an open-loop phase.
type openPhase struct {
	ol        *openLoop
	latNs     []float64 // due → receipt, windows due after the warm-up
	dueS      []float64 // their due times, seconds into the phase
	due       int64     // windows whose samples were all offered
	failed    int64     // of those, windows with no exact decision
	heapLive  []float64 // live heap of every GC cycle in the phase
	queuePeak int64
	// cpuPerMsample is busy CPU seconds per offered Msample, a
	// diagnostic kept out of the end-to-end set for its spread.
	cpuPerMsample float64
}

// latencies returns the median latency (ns) of every latencySlice of
// windows, by due time.
func (p *openPhase) latencies() []float64 {
	return sliceMedians(p.dueS, p.latNs, latencySlice, 5)
}

// openLoopPhase builds a Block-mode system and offers the frozen rate for
// dur. Backpressure instead of drop mode keeps a stall of the shared host
// from discarding samples: the generator falls behind its ticks, which the
// latency of the windows then due shows, and every window stays exact. A
// window fails when it is due but gets no decision, or when its channel
// dropped samples anyway.
func openLoopPhase(w *workload, pools [][]complex64, dur, warmup time.Duration, tr *tracer) (*openPhase, error) {
	sys, err := newSystem(w, sysOpts{tr: tr})
	if err != nil {
		return nil, err
	}
	c := sys.collect(tr)
	sp := startSampler(func() int64 { return sys.counters().queued })
	rt0 := readRuntime()
	ol, err := sys.runOpenLoop(pools, w.rate, dur, tr)
	rt1 := readRuntime()
	sp.finish()
	if err != nil {
		sys.shutdown(c)
		return nil, err
	}
	p := &openPhase{ol: ol, queuePeak: sp.queuePeak}
	var offered int64
	for _, n := range ol.sent {
		offered += n
		p.due += n / int64(w.window)
	}
	p.cpuPerMsample = busyCPUPerMsample(rt0, rt1, offered)
	if err := sys.settle(offered, 30*time.Second); err != nil {
		sys.shutdown(c)
		return nil, err
	}
	c.waitFor(p.due, 30*time.Second)
	// One more heap reading with every decision in and a forced
	// collection, so the phase has a GC cycle holding its state even when
	// none happened to run during it.
	runtime.GC()
	p.heapLive = append(sp.cycleLive, float64(liveHeap()))
	dropped := make([]int64, len(sys.ids))
	for ch := range dropped {
		_, dropped[ch] = sys.channelCounts(ch)
	}
	sys.shutdown(c)
	for ch, recs := range c.per {
		due := ol.sent[ch] / int64(w.window)
		if dropped[ch] > 0 {
			p.failed += due
			continue
		}
		p.failed += max(0, due-int64(len(recs)))
		for _, d := range recs {
			t := ol.dueOf(ch, d.total)
			if t.Sub(ol.t0) >= warmup {
				p.latNs = append(p.latNs, float64(d.at.Sub(t)))
				p.dueS = append(p.dueS, t.Sub(ol.t0).Seconds())
			}
		}
	}
	return p, nil
}

// satPhase is the record of a saturation phase.
type satPhase struct {
	window         int
	sat            *saturation
	per            [][]decRec
	errs           []string
	rt0, rt1       runtimeCounters
	bytesPerSample float64
	skew           float64
}

// capacities returns the decided samples per second, in Msample/s, of
// every group of rateGroups consecutive decisions.
func (p *satPhase) capacities() []float64 {
	var at []time.Time
	for _, recs := range p.per {
		for _, d := range recs {
			at = append(at, d.at)
		}
	}
	sort.Slice(at, func(i, j int) bool { return at[i].Before(at[j]) })
	rates := groupRates(p.sat.start, at, float64(p.window), rateGroups)
	for i := range rates {
		rates[i] /= 1e6
	}
	return rates
}

func (p *satPhase) windows() int64 {
	var n int64
	for _, recs := range p.per {
		n += int64(len(recs))
	}
	return n
}

// saturationPhase builds a system, saturates it and runs the correctness
// gate over the phase.
func saturationPhase(w *workload, pools [][]complex64, minDur time.Duration, wholePools bool, o sysOpts) (*satPhase, error) {
	sys, err := newSystem(w, o)
	if err != nil {
		return nil, err
	}
	c := sys.collect(o.tr)
	p := &satPhase{window: w.window, rt0: readRuntime()}
	sat, err := sys.runSaturation(pools, c, minDur, wholePools, o.tr)
	p.rt1 = readRuntime()
	if err != nil {
		sys.shutdown(c)
		return nil, err
	}
	p.sat = sat
	a := sys.account(sat)
	if sys.srv != nil {
		p.bytesPerSample = float64(sys.srv.Metrics.BytesIn.Load()) / float64(sys.srv.Metrics.SamplesIn.Load())
		var most, sum float64
		shards := sys.router.ShardStats()
		for _, s := range shards {
			n := float64(s.Stats.SamplesIn)
			most = max(most, n)
			sum += n
		}
		p.skew = most / (sum / float64(len(shards)))
	}
	sys.shutdown(c)
	p.per = c.per
	if c.unknown > 0 {
		p.errs = append(p.errs, fmt.Sprintf("%s: %d decisions for unknown channels", w.name, c.unknown))
	}
	p.errs = append(p.errs, checkSaturation(w, a, c.per, pools)...)
	return p, nil
}

// runStreamingWorkload measures a streaming workload. Untraced: an
// open-loop phase (half the run) for heap and failed windows, then a
// saturation phase (the other half, and at least the pool's windows) for
// pd and the correctness gate. Traced: an untraced saturation quarter
// (capacity, the capacity the tracing overhead is measured against, and
// the runtime, wire and shard counters), a traced open-loop half for
// latency and the span breakdown, and a traced saturation quarter.
func runStreamingWorkload(w *workload, seed uint64, dur time.Duration, traced bool, probe func() error) (*outcome, error) {
	if err := callProbe(probe); err != nil {
		return nil, err
	}
	pools, err := genInputs(w, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	base := liveHeap()
	out := &outcome{values: map[string]float64{}}
	warmup := dur / 10
	if !traced {
		op, err := openLoopPhase(w, pools, dur/2, warmup, nil)
		if err != nil {
			return nil, err
		}
		if err := callProbe(probe); err != nil {
			return nil, err
		}
		sp, err := saturationPhase(w, pools, dur/2, true, sysOpts{})
		if err != nil {
			return nil, err
		}
		if err := callProbe(probe); err != nil {
			return nil, err
		}
		pd, pfa := detectionRates(w, sp.per)
		timedMetrics(out.values, sp.capacities(), op.latencies())
		heapStats(out.values, op.heapLive, base)
		out.values["pd"] = pd
		out.values["pfa"] = pfa
		out.values["latency_p99_ms"] = percentile(op.latNs, 0.99) / 1e6
		out.values["gen_lag_p99_ms"] = percentile(op.ol.lagNs, 0.99) / 1e6
		out.values["latency_windows"] = float64(len(op.latNs))
		out.values["cpu_s_per_msample"] = op.cpuPerMsample
		out.attempted = op.due + sp.windows()
		out.failed = op.failed
		out.errs = sp.errs
		return out, nil
	}

	spA, err := saturationPhase(w, pools, dur/4, false, sysOpts{})
	if err != nil {
		return nil, err
	}
	tr := newTracer(w.window)
	op, err := openLoopPhase(w, pools, dur/2, warmup, tr)
	if err != nil {
		return nil, err
	}
	v := out.values
	for _, d := range perLayer {
		v[d.name] = 0
	}
	timedMetrics(v, spA.capacities(), op.latencies())
	v["client.gen_lag_p99_ms"] = percentile(op.ol.lagNs, 0.99) / 1e6
	v["client.latency_p99_ms"] = percentile(op.latNs, 0.99) / 1e6
	v["stream.queue_peak_samples"] = float64(op.queuePeak)
	keys, chains := tr.chains(w.kind == kindWire)
	var transit, ring, emit, unattr []float64
	var spans []windowSpans
	for i, c := range chains {
		k := keys[i]
		if op.ol.dueOf(k.ch, k.end).Sub(op.ol.t0) < warmup {
			continue
		}
		transit = append(transit, c.Transit)
		ring = append(ring, c.RingWait)
		emit = append(emit, c.Emit)
		unattr = append(unattr, c.Unattributed/c.E2E)
		spans = append(spans, windowSpans{Channel: k.ch, End: k.end, Chain: c})
	}
	v["stream.ring_wait_p50_ms"] = median(ring) / 1e6
	v["stream.emit_p50_us"] = median(emit) / 1e3
	v["trace.unattributed_frac"] = median(unattr)
	v["fam.snapshot_p50_us"] = median(tr.snapDur.values()) / 1e3
	v["detect.decide_p50_us"] = median(tr.decDur.values()) / 1e3
	v["fam.mults_per_window"] = float64(tr.mults.Load())
	v["fam.model_cycles_per_window"] = float64(tr.cycles.Load())
	if w.kind == kindWire {
		v["wire.send_us_per_frame"] = float64(tr.sendNs.Load()) / float64(tr.sendFrames.Load()) / 1e3
		v["wire.transit_p50_ms"] = median(transit) / 1e6
		v["shard.push_p50_us"] = median(tr.sinkDur.values()) / 1e3
		v["wire.bytes_per_sample"] = spA.bytesPerSample
		v["shard.skew"] = spA.skew
	}
	_, pfa := detectionRates(w, spA.per)
	v["detect.pfa"] = pfa
	v["runtime.alloc_mb_per_msample"] = allocMBPerMsample(spA.rt0, spA.rt1, spA.sat.samples())
	v["runtime.gc_cpu_frac"] = gcCPUFrac(spA.rt0, spA.rt1)

	tr.reset()
	spC, err := saturationPhase(w, pools, dur/4, false, sysOpts{tr: tr})
	if err != nil {
		return nil, err
	}
	v["fam.push_ns_per_sample"] = float64(tr.accNs.Load()) / float64(tr.accSamples.Load())
	v["trace.overhead_frac"] = 1 - median(spC.capacities())/median(spA.capacities())
	out.attempted = op.due + spA.windows() + spC.windows()
	out.failed = op.failed
	out.errs = append(spA.errs, spC.errs...)
	out.spans = spans
	return out, nil
}

// windowSpans is one window of the trace file: its spans in nanoseconds.
type windowSpans struct {
	Channel int   `json:"channel"`
	End     int64 `json:"end"`
	Chain   chain `json:"spans_ns"`
}

// runBatchWorkload measures the batch workload: every band is checked
// once, then Sense runs back to back over the loop bands for the run
// (untraced), or for half of it untraced and half with the per-layer
// probes between calls.
func runBatchWorkload(w *workload, seed uint64, dur time.Duration, traced bool, probe func() error) (*outcome, error) {
	if err := callProbe(probe); err != nil {
		return nil, err
	}
	pd, pfa, bands, errs, err := checkBands(w, seed)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	out := &outcome{values: map[string]float64{}, errs: errs}
	v := out.values
	if !traced {
		if err := callProbe(probe); err != nil {
			return nil, err
		}
		l, err := runSenseLoop(w, bands, dur, false)
		if err != nil {
			return nil, err
		}
		if err := callProbe(probe); err != nil {
			return nil, err
		}
		heap, err := callHeap(w, bands)
		if err != nil {
			return nil, err
		}
		timedMetrics(v, l.capacities(w), l.latencies())
		v["heap_mb"] = heap / 1e6
		v["pd"] = pd
		v["pfa"] = pfa
		v["latency_p99_ms"] = percentile(l.latNs, 0.99) / 1e6
		out.attempted = int64(w.pool+w.noisePool) + l.calls
		out.failed = l.failed
		return out, nil
	}
	rt0 := readRuntime()
	la, err := runSenseLoop(w, bands, dur/2, false)
	rt1 := readRuntime()
	if err != nil {
		return nil, err
	}
	lb, err := runSenseLoop(w, bands, dur/2, true)
	if err != nil {
		return nil, err
	}
	for _, d := range perLayer {
		v[d.name] = 0
	}
	timedMetrics(v, la.capacities(w), la.latencies())
	est, dec, sense := median(lb.estNs), median(lb.decNs), median(lb.latNs)
	v["client.latency_p99_ms"] = percentile(lb.latNs, 0.99) / 1e6
	v["fam.estimate_p50_us"] = est / 1e3
	v["detect.decide_p50_us"] = dec / 1e3
	v["core.sense_overhead_us"] = (sense - est - dec) / 1e3
	v["fam.mults_per_window"] = float64(lb.mults)
	v["fam.model_cycles_per_window"] = float64(lb.cycles)
	v["detect.pfa"] = pfa
	v["runtime.alloc_mb_per_msample"] = allocMBPerMsample(rt0, rt1, la.calls*int64(w.window))
	v["runtime.gc_cpu_frac"] = gcCPUFrac(rt0, rt1)
	v["trace.overhead_frac"] = 1 - lb.senseCapacity(w)/la.senseCapacity(w)
	out.attempted = int64(w.pool+w.noisePool) + la.calls + lb.calls
	out.failed = la.failed + lb.failed
	return out, nil
}

// timedMetrics sets capacity_msps, the median of a saturation phase's
// group rates (Msample/s), and latency_p50_ms, the median of an open
// loop's slice latencies (ns). Each median over many short stretches of a
// phase keeps the value steady against a stretch the shared host ran
// slowly. The traced run reports both as per-layer metrics; the untraced
// run records them as diagnostics (README.md, "Timing on a shared host").
func timedMetrics(v map[string]float64, capacities, latencies []float64) {
	v["capacity_msps"] = median(capacities)
	v["latency_p50_ms"] = median(latencies) / 1e6
}

// heapStats sets heap_mb for a streaming workload: the median over the
// phase's GC cycles of the heap each marked live, less the live heap
// after input generation. The median, unlike the largest cycle, does not
// move with how much the program allocated while a concurrent mark was
// running.
func heapStats(v map[string]float64, cycleLive []float64, base uint64) {
	v["heap_mb"] = (median(cycleLive) - float64(base)) / 1e6
	v["heap_cycles"] = float64(len(cycleLive))
}

// heapCalls is how many Sense calls callHeap averages over.
const heapCalls = 32

// callHeap returns the heap, in bytes, one Sense call takes: the bytes
// heapCalls calls allocate with collection paused, per call. Sense keeps
// nothing between calls, so this is the most heap a call needs. The live
// heap a GC cycle marks during the loop is no measure of it: a cycle sees
// one call part-way through, its reading falls into one of several levels
// by how far, and which level the median lands on changes from run to run.
func callHeap(w *workload, bands [][]complex64) (float64, error) {
	cfg := w.senseConfig()
	var x []complex128
	sense := func(i int) error {
		x = widen(x, bands[i%len(bands)], 0, w.window)
		_, err := tiledcfd.Sense(x, cfg)
		return err
	}
	// One call first, so buffers made once per process are not counted.
	if err := sense(0); err != nil {
		return 0, err
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := readRuntime().totalAlloc
	for i := 0; i < heapCalls; i++ {
		if err := sense(i); err != nil {
			return 0, err
		}
	}
	return float64(readRuntime().totalAlloc-a) / heapCalls, nil
}

// callProbe runs the set-up probe hook, if any.
func callProbe(probe func() error) error {
	if probe == nil {
		return nil
	}
	return probe()
}
