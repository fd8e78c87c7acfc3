package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/scf"
)

// short returns a copy of w small enough for a test: a few distinct
// windows per channel, so the saturation phase needs only a fraction of
// a second.
func short(w *workload) *workload {
	c := *w
	c.pool, c.noisePool = 4, 4
	return &c
}

// TestWorkloadsShort runs every workload briefly, untraced and traced,
// and checks that the run is correct, nothing failed and every metric
// was measured.
func TestWorkloadsShort(t *testing.T) {
	const dur = 400 * time.Millisecond
	for _, w := range workloads {
		w := short(w)
		for _, traced := range []bool{false, true} {
			var res *outcome
			var err error
			if w.kind == kindBatch {
				res, err = runBatchWorkload(w, 1, dur, traced, nil)
			} else {
				res, err = runStreamingWorkload(w, 1, dur, traced, nil)
			}
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if len(res.errs) > 0 || res.failed != 0 || res.attempted < 1 {
				t.Fatalf("%s traced=%v: errs %v, %d of %d failed", w.name, traced, res.errs, res.failed, res.attempted)
			}
			defs := perLayer
			if !traced {
				defs = endToEnd[1:] // setup_s is measured by the command's probes
			}
			for _, d := range defs {
				v, ok := res.values[d.name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s traced=%v: metric %s = %v (present %v)", w.name, traced, d.name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, d.name, v)
				}
			}
			if traced && w.kind != kindBatch {
				if u := res.values["trace.unattributed_frac"]; u > 0.10 {
					t.Errorf("%s: trace.unattributed_frac = %v, want <= 0.10", w.name, u)
				}
			}
		}
	}
}

// flipFirst is a decider decorator that inverts the verdict of the
// first window it decides.
type flipFirst struct {
	detect.Decider
	calls atomic.Int64
}

func (f *flipFirst) Decide(s *scf.Surface, x []complex128) (detect.Decision, error) {
	d, err := f.Decider.Decide(s, x)
	if f.calls.Add(1) == 1 {
		d.Detected = !d.Detected
	}
	return d, err
}

// TestGateCatchesFlippedVerdict plants one wrong verdict behind the
// engine; the correctness gate must name its workload and window.
func TestGateCatchesFlippedVerdict(t *testing.T) {
	w, err := findWorkload("stream-pruned-dg")
	if err != nil {
		t.Fatal(err)
	}
	w = short(w)
	w.channels = 1 // one channel, so the first Decide is window 0
	pools, err := genInputs(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	wrap := func(d detect.Decider) detect.Decider { return &flipFirst{Decider: d} }
	p, err := saturationPhase(w, pools, 0, true, sysOpts{wrapDecider: wrap})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.errs) != 1 || !strings.Contains(p.errs[0], "stream-pruned-dg: channel 0 window 0:") {
		t.Fatalf("gate reported %q, want exactly the flipped window 0", p.errs)
	}
	// The same phase without the plant passes.
	p, err = saturationPhase(w, pools, 0, true, sysOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.errs) != 0 {
		t.Fatalf("clean phase failed the gate: %v", p.errs)
	}
}

// TestGateCatchesLostWindow checks the accounting half of the gate.
func TestGateCatchesLostWindow(t *testing.T) {
	w, err := findWorkload("stream-ssca")
	if err != nil {
		t.Fatal(err)
	}
	W := int64(w.window)
	per := [][]decRec{{{seq: 0, total: W}, {seq: 2, total: 3 * W}}}
	a := accounting{offered: 3 * W, totals: counters{accepted: 3 * W}, accepted: []int64{3 * W}}
	pool, err := genSignal(w, 1, 0, w.window)
	if err != nil {
		t.Fatal(err)
	}
	errs := checkSaturation(w, a, per, [][]complex64{pool})
	joined := strings.Join(errs, "\n")
	if !strings.Contains(joined, "channel 0: 2 decisions for") || !strings.Contains(joined, "channel 0 window 1: got seq 2") {
		t.Fatalf("gate reported %q", errs)
	}
}

// fakeAccumulator completes a window on every Push of window samples.
type fakeAccumulator struct {
	n    int
	surf *scf.Surface
}

func (f *fakeAccumulator) Name() string              { return "fake" }
func (f *fakeAccumulator) Push(x []complex128) error { f.n += len(x); return nil }
func (f *fakeAccumulator) Samples() int              { return f.n }
func (f *fakeAccumulator) Ready() bool               { return f.n > 0 }
func (f *fakeAccumulator) Reset()                    { f.n = 0 }
func (f *fakeAccumulator) Snapshot() (*scf.Surface, *scf.Stats, error) {
	return f.surf, &scf.Stats{FFTMults: 3, DSCFMults: 4}, nil
}

type fakeDecider struct{}

func (fakeDecider) Name() string       { return "fake" }
func (fakeDecider) NeedsSamples() bool { return false }
func (fakeDecider) TargetPfa() float64 { return 0 }
func (fakeDecider) Decide(*scf.Surface, []complex128) (detect.Decision, error) {
	return detect.Decision{Detected: true}, nil
}

// TestSpanJoinReconciles drives the decorators through a synthetic
// chain of two windows on channel 3 and checks that every step lands on
// the right window and the spans add up to the end-to-end time.
func TestSpanJoinReconciles(t *testing.T) {
	const W = 4
	tr := newTracer(W)
	tr.adding.Store(3)
	acc := &tracedAccumulator{inner: &fakeAccumulator{surf: scf.NewSurface(2)}, tr: tr, ch: int(tr.adding.Load())}
	tr.adding.Store(-1)
	dec := tracedDecider{inner: fakeDecider{}, tr: tr}
	x := make([]complex128, W)
	for win := int64(1); win <= 2; win++ {
		end := win * W
		tr.stamp(3, end-W, end, fDue, tr.now(), -1, 0)
		tr.stamp(3, end-W, end, fSendStart, tr.now(), fSendEnd, tr.now())
		tr.stamp(3, end-W, end, fSinkStart, tr.now(), fSinkEnd, tr.now())
		if err := acc.Push(x); err != nil {
			t.Fatal(err)
		}
		s, st, err := acc.Snapshot()
		if err != nil || st.TotalMults() != 7 {
			t.Fatalf("snapshot: %v %v", st, err)
		}
		if _, err := dec.Decide(s, nil); err != nil {
			t.Fatal(err)
		}
		acc.Reset()
		tr.stamp(3, end-1, end, fRecv, tr.now(), -1, 0)
	}
	keys, chains := tr.chains(true)
	if len(chains) != 2 || keys[0] != (winKey{3, W}) || keys[1] != (winKey{3, 2 * W}) {
		t.Fatalf("joined windows %v, want channel 3 ends %d and %d", keys, W, 2*W)
	}
	for i, c := range chains {
		sum := c.GenLag + c.Send + c.Transit + c.Sink + c.RingWait + c.AccPush + c.Snapshot + c.Decide + c.Emit
		if c.E2E <= 0 || sum+c.Unattributed != c.E2E || c.Unattributed < 0 || c.Unattributed/c.E2E > 0.5 {
			t.Errorf("window %d: spans %+v do not reconcile", i, c)
		}
	}
	if tr.mults.Load() != 7 {
		t.Errorf("mults = %d, want 7", tr.mults.Load())
	}
	// A window missing a step does not reconcile.
	var partial winTrace
	partial[fDue], partial[fRecv] = 1, 2
	if _, ok := reconcile(partial, false); ok {
		t.Error("incomplete window reconciled")
	}
}

// TestQuantiles pins the helpers to the values Python's statistics
// module and linear interpolation give.
func TestQuantiles(t *testing.T) {
	v := []float64{4, 1, 3, 2}
	if q1, q2, q3 := quartiles(v); q1 != 1.25 || q2 != 2.5 || q3 != 3.75 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.25 2.5 3.75", q1, q2, q3)
	}
	ten := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	if q1, q2, q3 := quartiles(ten); q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := median(v); got != 2.5 {
		t.Errorf("median = %v", got)
	}
	if got := percentile(v, 0.99); math.Abs(got-3.97) > 1e-12 {
		t.Errorf("p99 = %v, want 3.97", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing is not NaN")
	}
}

// TestJudge exercises the compare verdicts.
func TestJudge(t *testing.T) {
	bound := 0.1
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	shift := func(d float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v + d
		}
		return out
	}
	cases := []struct {
		name   string
		better string
		change []float64
		want   string
	}{
		{"faster", "higher", shift(10), "improved"},
		{"same", "higher", shift(0), "unchanged"},
		{"slightly worse", "higher", shift(-5), "unchanged"},
		{"much worse", "higher", shift(-20), "regressed"},
		{"lower is better", "lower", shift(-10), "improved"},
	}
	for _, c := range cases {
		if got := judge(c.better, &bound, base, c.change).verdict; got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got := judge("higher", &bound, noisy, noisy).verdict; got != "unresolved" {
		t.Errorf("noisy parent: verdict %s, want unresolved", got)
	}
	if got := judge("lower", nil, base, shift(20)).verdict; got != "regressed" {
		t.Errorf("unbounded regression: verdict %s", got)
	}
}

// TestJudgeRawGuard checks that a set-up regression the host-speed
// scaling hides is reported unresolved, not unchanged.
func TestJudgeRawGuard(t *testing.T) {
	bound := 0.25
	m := specMetric{Name: "setup_s", Better: "lower", Bound: &bound}
	runs := func(scaled, raw float64) []resultFile {
		out := make([]resultFile, 10)
		for i := range out {
			jitter := 1 + 0.01*float64(i%3)
			out[i].Metrics = map[string]metricValue{"setup_s": {Value: scaled * jitter}}
			out[i].Diagnostics = map[string]float64{"setup_raw_s": raw * jitter}
		}
		return out
	}
	parent := runs(1, 1)
	if got := judgeMetric(m, parent, runs(1, 1)).verdict; got != "unchanged" {
		t.Errorf("same set-up: verdict %s, want unchanged", got)
	}
	if got := judgeMetric(m, parent, runs(1, 1.5)).verdict; got != "unresolved" {
		t.Errorf("raw set-up 50%% slower: verdict %s, want unresolved", got)
	}
	if got := judgeMetric(m, parent, runs(1.5, 1.5)).verdict; got != "regressed" {
		t.Errorf("both 50%% slower: verdict %s, want regressed", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metric and
// workload tables of this package in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	sp, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range sp.Workloads {
		if w.Name != workloads[i].name || w.Why == "" || strings.Contains(w.Why, "\n") || len(w.Why) > 200 {
			t.Errorf("workload %d: %q does not match %q or has a bad why", i, w.Name, workloads[i].name)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, code %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if m.Name != want[i].name || m.Unit != want[i].unit || m.Better != want[i].better {
				t.Errorf("%s %d: %+v, code %+v", kind, i, m, want[i])
			}
			if !name.MatchString(m.Name) {
				t.Errorf("%s: bad metric name %q", kind, m.Name)
			}
			if bounded != (m.Bound != nil) {
				t.Errorf("%s: metric %s bound presence %v", kind, m.Name, m.Bound != nil)
			}
		}
	}
	check("end_to_end", sp.EndToEnd, endToEnd, true)
	check("per_layer", sp.PerLayer, perLayer, false)
	var setup float64
	for _, m := range sp.EndToEnd {
		if *m.Bound <= 0 || *m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, *m.Bound)
		}
		if m.Name == "setup_s" {
			setup = *m.Bound
		}
	}
	for _, m := range sp.EndToEnd {
		if *m.Bound > setup {
			t.Errorf("%s: bound %v above setup_s's %v", m.Name, *m.Bound, setup)
		}
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Errorf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
}

// TestRefuse checks the host refusals.
func TestRefuse(t *testing.T) {
	w, err := findWorkload("wire-fam")
	if err != nil {
		t.Fatal(err)
	}
	if err := refuse(w, hostBlock{NumCPU: 2, GOMAXPROCS: 2}); err != nil {
		t.Errorf("2-CPU host refused: %v", err)
	}
	if err := refuse(w, hostBlock{NumCPU: 2, GOMAXPROCS: 4}); err == nil {
		t.Error("GOMAXPROCS above NumCPU accepted")
	}
	if err := refuse(w, hostBlock{NumCPU: 1, GOMAXPROCS: 1}); err == nil {
		t.Error("two connections on one CPU accepted")
	}
}
