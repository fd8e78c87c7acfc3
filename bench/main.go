// Command bench is the repository's benchmark: four sensing workloads
// driven from outside through the program's public functions, with
// end-to-end metrics from an untraced run and per-layer metrics from a
// traced one. README.md describes the workloads, metrics and bounds.
//
// Run it from the repository root (the last line of a run is a JSON
// summary; the process exits non-zero on any correctness failure):
//
//	bash bench/run.sh --workload wire-fam --seed 1 --seconds 12 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh repeat -n 10 --workload all --out DIR
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"tiledcfd"
)

// metricDef is one metric the benchmark reports. BENCHMARK.json at the
// repository root lists the same names and units and adds the bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics of the untraced run, as a user of the system
// sees them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"heap_mb", "MB", "lower"},
	{"pd", "fraction", "higher"},
}

// perLayer are the metrics of the traced run; a metric that does not
// apply to a workload (no wire layer, no batch estimate) reads 0. The
// first two are end-to-end by nature, but their spread across runs on a
// shared host is wider than any bound that would catch a regression
// (README.md, "Timing on a shared host").
var perLayer = []metricDef{
	{"capacity_msps", "Msample/s", "higher"},
	{"latency_p50_ms", "ms", "lower"},
	{"client.gen_lag_p99_ms", "ms", "lower"},
	{"client.latency_p99_ms", "ms", "lower"},
	{"wire.send_us_per_frame", "us", "lower"},
	{"wire.transit_p50_ms", "ms", "lower"},
	{"wire.bytes_per_sample", "B", "lower"},
	{"shard.push_p50_us", "us", "lower"},
	{"shard.skew", "ratio", "lower"},
	{"stream.ring_wait_p50_ms", "ms", "lower"},
	{"stream.emit_p50_us", "us", "lower"},
	{"stream.queue_peak_samples", "samples", "lower"},
	{"fam.push_ns_per_sample", "ns", "lower"},
	{"fam.snapshot_p50_us", "us", "lower"},
	{"fam.estimate_p50_us", "us", "lower"},
	{"fam.model_cycles_per_window", "cycles", "lower"},
	{"fam.mults_per_window", "count", "lower"},
	{"detect.decide_p50_us", "us", "lower"},
	{"detect.pfa", "fraction", "lower"},
	{"core.sense_overhead_us", "us", "lower"},
	{"runtime.alloc_mb_per_msample", "MB", "lower"},
	{"runtime.gc_cpu_frac", "fraction", "lower"},
	{"trace.unattributed_frac", "fraction", "lower"},
	{"trace.overhead_frac", "fraction", "lower"},
}

// setupProbesPerCall is how many cold processes measure setup_s each
// time a run probes; a run probes three times.
const setupProbesPerCall = 7

// options are the flags of a run.
type options struct {
	workload   string
	seed       uint64
	seconds    float64
	trace      int
	out        string
	setupProbe bool
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		switch args[0] {
		case "compare":
			return runCompare(args[1:], stdout, stderr)
		case "repeat":
			return runRepeat(args[1:], stdout, stderr)
		}
	}
	var o options
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlags(fs, &o)
	fs.BoolVar(&o.setupProbe, "setup-probe", false, "internal: measure one cold setup and print its seconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.setupProbe {
		ref := refNow()
		d, err := probeOnce(w, o.seed)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintln(stdout, strconv.FormatFloat(d.Seconds(), 'g', -1, 64), strconv.FormatFloat(ref, 'g', -1, 64))
		return 0
	}
	return runOne(o, w, stdout, stderr)
}

// runFlags declares the flags a run shares with repeat.
func runFlags(fs *flag.FlagSet, o *options) {
	fs.StringVar(&o.workload, "workload", "", "workload name, or all")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed (dev seed 1, holdout seed 2)")
	fs.Float64Var(&o.seconds, "seconds", 12, "measured seconds per run")
	fs.IntVar(&o.trace, "trace", 0, "1 runs with timing decorators and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", filepath.Join(".bench_build", "results"), "directory for results and trace files")
}

// childArgs are the flags that re-run o for another workload.
func childArgs(o options, workload string) []string {
	return []string{
		"--workload", workload,
		"--seed", strconv.FormatUint(o.seed, 10),
		"--seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"--trace", strconv.Itoa(o.trace),
		"--out", o.out,
	}
}

// runAll re-executes the benchmark once per workload, so no plan cache,
// scratch pool or GC pacing leaks from one workload into the next.
func runAll(o options, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(exe, childArgs(o, w.name)...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "bench: workload %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// outcome is what one run measured.
type outcome struct {
	values            map[string]float64
	attempted, failed int64
	errs              []string
	spans             []windowSpans // per-window spans of a traced run
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the last line of a run's output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is the results JSON a run writes for repeat and compare.
type resultFile struct {
	Workload string    `json:"workload"`
	Seed     uint64    `json:"seed"`
	Trace    bool      `json:"trace"`
	Seconds  float64   `json:"seconds"`
	Host     hostBlock `json:"host"`
	summary
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// runOne runs one workload and prints its metrics.
func runOne(o options, w *workload, stdout, stderr io.Writer) int {
	h := hostInfo(o.seed)
	if err := refuse(w, h); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if o.seconds <= 0 || (o.trace != 0 && o.trace != 1) {
		fmt.Fprintln(stderr, "bench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	var probe func() error
	sp := &setupProber{o: o}
	if o.trace == 0 {
		probe = sp.probe
	}
	dur := time.Duration(o.seconds * float64(time.Second))
	var res *outcome
	var err error
	if w.kind == kindBatch {
		res, err = runBatchWorkload(w, o.seed, dur, o.trace == 1, probe)
	} else {
		res, err = runStreamingWorkload(w, o.seed, dur, o.trace == 1, probe)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	defs := perLayer
	if o.trace == 0 {
		defs = endToEnd
		res.values["setup_s"] = median(sp.times)
		res.values["setup_raw_s"] = median(sp.raw)
	}
	rf := resultFile{
		Workload: w.name, Seed: o.seed, Trace: o.trace == 1, Seconds: o.seconds, Host: h,
		summary:     summary{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}},
		Diagnostics: map[string]float64{},
		Errors:      res.errs,
	}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			rf.Errors = append(rf.Errors, fmt.Sprintf("%s: metric %s not measured", w.name, d.name))
			v = 0
		}
		rf.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Fprintf(stdout, "%-16s %-30s %14.6g %s\n", w.name, d.name, v, d.unit)
	}
	for k, v := range res.values {
		if _, printed := rf.Metrics[k]; !printed && !math.IsNaN(v) && !math.IsInf(v, 0) {
			rf.Diagnostics[k] = v
		}
	}
	rf.Correct = len(rf.Errors) == 0
	for _, e := range rf.Errors {
		fmt.Fprintln(stderr, "bench: FAIL", e)
	}
	if err := writeResults(o, w, rf, res.spans); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		rf.Correct = false
	}
	line, err := json.Marshal(rf.summary)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rf.Correct {
		return 1
	}
	return 0
}

// writeResults writes <workload>-s<seed>[-trace].json and, for a traced
// run, trace-<workload>.json into the output directory.
func writeResults(o options, w *workload, rf resultFile, spans []windowSpans) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-s%d", w.name, o.seed)
	if rf.Trace {
		name += "-trace"
	}
	if err := writeJSON(filepath.Join(o.out, name+".json"), rf); err != nil {
		return err
	}
	if len(spans) > 0 {
		return writeJSON(filepath.Join(o.out, "trace-"+w.name+".json"), spans)
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding %s: %w", path, err)
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// setupProber measures setup_s in fresh processes, so every value is a
// cold start (no plan cache or pool warmed by an earlier set-up in the
// same process). Each value is scaled by the reference kernels timed just
// before it (hostspeed.go). The run calls probe at its start, between its
// phases and at its end, so the median samples the host over the whole
// run.
type setupProber struct {
	o     options
	times []float64 // seconds, scaled to the nominal host speed
	raw   []float64 // seconds, as timed
}

// probe runs setupProbesPerCall fresh processes.
func (p *setupProber) probe() error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	for i := 0; i < setupProbesPerCall; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", p.o.workload, "--seed", strconv.FormatUint(p.o.seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("setup probe: %w", err)
		}
		var setup, ref float64
		if _, err := fmt.Sscan(string(out), &setup, &ref); err != nil {
			return fmt.Errorf("setup probe output %q: %w", out, err)
		}
		p.times = append(p.times, setup*nominalRefUs/ref)
		p.raw = append(p.raw, setup)
	}
	return nil
}

// probeOnce measures one cold setup: for the streaming workloads, from
// building estimators and deciders through the engine or router, server
// listen, client dials and every channel open; for the batch workload,
// the first Sense call. Input generation is excluded.
func probeOnce(w *workload, seed uint64) (time.Duration, error) {
	if w.kind == kindBatch {
		band, err := genSignal(w, seed, 0, w.window)
		if err != nil {
			return 0, err
		}
		x := widen(nil, band, 0, w.window)
		t0 := time.Now()
		_, err = tiledcfd.Sense(x, w.senseConfig())
		return time.Since(t0), err
	}
	t0 := time.Now()
	sys, err := newSystem(w, sysOpts{})
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	sys.close()
	return d, nil
}

// hostBlock records where a result was measured.
type hostBlock struct {
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Seed       uint64 `json:"seed"`
}

func hostInfo(seed uint64) hostBlock {
	return hostBlock{
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit(),
		Seed:       seed,
	}
}

// refuse rejects hosts on which the workload's numbers would not mean
// what they say: more schedulable threads or more generator connections
// than cores.
func refuse(w *workload, h hostBlock) error {
	if h.GOMAXPROCS > h.NumCPU {
		return fmt.Errorf("GOMAXPROCS=%d exceeds the %d CPUs of this host; unset it", h.GOMAXPROCS, h.NumCPU)
	}
	if w.conns > h.NumCPU {
		return fmt.Errorf("%s needs %d connections but the host has %d CPUs", w.name, w.conns, h.NumCPU)
	}
	return nil
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or the
// architecture where there is none.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				return strings.TrimSpace(v)
			}
		}
	}
	return runtime.GOARCH
}

// commit names the measured source: $BENCH_COMMIT when set, else the
// checkout's git HEAD, else "unknown" (the benchmark may run from an
// export without git metadata).
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err == nil {
		for _, line := range strings.Split(string(packed), "\n") {
			if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
				return hash
			}
		}
	}
	return "unknown"
}

// runRepeat runs workloads n times each, interleaving workloads within a
// round, and writes every round's results into its own subdirectory of
// --out for compare.
func runRepeat(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("bench repeat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runFlags(fs, &o)
	n := fs.Int("n", 10, "rounds")
	step := fs.Uint64("seed-step", 1, "seed increment per round (0 repeats one seed)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *n < 1 {
		fmt.Fprintln(stderr, "bench repeat: -n must be at least 1")
		return 2
	}
	names := []string{o.workload}
	if o.workload == "" || o.workload == "all" {
		names = names[:0]
		for _, w := range workloads {
			names = append(names, w.name)
		}
	}
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench repeat:", err)
		return 1
	}
	code := 0
	base, out := o.seed, o.out
	for r := 0; r < *n; r++ {
		o.seed = base + uint64(r)*(*step)
		o.out = filepath.Join(out, fmt.Sprintf("r%02d", r))
		for _, name := range names {
			cmd := exec.Command(exe, childArgs(o, name)...)
			cmd.Stderr = stderr
			b, err := cmd.Output()
			last := strings.TrimSpace(string(b))
			if i := strings.LastIndexByte(last, '\n'); i >= 0 {
				last = last[i+1:]
			}
			fmt.Fprintf(stdout, "round %d %s seed %d: %s\n", r, name, o.seed, last)
			if err != nil {
				fmt.Fprintf(stderr, "bench repeat: %s seed %d: %v\n", name, o.seed, err)
				code = 1
			}
		}
	}
	return code
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
