package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"tiledcfd"
	"tiledcfd/internal/sig"
	"tiledcfd/internal/wire"
)

// TestServeSustainsConcurrentChannels runs the daemon loop briefly with
// more than four concurrent channels and checks that every channel keeps
// producing decisions — the acceptance scenario, and (under -race) the
// daemon's concurrency test.
func TestServeSustainsConcurrentChannels(t *testing.T) {
	var out bytes.Buffer
	o := options{
		channels:  5,
		k:         64,
		m:         16,
		estimator: "fam",
		window:    2048,
		mode:      "block",
		duration:  700 * time.Millisecond,
		report:    200 * time.Millisecond,
		seed:      1,
		cfarScale: 2,
	}
	st, err := run(context.Background(), o, &out)
	if err != nil {
		t.Fatalf("run: %v\noutput:\n%s", err, out.String())
	}
	if st.Channels != 5 {
		t.Fatalf("served %d channels, want 5", st.Channels)
	}
	if st.Surfaces < 5 {
		t.Fatalf("only %d surfaces across 5 channels in %v:\n%s", st.Surfaces, o.duration, out.String())
	}
	if st.SamplesDropped != 0 {
		t.Fatalf("dropped %d samples in block mode", st.SamplesDropped)
	}
	for _, id := range []string{"ch00", "ch01", "ch02", "ch03", "ch04"} {
		if !strings.Contains(out.String(), id) {
			t.Fatalf("report never mentioned %s:\n%s", id, out.String())
		}
	}
	if !strings.Contains(out.String(), "final:") {
		t.Fatalf("missing final summary:\n%s", out.String())
	}
}

// TestServeRejectsBadOptions covers the flag-validation paths.
func TestServeRejectsBadOptions(t *testing.T) {
	if _, err := run(context.Background(), options{channels: 0, mode: "block"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with 0 channels succeeded")
	}
	if _, err := run(context.Background(), options{channels: 1, mode: "nope"}, &bytes.Buffer{}); err == nil {
		t.Fatal("run with bad mode succeeded")
	}
	o := options{channels: 1, mode: "drop", estimator: "ssca", hop: 7, k: 64, m: 16,
		window: 1024, duration: 50 * time.Millisecond, report: time.Second}
	if _, err := run(context.Background(), o, &bytes.Buffer{}); err == nil {
		t.Fatal("run with ssca+hop succeeded")
	}
	if err := runClient(context.Background(), options{connect: "x", channels: 0}, &bytes.Buffer{}); err == nil {
		t.Fatal("runClient with 0 channels succeeded")
	}
	if err := runClient(context.Background(), options{connect: "x", channels: 1, format: "pcm"}, &bytes.Buffer{}); err == nil {
		t.Fatal("runClient with bad format succeeded")
	}
}

// TestServeWireEndToEnd is the daemon's e2e smoke path, all in-process:
// a 2-shard server listens on loopback, a -connect feeder streams the
// scenario over the wire protocol, /metrics reports decisions and shard
// depth, and cancellation (the SIGTERM path) drains gracefully with
// complete final accounting.
func TestServeWireEndToEnd(t *testing.T) {
	listenCh := make(chan net.Addr, 1)
	httpCh := make(chan net.Addr, 1)
	serverOut := &bytes.Buffer{}
	o := options{
		listen:   "127.0.0.1:0",
		httpAddr: "127.0.0.1:0",
		shards:   2,
		k:        64, m: 16,
		estimator:    "fam",
		window:       2048,
		mode:         "block",
		report:       200 * time.Millisecond,
		drainGrace:   2 * time.Second,
		seed:         1,
		cfarScale:    2,
		quiet:        true,
		notifyListen: func(a net.Addr) { listenCh <- a },
		notifyHTTP:   func(a net.Addr) { httpCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		st  *serveStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run(ctx, o, serverOut)
		done <- result{st, err}
	}()
	var wireAddr, httpAddr net.Addr
	select {
	case wireAddr = <-listenCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("server never listened:\n%s", serverOut.String())
	}
	select {
	case httpAddr = <-httpCh:
	case <-time.After(5 * time.Second):
		t.Fatalf("status server never bound:\n%s", serverOut.String())
	}

	// Stream over the wire protocol from the -connect client for a
	// bounded duration.
	clientOut := &bytes.Buffer{}
	co := options{
		connect:  wireAddr.String(),
		channels: 3,
		k:        64,
		window:   2048,
		duration: 1500 * time.Millisecond,
		seed:     7,
	}
	if err := runClient(context.Background(), co, clientOut); err != nil {
		t.Fatalf("runClient: %v\nserver:\n%s", err, serverOut.String())
	}
	if !strings.Contains(clientOut.String(), "sent ") {
		t.Fatalf("client summary missing:\n%s", clientOut.String())
	}

	// /metrics must be non-empty and show decisions and per-shard depth.
	metrics := scrape(t, fmt.Sprintf("http://%s/metrics", httpAddr))
	for _, want := range []string{
		"cfd_engine_decisions_total",
		"cfd_shard_queue_depth{shard=\"shard0\"}",
		"cfd_shard_queue_depth{shard=\"shard1\"}",
		"cfd_wire_connections_total 1",
		"cfd_wire_channels_opened_total 3",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for !decisionsRecorded(metrics) {
		if time.Now().After(deadline) {
			t.Fatalf("no decision recorded in /metrics:\n%s", metrics)
		}
		time.Sleep(100 * time.Millisecond)
		metrics = scrape(t, fmt.Sprintf("http://%s/metrics", httpAddr))
	}

	// Graceful shutdown: cancellation is the in-process SIGTERM path.
	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not drain:\n%s", serverOut.String())
	}
	if res.err != nil {
		t.Fatalf("run: %v\n%s", res.err, serverOut.String())
	}
	if res.st.Shards != 2 || res.st.Channels != 3 {
		t.Fatalf("final stats %+v, want 2 shards / 3 wire channels", res.st)
	}
	if res.st.Surfaces == 0 {
		t.Fatalf("no decision windows despite wire ingest:\n%s", serverOut.String())
	}
	if !strings.Contains(serverOut.String(), "final:") {
		t.Fatalf("missing final summary:\n%s", serverOut.String())
	}
}

// scrape GETs a URL body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// decisionsRecorded reports whether the exposition shows a nonzero
// decision count.
func decisionsRecorded(metrics string) bool {
	for _, line := range strings.Split(metrics, "\n") {
		if strings.HasPrefix(line, "cfd_engine_decisions_total ") &&
			!strings.HasSuffix(line, " 0") {
			return true
		}
	}
	return false
}

// TestServeQuotaShedsOverRateClient proves the daemon-level quota story:
// a client pushing far over -quota is shed (visible in /metrics) while
// the engine keeps every in-quota sample.
func TestServeQuotaShedsOverRateClient(t *testing.T) {
	listenCh := make(chan net.Addr, 1)
	httpCh := make(chan net.Addr, 1)
	serverOut := &bytes.Buffer{}
	o := options{
		listen:     "127.0.0.1:0",
		httpAddr:   "127.0.0.1:0",
		shards:     2,
		quota:      50_000, // samples/sec per connection
		quotaBurst: 100_000,
		k:          64, m: 16,
		estimator:    "fam",
		window:       2048,
		mode:         "block",
		report:       time.Second,
		drainGrace:   2 * time.Second,
		quiet:        true,
		notifyListen: func(a net.Addr) { listenCh <- a },
		notifyHTTP:   func(a net.Addr) { httpCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := run(ctx, o, serverOut)
		done <- err
	}()
	wireAddr := (<-listenCh).String()
	httpAddr := (<-httpCh).String()

	// The hog bursts ~800k samples back to back — far over the 100k
	// burst + 50k/s refill.
	co := options{
		connect:  wireAddr,
		channels: 4,
		k:        64,
		window:   2048,
		duration: 1200 * time.Millisecond,
		seed:     3,
	}
	var clientOut bytes.Buffer
	if err := runClient(context.Background(), co, &clientOut); err != nil {
		t.Fatalf("runClient: %v", err)
	}
	if !strings.Contains(clientOut.String(), "shed by server quota") {
		t.Fatalf("client summary lacks shed report:\n%s", clientOut.String())
	}
	metrics := scrape(t, "http://"+httpAddr+"/metrics")
	shed := metricValue(t, metrics, "cfd_wire_quota_shed_samples_total")
	in := metricValue(t, metrics, "cfd_wire_samples_in_total")
	if shed <= 0 {
		t.Fatalf("quota shed nothing:\n%s", metrics)
	}
	if in <= 0 {
		t.Fatalf("quota shed everything — in-quota samples must flow:\n%s", metrics)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("run: %v\n%s", err, serverOut.String())
	}
}

// metricValue extracts one unlabelled sample value from an exposition.
func metricValue(t *testing.T, metrics, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(metrics, "\n") {
		var v float64
		if _, err := fmt.Sscanf(line, name+" %g", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s absent:\n%s", name, metrics)
	return 0
}

// TestServeDrainStopsNewChannels covers the drain ordering: after the
// run context ends, in-flight decision windows are still flushed into
// the final accounting (no samples stranded in rings in block mode).
func TestServeDrainStopsNewChannels(t *testing.T) {
	listenCh := make(chan net.Addr, 1)
	serverOut := &bytes.Buffer{}
	o := options{
		listen: "127.0.0.1:0",
		shards: 2,
		k:      64, m: 16,
		estimator:    "fam",
		window:       2048,
		mode:         "block",
		report:       time.Second,
		drainGrace:   time.Second,
		quiet:        true,
		notifyListen: func(a net.Addr) { listenCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		st  *serveStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run(ctx, o, serverOut)
		done <- result{st, err}
	}()
	wireAddr := (<-listenCh).String()
	co := options{
		connect:  wireAddr,
		channels: 2,
		k:        64,
		window:   2048,
		duration: 600 * time.Millisecond,
		seed:     5,
	}
	var mu sync.Mutex
	var clientOut bytes.Buffer
	mu.Lock()
	go func() {
		defer mu.Unlock()
		runClient(context.Background(), co, &clientOut) //nolint:errcheck // best-effort load
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	res := <-done
	if res.err != nil {
		t.Fatalf("run: %v\n%s", res.err, serverOut.String())
	}
	mu.Lock() // client finished
	// Graceful drain: whatever was accepted was decided — in block mode
	// every complete in-flight window lands before the final report.
	if res.st.SamplesDropped != 0 {
		t.Fatalf("drain dropped %d samples in block mode", res.st.SamplesDropped)
	}
	if want := res.st.SamplesIn / 2048; res.st.Surfaces < want-2 {
		t.Fatalf("flushed %d windows for %d samples in, want ~%d", res.st.Surfaces, res.st.SamplesIn, want)
	}
}

// startTestWorker runs a -shard-of worker in-process, returning its
// bound address and a stop function (the in-process SIGTERM).
func startTestWorker(t *testing.T, addr string) (string, func()) {
	t.Helper()
	listenCh := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	wo := options{
		shardOf: addr,
		k:       64, m: 16,
		estimator:    "fam",
		window:       2048,
		mode:         "block",
		report:       200 * time.Millisecond,
		quiet:        true,
		notifyListen: func(a net.Addr) { listenCh <- a },
	}
	go func() { done <- runWorker(ctx, wo, io.Discard) }()
	var bound net.Addr
	select {
	case bound = <-listenCh:
	case <-time.After(5 * time.Second):
		cancel()
		t.Fatal("worker never listened")
	}
	var once sync.Once
	stop := func() {
		once.Do(func() {
			cancel()
			if err := <-done; err != nil {
				t.Errorf("worker: %v", err)
			}
		})
	}
	return bound.String(), stop
}

// pollStats scrapes /stats until cond holds or the deadline expires.
func pollStats(t *testing.T, httpAddr, what string, cond func(statusSnapshot) bool) statusSnapshot {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var snap statusSnapshot
		if err := json.Unmarshal([]byte(scrape(t, "http://"+httpAddr+"/stats")), &snap); err != nil {
			t.Fatalf("decode /stats: %v", err)
		}
		if cond(snap) {
			return snap
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s; last snapshot %+v", what, snap)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// healthzStatus GETs /healthz, returning the HTTP status and body.
func healthzStatus(t *testing.T, httpAddr string) (int, string) {
	t.Helper()
	resp, err := http.Get("http://" + httpAddr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(b)
}

// TestServeRemoteShardFailover is the chaos e2e: a router daemon routes
// half its fleet to a -shard-of worker process, the worker is killed
// mid-stream and restarted, and decisions keep flowing throughout —
// failover re-homes the remote channels within the health interval,
// /healthz flips to 503 degraded and back, and the robustness metrics
// land in /metrics.
func TestServeRemoteShardFailover(t *testing.T) {
	workerAddr, stopWorker := startTestWorker(t, "")
	defer stopWorker()

	httpCh := make(chan net.Addr, 1)
	serverOut := &bytes.Buffer{}
	o := options{
		selftest: true,
		channels: 8,
		shards:   1,
		httpAddr: "127.0.0.1:0",
		k:        64, m: 16,
		estimator:      "fam",
		window:         2048,
		mode:           "block",
		report:         time.Second,
		drainGrace:     time.Second,
		seed:           1,
		cfarScale:      2,
		quiet:          true,
		shardAddrs:     workerAddr,
		healthInterval: 30 * time.Millisecond,
		pushTimeout:    500 * time.Millisecond,
		notifyHTTP:     func(a net.Addr) { httpCh <- a },
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	type result struct {
		st  *serveStats
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := run(ctx, o, serverOut)
		done <- result{st, err}
	}()
	var httpAddr string
	select {
	case a := <-httpCh:
		httpAddr = a.String()
	case <-time.After(5 * time.Second):
		t.Fatalf("status server never bound:\n%s", serverOut.String())
	}

	// Healthy: both shards live, the remote owning channels, decisions
	// flowing, /healthz green.
	pollStats(t, httpAddr, "remote shard carrying traffic", func(s statusSnapshot) bool {
		if s.Stats.Surfaces == 0 {
			return false
		}
		for _, sh := range s.Shards {
			if sh.Remote && sh.Channels > 0 && sh.State == "ok" {
				return true
			}
		}
		return false
	})
	if code, body := healthzStatus(t, httpAddr); code != http.StatusOK {
		t.Fatalf("healthy /healthz = %d %q", code, body)
	}

	// Kill the worker mid-stream: the circuit opens, channels re-home
	// onto the local shard, and the daemon reports itself degraded.
	stopWorker()
	pollStats(t, httpAddr, "failover onto the local shard", func(s statusSnapshot) bool {
		if s.Stats.Failovers < 1 {
			return false
		}
		for _, cs := range s.Channels {
			if cs.Shard != "shard0" {
				return false
			}
		}
		return len(s.Channels) > 0
	})
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, body := healthzStatus(t, httpAddr)
		if code == http.StatusServiceUnavailable {
			if !strings.Contains(body, "degraded") || !strings.Contains(body, "shard1") {
				t.Fatalf("degraded /healthz body %q, want the open circuit named", body)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("/healthz never reported degraded (last %d)", code)
		}
		time.Sleep(25 * time.Millisecond)
	}

	// Decisions keep flowing after the failover.
	first := pollStats(t, httpAddr, "post-failover decisions", func(s statusSnapshot) bool {
		return s.Stats.Failovers >= 1
	})
	pollStats(t, httpAddr, "decision flow after failover", func(s statusSnapshot) bool {
		return s.Stats.Surfaces > first.Stats.Surfaces
	})

	// The robustness metrics are exposed. The circuit gauge is polled for
	// the open position (2): a health probe in flight reads half-open for
	// an instant, but with the worker gone it must settle back to open.
	metrics := scrape(t, "http://"+httpAddr+"/metrics")
	for _, want := range []string{
		"cfd_shard_retries_total",
		"cfd_push_deadline_exceeded_total",
		"cfd_shard_failovers_total",
		"cfd_shard_shed_samples_total",
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/metrics lacks %q:\n%s", want, metrics)
		}
	}
	deadline = time.Now().Add(10 * time.Second)
	for !strings.Contains(metrics, `cfd_shard_circuit_state{shard="shard1"} 2`) {
		if time.Now().After(deadline) {
			t.Fatalf("circuit gauge never read open:\n%s", metrics)
		}
		time.Sleep(25 * time.Millisecond)
		metrics = scrape(t, "http://"+httpAddr+"/metrics")
	}

	// Restart the worker at the same address: the health loop heals the
	// circuit and /healthz goes green again.
	_, stopWorker2 := startTestWorker(t, workerAddr)
	defer stopWorker2()
	deadline = time.Now().Add(15 * time.Second)
	for {
		if code, _ := healthzStatus(t, httpAddr); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("/healthz never recovered after the worker restart")
		}
		time.Sleep(50 * time.Millisecond)
	}

	cancel()
	var res result
	select {
	case res = <-done:
	case <-time.After(20 * time.Second):
		t.Fatalf("server did not drain:\n%s", serverOut.String())
	}
	if res.err != nil {
		t.Fatalf("run: %v\n%s", res.err, serverOut.String())
	}
	if res.st.Failovers < 1 {
		t.Fatalf("final stats %+v, want at least one failover recorded", res.st)
	}
	if !strings.Contains(serverOut.String(), "robustness:") {
		t.Fatalf("final output lacks the robustness summary:\n%s", serverOut.String())
	}
}

// TestServeRejectsNonFiniteSamples: a NaN sample arriving over the
// network ends the connection with an error frame naming it and is
// counted as a protocol error; nothing reaches the engine, and the
// block's samples show on cfd_samples_nonfinite_total.
func TestServeRejectsNonFiniteSamples(t *testing.T) {
	mon, err := tiledcfd.NewMonitor(tiledcfd.Config{K: 64, M: 16, Estimator: "fam"},
		tiledcfd.MonitorOptions{SnapshotSamples: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	srv, err := wire.NewServer(wire.ServerConfig{Sink: monitorSink{mon}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	c, err := wire.Dial(addr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(wire.Meta{ID: "ch", Format: wire.FormatCF32})
	if err != nil {
		t.Fatal(err)
	}
	block := make([]complex128, 256)
	block[17] = complex(0, math.NaN())
	if err := cs.Send(block); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "sample 17 is not finite") {
		t.Fatalf("client error = %v, want a server error naming sample 17", c.Err())
	}
	if n := srv.Metrics.ProtocolErrors.Load(); n != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", n)
	}
	st := mon.Stats()
	if st.SamplesIn != 0 {
		t.Fatalf("engine accepted %d samples of a rejected block", st.SamplesIn)
	}
	if st.SamplesNonFinite != int64(len(block)) {
		t.Fatalf("SamplesNonFinite = %d, want the rejected block's %d", st.SamplesNonFinite, len(block))
	}
	var e wire.Exposition
	collectMetrics(&e, mon, srv)
	if want := fmt.Sprintf("cfd_samples_nonfinite_total %d\n", len(block)); !strings.Contains(e.String(), want) {
		t.Fatalf("/metrics lacks %q", want)
	}
}

// TestWorkerServesStatusEndpoints: a -shard-of worker started with
// -http serves /healthz, /stats and the engine lines of /metrics, and
// its cfd_engine_held_bytes shows the memory a fed channel holds.
func TestWorkerServesStatusEndpoints(t *testing.T) {
	listenCh := make(chan net.Addr, 1)
	httpCh := make(chan net.Addr, 1)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	wo := options{
		shardOf:  "127.0.0.1:0",
		httpAddr: "127.0.0.1:0",
		k:        64, m: 16,
		estimator:    "fam",
		window:       2048,
		mode:         "block",
		report:       time.Second,
		quiet:        true,
		notifyListen: func(a net.Addr) { listenCh <- a },
		notifyHTTP:   func(a net.Addr) { httpCh <- a },
	}
	go func() { done <- runWorker(ctx, wo, io.Discard) }()
	defer func() {
		cancel()
		if err := <-done; err != nil {
			t.Errorf("worker: %v", err)
		}
	}()
	var wireAddr, httpAddr net.Addr
	for wireAddr == nil || httpAddr == nil {
		select {
		case wireAddr = <-listenCh:
		case httpAddr = <-httpCh:
		case <-time.After(5 * time.Second):
			t.Fatal("worker never bound both listeners")
		}
	}
	base := "http://" + httpAddr.String()
	if code, body := healthzStatus(t, httpAddr.String()); code != http.StatusOK {
		t.Fatalf("/healthz = %d %q, want 200", code, body)
	}

	c, err := wire.Dial(wireAddr.String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(wire.Meta{ID: "ch", Format: wire.FormatCF64})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Send(sig.Samples(&sig.WGN{Sigma: 0.3, Real: true, Rng: sig.NewRand(1)}, 3000)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		metrics := scrape(t, base+"/metrics")
		if metricValue(t, metrics, "cfd_engine_samples_in_total") == 3000 &&
			metricValue(t, metrics, "cfd_engine_held_bytes") > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker /metrics never showed the fed channel:\n%s", metrics)
		}
		time.Sleep(20 * time.Millisecond)
	}
	var snap map[string]json.RawMessage
	if err := json.Unmarshal([]byte(scrape(t, base+"/stats")), &snap); err != nil {
		t.Fatal(err)
	}
	var st tiledcfd.MonitorStats
	if err := json.Unmarshal(snap["stats"], &st); err != nil {
		t.Fatalf("/stats lacks a stats object: %v", err)
	}
	if st.Channels != 1 || st.SamplesIn != 3000 || st.HeldBytes <= 0 {
		t.Fatalf("worker /stats = %+v, want 1 channel, 3000 samples and held bytes", st)
	}
}

// TestStatusKeysKept: every key /stats served for its stats, shards[]
// and channels[] objects before the accounting records were embedded is
// still served (encoding/json flattens embedded structs).
func TestStatusKeysKept(t *testing.T) {
	want := map[string][]string{
		"stats": {"Channels", "SamplesIn", "SamplesDropped", "Surfaces", "Detections",
			"DecisionsDropped", "WindowsFailed", "SamplesNonFinite", "QueuedSamples", "HeldBytes",
			"PrunedCellsSkipped", "SamplesPerSec", "SurfacesPerSec", "Shards", "Handoffs", "Retries",
			"DeadlineExceeded", "Failovers", "ShedSamples", "OpenCircuits"},
		"shards": {"Name", "Remote", "Addr", "State", "Channels", "SamplesIn", "Surfaces",
			"Detections", "QueuedSamples"},
		"channels": {"ID", "Shard", "SamplesIn", "SamplesDropped", "Snapshots", "Detections",
			"Handoffs", "Last"},
	}
	mon, err := tiledcfd.NewMonitor(tiledcfd.Config{K: 64, M: 16, Estimator: "fam"},
		tiledcfd.MonitorOptions{SnapshotSamples: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Close()
	if err := mon.AddChannel("ch"); err != nil {
		t.Fatal(err)
	}
	httpCh := make(chan net.Addr, 1)
	stop, err := serveStatus(options{httpAddr: "127.0.0.1:0", notifyHTTP: func(a net.Addr) { httpCh <- a }}, mon, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	var snap struct {
		Stats    map[string]any   `json:"stats"`
		Shards   []map[string]any `json:"shards"`
		Channels []map[string]any `json:"channels"`
	}
	if err := json.Unmarshal([]byte(scrape(t, "http://"+(<-httpCh).String()+"/stats")), &snap); err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) == 0 || len(snap.Channels) == 0 {
		t.Fatalf("/stats has %d shards and %d channels, want some of each", len(snap.Shards), len(snap.Channels))
	}
	got := map[string]map[string]any{"stats": snap.Stats, "shards": snap.Shards[0], "channels": snap.Channels[0]}
	for obj, keys := range want {
		var missing []string
		for _, k := range keys {
			if _, ok := got[obj][k]; !ok {
				missing = append(missing, k)
			}
		}
		if len(missing) > 0 {
			t.Errorf("/stats %s lost keys %v", obj, missing)
		}
	}
}
