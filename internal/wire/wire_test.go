package wire

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// memSink collects everything the server delivers, for assertions.
type memSink struct {
	mu       sync.Mutex
	channels map[string]Meta
	samples  map[string][]complex128
	openErr  error
	block    chan struct{} // when set, Push blocks until closed
}

func newMemSink() *memSink {
	return &memSink{channels: make(map[string]Meta), samples: make(map[string][]complex128)}
}

// OpenChannel implements Sink.
func (m *memSink) OpenChannel(meta Meta) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.openErr != nil {
		return m.openErr
	}
	if _, dup := m.channels[meta.ID]; dup {
		return fmt.Errorf("channel %q already exists", meta.ID)
	}
	m.channels[meta.ID] = meta
	return nil
}

// Push implements Sink.
func (m *memSink) Push(id string, samples []complex128) (int, error) {
	if m.block != nil {
		<-m.block
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.samples[id] = append(m.samples[id], samples...)
	return len(samples), nil
}

// got returns a copy of one channel's delivered samples.
func (m *memSink) got(id string) []complex128 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]complex128(nil), m.samples[id]...)
}

// startServer spins up a loopback server; the cleanup closes it.
func startServer(t *testing.T, cfg ServerConfig) (*Server, string) {
	t.Helper()
	s, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	addr, err := s.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s, addr.String()
}

// band synthesises a deterministic test block.
func band(n int, seed int) []complex128 {
	out := make([]complex128, n)
	for i := range out {
		ph := float64(seed) + 0.1*float64(i)
		out[i] = complex(math.Cos(ph), math.Sin(ph))
	}
	return out
}

// TestRoundTripBothFormats streams both sample formats over loopback
// and checks the sink receives the samples in order within the format's
// precision.
func TestRoundTripBothFormats(t *testing.T) {
	sink := newMemSink()
	_, addr := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for _, tc := range []struct {
		format Format
		tol    float64
	}{
		{FormatCF32, 1e-6},
		{FormatCI16, 1.0 / 32767},
	} {
		id := "ch-" + tc.format.String()
		cs, err := c.Open(Meta{ID: id, Format: tc.format, SampleRateHz: 1e6, CenterFreqHz: 100e6})
		if err != nil {
			t.Fatal(err)
		}
		want := band(3000, 7)
		// Two sends exercise streaming continuity.
		if err := cs.Send(want[:1234]); err != nil {
			t.Fatal(err)
		}
		if err := cs.Send(want[1234:]); err != nil {
			t.Fatal(err)
		}
		if err := cs.Close(); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for len(sink.got(id)) < len(want) && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		got := sink.got(id)
		if len(got) != len(want) {
			t.Fatalf("%s: delivered %d samples, want %d", tc.format, len(got), len(want))
		}
		for i := range got {
			if math.Abs(real(got[i])-real(want[i])) > tc.tol ||
				math.Abs(imag(got[i])-imag(want[i])) > tc.tol {
				t.Fatalf("%s: sample %d = %v, want %v ± %g", tc.format, i, got[i], want[i], tc.tol)
			}
		}
		meta := func() Meta {
			sink.mu.Lock()
			defer sink.mu.Unlock()
			return sink.channels[id]
		}()
		if meta.SampleRateHz != 1e6 || meta.CenterFreqHz != 100e6 || meta.Format != tc.format {
			t.Fatalf("%s: metadata %+v did not survive the wire", tc.format, meta)
		}
	}
}

// TestOpenRejected: a sink refusal (duplicate id) surfaces as an Open
// error on the client without killing the connection.
func TestOpenRejected(t *testing.T) {
	sink := newMemSink()
	srv, addr := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	meta := Meta{ID: "dup", Format: FormatCF32}
	if _, err := c.Open(meta); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Open(meta); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Fatalf("duplicate open error = %v, want sink rejection", err)
	}
	// Connection still works for a fresh id.
	cs, err := c.Open(Meta{ID: "fresh", Format: FormatCF32})
	if err != nil {
		t.Fatalf("open after rejection: %v", err)
	}
	if err := cs.Send(band(10, 1)); err != nil {
		t.Fatal(err)
	}
	if srv.Metrics.OpensRejected.Load() != 1 {
		t.Fatalf("OpensRejected = %d, want 1", srv.Metrics.OpensRejected.Load())
	}
}

// TestQuotaShedsOverRateClientOnly is the load-shedding acceptance
// test: with a per-connection quota, an over-rate client's excess is
// shed (counted, reported via shed frames) while an in-quota client on
// its own connection loses nothing.
func TestQuotaShedsOverRateClientOnly(t *testing.T) {
	sink := newMemSink()
	// Burst of 10k samples, trickle refill: the hog's second frame must
	// shed, the polite client's small sends never do.
	srv, addr := startServer(t, ServerConfig{
		Sink:               sink,
		QuotaSamplesPerSec: 1000,
		QuotaBurst:         10_000,
	})

	hog, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer hog.Close()
	polite, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer polite.Close()

	hogCh, err := hog.Open(Meta{ID: "hog", Format: FormatCF32})
	if err != nil {
		t.Fatal(err)
	}
	politeCh, err := polite.Open(Meta{ID: "polite", Format: FormatCF32})
	if err != nil {
		t.Fatal(err)
	}

	// The hog fires 5 × 8k-sample frames back to back: the first fits
	// the 10k burst, later ones exceed the remaining tokens and shed.
	for i := 0; i < 5; i++ {
		if err := hogCh.Send(band(8000, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The polite client stays tiny and within burst.
	for i := 0; i < 4; i++ {
		if err := politeCh.Send(band(100, i)); err != nil {
			t.Fatal(err)
		}
	}
	// The two connections are served independently: wait for both the
	// polite client's samples and every hog frame's fate (delivered or
	// shed), so the hog's count below is final.
	deadline := time.Now().Add(5 * time.Second)
	settled := func() bool {
		hogDone := int64(len(sink.got("hog"))) + srv.Metrics.SamplesShed.Load()
		return len(sink.got("polite")) >= 400 && hogDone >= 5*8000
	}
	for !settled() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(sink.got("polite")); got != 400 {
		t.Fatalf("polite client delivered %d samples, want all 400", got)
	}
	if got := len(sink.got("hog")); got >= 5*8000 || got < 8000 {
		t.Fatalf("hog delivered %d samples, want sheds between 8000 and <40000", got)
	}
	shed := srv.Metrics.SamplesShed.Load()
	if shed == 0 {
		t.Fatal("no samples shed")
	}
	if got := int64(len(sink.got("hog"))); got+shed != 5*8000 {
		t.Fatalf("delivered %d + shed %d != pushed %d", got, shed, 5*8000)
	}
	// The hog was told: shed notices carry the same count.
	for deadline := time.Now().Add(5 * time.Second); hog.ShedSamples() < shed && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if hog.ShedSamples() != shed {
		t.Fatalf("client saw %d shed samples, server counted %d", hog.ShedSamples(), shed)
	}
	if polite.ShedSamples() != 0 {
		t.Fatalf("polite client saw %d shed samples, want 0", polite.ShedSamples())
	}
}

// TestServerDrainRejectsNewChannels: after Drain, existing streams keep
// flowing but new opens are refused — the graceful-shutdown contract.
func TestServerDrainRejectsNewChannels(t *testing.T) {
	sink := newMemSink()
	srv, addr := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(Meta{ID: "live", Format: FormatCF32})
	if err != nil {
		t.Fatal(err)
	}
	srv.Drain()
	if _, err := c.Open(Meta{ID: "late", Format: FormatCF32}); err == nil ||
		!strings.Contains(err.Error(), "draining") {
		t.Fatalf("open during drain = %v, want draining rejection", err)
	}
	if err := cs.Send(band(500, 3)); err != nil {
		t.Fatalf("established stream broken by drain: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(sink.got("live")) < 500 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := len(sink.got("live")); got != 500 {
		t.Fatalf("delivered %d samples during drain, want 500", got)
	}
	// New connections are refused outright (listener closed).
	if _, err := Dial(addr); err == nil {
		t.Fatal("dial after drain succeeded")
	}
}

// TestProtocolErrors: malformed input kills the connection with an
// error frame and is counted.
func TestProtocolErrors(t *testing.T) {
	sink := newMemSink()
	srv, addr := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	// Data for a ref that was never opened.
	err = c.sendFrame(frameData, func(dst []byte) []byte {
		return append(dst, 0, 99, 0, 0, 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if c.Err() == nil || !strings.Contains(c.Err().Error(), "unopened ref") {
		t.Fatalf("client error = %v, want server error about unopened ref", c.Err())
	}
	if srv.Metrics.ProtocolErrors.Load() != 1 {
		t.Fatalf("ProtocolErrors = %d, want 1", srv.Metrics.ProtocolErrors.Load())
	}
}

// TestMetaValidation covers the open-frame bounds.
func TestMetaValidation(t *testing.T) {
	for _, m := range []Meta{
		{ID: "", Format: FormatCF32},
		{ID: strings.Repeat("x", 300), Format: FormatCF32},
		{ID: "ok", Format: Format(9)},
	} {
		if err := m.validate(); err == nil {
			t.Fatalf("meta %+v validated", m)
		}
	}
	if err := (Meta{ID: "ok", Format: FormatCI16}).validate(); err != nil {
		t.Fatal(err)
	}
}

// TestExpositionFormat checks the Prometheus text output shape: one
// HELP/TYPE header per family, labelled samples, escapes.
func TestExpositionFormat(t *testing.T) {
	var e Exposition
	e.Metric("cfd_test_total", "counter", "A test counter.", 41)
	e.Metric("cfd_depth", "gauge", "Depth.", 2.5, "shard", "s0")
	e.Metric("cfd_depth", "gauge", "Depth.", 3, "shard", "s1")
	out := e.String()
	want := `# HELP cfd_test_total A test counter.
# TYPE cfd_test_total counter
cfd_test_total 41
# HELP cfd_depth Depth.
# TYPE cfd_depth gauge
cfd_depth{shard="s0"} 2.5
cfd_depth{shard="s1"} 3
`
	if out != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", out, want)
	}
}

// TestMetricsHandler scrapes a composed endpoint over HTTP.
func TestMetricsHandler(t *testing.T) {
	sink := newMemSink()
	srv, addr := startServer(t, ServerConfig{Sink: sink})
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cs, err := c.Open(Meta{ID: "m", Format: FormatCI16})
	if err != nil {
		t.Fatal(err)
	}
	if err := cs.Send(band(256, 1)); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for srv.Metrics.SamplesIn.Load() < 256 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	ts := httptest.NewServer(Handler(func(e *Exposition) {
		srv.Collect(e)
		e.Metric("cfd_shard_queue_depth", "gauge", "Queued samples per shard.", 7, "shard", "shard0")
	}))
	defer ts.Close()
	resp, err := http.Get(ts.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"cfd_wire_samples_in_total 256",
		"cfd_wire_connections_active 1",
		`cfd_shard_queue_depth{shard="shard0"} 7`,
		"# TYPE cfd_wire_samples_in_total counter",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("metrics body missing %q:\n%s", want, body)
		}
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
}

// TestBucket covers the token-bucket refill arithmetic.
func TestBucket(t *testing.T) {
	b := newBucket(1000, 500)
	now := time.Now()
	if !b.take(500, now) {
		t.Fatal("full bucket refused its burst")
	}
	if b.take(1, now) {
		t.Fatal("empty bucket granted tokens")
	}
	// 100 ms refills 100 tokens at 1000/s.
	if !b.take(90, now.Add(100*time.Millisecond)) {
		t.Fatal("refilled bucket refused 90 of ~100 tokens")
	}
	// Refill caps at burst.
	if b.take(501, now.Add(time.Hour)) {
		t.Fatal("bucket exceeded burst after long idle")
	}
	if !b.take(500, now.Add(time.Hour)) {
		t.Fatal("bucket did not cap at burst")
	}
}
