package main

import (
	"fmt"
	"runtime/metrics"
	"sync"
	"sync/atomic"
	"time"

	"tiledcfd/internal/detect"
	"tiledcfd/internal/shard"
	"tiledcfd/internal/stream"
	"tiledcfd/internal/wire"
)

// system is one serving deployment under test, built fresh for every
// phase so that no engine state carries from one phase to the next.
type system struct {
	w     *workload
	ids   []string
	index map[string]int // channel id → index; read-only after setup
	send  func(ch int, x []complex128) error
	recv  func() (stream.Decision, bool)
	close func()

	router *shard.Router  // wire only
	srv    *wire.Server   // wire only
	eng    *stream.Engine // in-process only
}

// sysOpts selects how a system is built.
type sysOpts struct {
	// tr, when set, decorates the estimator and decider and stamps the
	// bench's own steps.
	tr *tracer
	// wrapDecider, when set, wraps the decider before tracing; tests use
	// it to plant a wrong verdict the correctness gate must catch.
	wrapDecider func(detect.Decider) detect.Decider
}

// channelIDs names n channels.
func channelIDs(n int) ([]string, map[string]int) {
	ids := make([]string, n)
	index := make(map[string]int, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("ch%02d", i)
		index[ids[i]] = i
	}
	return ids, index
}

// newSystem builds the deployment of a streaming workload: estimators
// and deciders, the engine or the router, and for the wire workload the
// server listen, the client dials and every channel open. It returns
// once every channel is ready for its first sample. Engines run in Block
// mode, so a full ring holds its producer back (through TCP behind the
// wire) and no phase loses samples.
func newSystem(w *workload, o sysOpts) (*system, error) {
	est := w.streamingEstimator()
	dec, err := w.newDecider()
	if err != nil {
		return nil, err
	}
	if o.wrapDecider != nil {
		dec = o.wrapDecider(dec)
	}
	if o.tr != nil {
		est = tracedEstimator{inner: est, tr: o.tr}
		dec = tracedDecider{inner: dec, tr: o.tr}
	}
	cfg := stream.Config{
		Estimator:       est,
		SnapshotSamples: w.window,
		RingSamples:     w.ring,
		Decider:         dec,
		Block:           true,
		AlphaCandidates: w.alphas,
	}
	s := &system{w: w}
	s.ids, s.index = channelIDs(w.channels)
	if w.kind == kindWire {
		err = s.startWire(cfg, o.tr)
	} else {
		err = s.startStream(cfg, o.tr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: setup: %w", w.name, err)
	}
	return s, nil
}

// startStream builds the in-process engine.
func (s *system) startStream(cfg stream.Config, tr *tracer) error {
	eng, err := stream.New(cfg)
	if err != nil {
		return err
	}
	for i, id := range s.ids {
		if err := tr.addChannel(i, func() error { return eng.AddChannel(id) }); err != nil {
			eng.Close()
			return err
		}
	}
	s.eng = eng
	s.send = func(ch int, x []complex128) error {
		_, err := eng.Push(s.ids[ch], x)
		return err
	}
	s.recv = func() (stream.Decision, bool) {
		d, ok := <-eng.Decisions()
		return d, ok
	}
	s.close = func() { eng.Close() }
	return nil
}

// startWire builds the cfdserve-style deployment: a two-shard router
// behind a wire server on loopback, fed by w.conns client connections
// that share the channels.
func (s *system) startWire(cfg stream.Config, tr *tracer) error {
	r, err := shard.New(shard.Config{Shards: 2, Engine: cfg})
	if err != nil {
		return err
	}
	var clients []*wire.Client
	var srv *wire.Server
	closeAll := func() {
		for _, c := range clients {
			c.Close()
		}
		if srv != nil {
			srv.Close()
		}
		r.Close()
	}
	sink := &routerSink{r: r, tr: tr, index: s.index, fed: make([]int64, len(s.ids))}
	if srv, err = wire.NewServer(wire.ServerConfig{Sink: sink}); err != nil {
		closeAll()
		return err
	}
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		closeAll()
		return err
	}
	for c := 0; c < s.w.conns; c++ {
		cl, err := wire.Dial(addr.String())
		if err != nil {
			closeAll()
			return err
		}
		clients = append(clients, cl)
	}
	streams := make([]*wire.ChannelStream, len(s.ids))
	for i, id := range s.ids {
		cl := clients[i*len(clients)/len(s.ids)]
		if streams[i], err = cl.Open(wire.Meta{ID: id, Format: wire.FormatCF32, SampleRateHz: 1e6}); err != nil {
			closeAll()
			return err
		}
	}
	s.router, s.srv = r, srv
	s.send = func(ch int, x []complex128) error { return streams[ch].Send(x) }
	s.recv = func() (stream.Decision, bool) {
		d, ok := <-r.Decisions()
		return d.Decision, ok
	}
	s.close = closeAll
	return nil
}

// routerSink is the bench's wire.Sink: it routes decoded blocks to the
// shard router and, when tracing, stamps the server-side step.
type routerSink struct {
	r     *shard.Router
	tr    *tracer
	index map[string]int
	// fed counts each channel's samples handed to the router. A channel
	// lives on one connection, so one serve goroutine writes its slot.
	fed []int64
}

func (s *routerSink) OpenChannel(meta wire.Meta) error {
	ch, ok := s.index[meta.ID]
	if !ok {
		return fmt.Errorf("bench: unexpected channel %q", meta.ID)
	}
	return s.tr.addChannel(ch, func() error { return s.r.AddChannel(meta.ID) })
}

func (s *routerSink) Push(id string, samples []complex128) (int, error) {
	if s.tr == nil {
		return s.r.Push(id, samples)
	}
	ch := s.index[id]
	n0 := s.fed[ch]
	s.fed[ch] += int64(len(samples))
	t0 := s.tr.now()
	n, err := s.r.Push(id, samples)
	t1 := s.tr.now()
	s.tr.sinkDur.add(t1 - t0)
	s.tr.stamp(ch, n0, s.fed[ch], fSinkStart, t0, fSinkEnd, t1)
	return n, err
}

// counters is the system's sample accounting.
type counters struct {
	// delivered counts samples that reached the engine layer (the wire
	// server has read and decoded them); accepted those taken into rings,
	// dropped those discarded by a full ring, shed those refused by a
	// quota or an unreachable shard.
	delivered, accepted, dropped, shed, queued int64
}

func (s *system) counters() counters {
	if s.router != nil {
		st := s.router.Stats()
		srvShed := s.srv.Metrics.SamplesShed.Load()
		return counters{
			delivered: s.srv.Metrics.SamplesIn.Load() + srvShed,
			accepted:  st.SamplesIn,
			dropped:   st.SamplesDropped,
			shed:      st.ShedSamples + srvShed,
			queued:    st.QueuedSamples,
		}
	}
	st := s.eng.Stats()
	return counters{
		delivered: st.SamplesIn + st.SamplesDropped,
		accepted:  st.SamplesIn,
		dropped:   st.SamplesDropped,
		queued:    st.QueuedSamples,
	}
}

// channelCounts returns one channel's accepted and dropped samples.
func (s *system) channelCounts(ch int) (accepted, dropped int64) {
	if s.router != nil {
		cs, _ := s.router.ChannelStats(s.ids[ch])
		return cs.SamplesIn, cs.SamplesDropped
	}
	cs, _ := s.eng.ChannelStats(s.ids[ch])
	return cs.SamplesIn, cs.SamplesDropped
}

func (s *system) flush(timeout time.Duration) error {
	if s.router != nil {
		return s.router.Flush(timeout)
	}
	return s.eng.Flush(timeout)
}

// settle waits until the system holds every offered sample and has made
// every due decision.
func (s *system) settle(offered int64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for s.counters().delivered < offered {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: server took %d of %d offered samples within %v",
				s.w.name, s.counters().delivered, offered, timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return s.flush(time.Until(deadline))
}

// decRec is one received decision.
type decRec struct {
	seq, total int64
	stat       float64
	detected   bool
	at         time.Time
}

// collector is the bench's single decision consumer.
type collector struct {
	per     [][]decRec // per channel; read only after done
	unknown int
	count   atomic.Int64
	done    chan struct{}
}

// collect starts the consumer goroutine; it ends when the system's
// decision stream closes (system close).
func (s *system) collect(tr *tracer) *collector {
	c := &collector{per: make([][]decRec, len(s.ids)), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		for {
			d, ok := s.recv()
			if !ok {
				return
			}
			now := time.Now()
			ch, known := s.index[d.Channel]
			if !known {
				c.unknown++
				continue
			}
			c.per[ch] = append(c.per[ch], decRec{seq: d.Seq, total: d.TotalSamples, stat: d.Statistic, detected: d.Detected, at: now})
			if tr != nil {
				tr.stamp(ch, d.TotalSamples-1, d.TotalSamples, fRecv, tr.at(now), -1, 0)
			}
			c.count.Add(1)
		}
	}()
	return c
}

// waitFor waits until n decisions arrived, reporting whether they did.
func (c *collector) waitFor(n int64, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for c.count.Load() < n {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// shutdown closes the system and waits for the consumer to finish, after
// which c.per may be read.
func (s *system) shutdown(c *collector) {
	s.close()
	<-c.done
}

// sendChunk sends samples [from, from+n) of channel ch's cyclic pool,
// stamping the send step when tracing. It returns the grown scratch.
func (s *system) sendChunk(buf []complex128, pools [][]complex64, ch int, from int64, n int, tr *tracer, due time.Time) ([]complex128, error) {
	buf = widen(buf, pools[ch], from, n)
	if tr == nil {
		return buf, s.send(ch, buf)
	}
	t0 := tr.now()
	err := s.send(ch, buf)
	t1 := tr.now()
	tr.sendNs.Add(t1 - t0)
	tr.sendFrames.Add(int64(framesFor(n)))
	tr.stamp(ch, from, from+int64(n), fSendStart, t0, fSendEnd, t1)
	if !due.IsZero() {
		tr.stamp(ch, from, from+int64(n), fDue, tr.at(due), -1, 0)
	}
	return buf, err
}

// framesFor is the number of data frames wire.ChannelStream.Send splits
// n cf32 samples into.
func framesFor(n int) int {
	limit := (wire.DefaultMaxFrameBytes - 16) / wire.FormatCF32.SampleBytes()
	return (n + limit - 1) / limit
}

// openLoop is the record of one open-loop phase. Channel ch's sample n
// is due at tick ceil((n+1-offset[ch])/chunk): the generator sends each
// channel's pre-roll offset at tick 0 and chunk samples per tick after.
type openLoop struct {
	t0      time.Time
	tickNs  float64
	chunk   int64
	offsets []int64
	sent    []int64
	lagNs   []float64 // lateness of every tick
}

// dueOf returns when the last sample of the window ending at end was due.
func (o *openLoop) dueOf(ch int, end int64) time.Time {
	k := end - o.offsets[ch]
	j := int64(0)
	if k > 0 {
		j = (k + o.chunk - 1) / o.chunk
	}
	return o.t0.Add(time.Duration(float64(j) * o.tickNs))
}

// runOpenLoop offers the workload's frozen rate for dur: one generator
// (this goroutine) sends each channel's due samples every tick. A system
// that falls behind holds the generator back; it then sends the ticks it
// missed at once, so the samples offered depend only on rate and dur.
// Channel phases are staggered by
// i·W/channels samples so that windows do not all complete on one tick.
func (s *system) runOpenLoop(pools [][]complex64, rate float64, dur time.Duration, tr *tracer) (*openLoop, error) {
	w := s.w
	n := len(s.ids)
	o := &openLoop{
		tickNs:  float64(w.openChunk*n) / rate * 1e9,
		chunk:   int64(w.openChunk),
		offsets: make([]int64, n),
		sent:    make([]int64, n),
	}
	for i := range o.offsets {
		o.offsets[i] = int64(i * w.window / n)
	}
	var buf []complex128
	o.t0 = time.Now()
	for j := int64(0); ; j++ {
		due := o.t0.Add(time.Duration(float64(j) * o.tickNs))
		if due.Sub(o.t0) > dur {
			break
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		o.lagNs = append(o.lagNs, float64(time.Since(due)))
		for i := range o.sent {
			target := o.offsets[i] + j*o.chunk
			if target <= o.sent[i] {
				continue
			}
			var err error
			if buf, err = s.sendChunk(buf, pools, i, o.sent[i], int(target-o.sent[i]), tr, due); err != nil {
				return nil, fmt.Errorf("%s: open loop send on channel %d: %w", w.name, i, err)
			}
			o.sent[i] = target
		}
	}
	return o, nil
}

// saturation is the record of one closed-loop saturation phase.
type saturation struct {
	pushed []int64 // samples per channel, whole windows
	start  time.Time
}

// runSaturation pushes whole windows round-robin as fast as the system
// accepts them (Block engines, TCP backpressure behind the wire) until
// minDur has passed, and with wholePools until each channel has also sent
// every window of its pool, then waits for every decision. A channel that
// is done stops while the others finish their pools.
func (s *system) runSaturation(pools [][]complex64, c *collector, minDur time.Duration, wholePools bool, tr *tracer) (*saturation, error) {
	w := s.w
	st := &saturation{pushed: make([]int64, len(s.ids))}
	var buf []complex128
	start := time.Now()
	done := func(i int) bool {
		p := st.pushed[i]
		return p%int64(w.window) == 0 && (!wholePools || p >= int64(len(pools[i]))) && time.Since(start) >= minDur
	}
	for busy := true; busy; {
		busy = false
		for i := range st.pushed {
			if done(i) {
				continue
			}
			busy = true
			var err error
			if buf, err = s.sendChunk(buf, pools, i, st.pushed[i], w.satChunk, tr, time.Time{}); err != nil {
				return nil, fmt.Errorf("%s: saturation send on channel %d: %w", w.name, i, err)
			}
			st.pushed[i] += int64(w.satChunk)
		}
	}
	var total int64
	for _, p := range st.pushed {
		total += p
	}
	if err := s.settle(total, 2*time.Minute); err != nil {
		return nil, err
	}
	if want := total / int64(w.window); !c.waitFor(want, time.Minute) {
		return nil, fmt.Errorf("%s: saturation: %d of %d decisions arrived", w.name, c.count.Load(), want)
	}
	st.start = start
	return st, nil
}

// samples returns the phase's total samples.
func (st *saturation) samples() int64 {
	var t int64
	for _, p := range st.pushed {
		t += p
	}
	return t
}

// sampler polls the heap and the ingestion queue every 10 ms. It keeps
// the live heap of every GC cycle that ends while it runs.
type sampler struct {
	stop      chan struct{}
	wg        sync.WaitGroup
	cycleLive []float64 // bytes marked live, one per completed GC cycle
	queuePeak int64
}

// heapReading returns the number of completed GC cycles and the heap
// the last one marked live.
func heapReading() (cycles, live uint64) {
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 || s[1].Value.Kind() != metrics.KindUint64 {
		return 0, 0
	}
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// liveHeap returns the heap the last GC marked live.
func liveHeap() uint64 {
	_, live := heapReading()
	return live
}

func startSampler(queued func() int64) *sampler {
	sp := &sampler{stop: make(chan struct{})}
	last, _ := heapReading()
	sp.wg.Add(1)
	go func() {
		defer sp.wg.Done()
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			if c, live := heapReading(); c != last {
				last = c
				sp.cycleLive = append(sp.cycleLive, float64(live))
			}
			if queued != nil {
				if q := queued(); q > sp.queuePeak {
					sp.queuePeak = q
				}
			}
			select {
			case <-sp.stop:
				return
			case <-t.C:
			}
		}
	}()
	return sp
}

// finish stops the sampler; its peaks may be read afterwards.
func (sp *sampler) finish() {
	close(sp.stop)
	sp.wg.Wait()
}

// runtimeCounters reads the runtime totals the per-layer metrics use.
type runtimeCounters struct {
	totalAlloc               uint64
	gcCPU, idleCPU, totalCPU float64
}

func readRuntime() runtimeCounters {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	var rc runtimeCounters
	if s[0].Value.Kind() == metrics.KindUint64 {
		rc.totalAlloc = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		rc.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		rc.totalCPU = s[2].Value.Float64()
	}
	if s[3].Value.Kind() == metrics.KindFloat64 {
		rc.idleCPU = s[3].Value.Float64()
	}
	return rc
}

// allocMBPerMsample and gcCPUFrac turn two runtime readings around a
// phase of n samples into the runtime per-layer metrics.
func allocMBPerMsample(a, b runtimeCounters, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(b.totalAlloc-a.totalAlloc) / 1e6 / (float64(n) / 1e6)
}

// busyCPUPerMsample is the CPU time the Go runtime counts as not idle
// (scheduler spinning included) per million samples.
func busyCPUPerMsample(a, b runtimeCounters, n int64) float64 {
	busy := (b.totalCPU - b.idleCPU) - (a.totalCPU - a.idleCPU)
	return busy / (float64(n) / 1e6)
}

func gcCPUFrac(a, b runtimeCounters) float64 {
	if b.totalCPU <= a.totalCPU {
		return 0
	}
	return (b.gcCPU - a.gcCPU) / (b.totalCPU - a.totalCPU)
}
