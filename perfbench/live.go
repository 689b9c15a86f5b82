package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"iqpaths/internal/live"
	"iqpaths/internal/live/testbed"
	"iqpaths/internal/monitor"
	"iqpaths/internal/pgos"
	"iqpaths/internal/sched"
	"iqpaths/internal/stream"
	"iqpaths/internal/telemetry"
	"iqpaths/internal/transport"
)

// Live-pipeline constants shared by every live workload.
const (
	tickSec = 0.005
	twSec   = 0.5
	// graceNanos extends each wire deadline before an arrival counts as
	// late, as the sink accountant allows.
	graceNanos = int64(100 * time.Millisecond)
	// warmupSec of traffic runs between set-up and the measured interval.
	warmupSec = 1.0
	// skipWindows are the warm-up windows the accountant discards.
	skipWindows = 2
	// monWindow/monWarm size every path monitor, as in the live e2e test.
	monWindow, monWarm = 64, 8
	// probeIntervalSec paces the probers of probing workloads.
	probeIntervalSec = 0.15
	// warmTimeout bounds set-up's wait for warm monitors.
	warmTimeout = 30 * time.Second
	// drainTimeout bounds the wait for backlogs and wires to empty.
	drainTimeout = 20 * time.Second
	// leakTimeout bounds the wait for goroutines and wire buffers to
	// return after teardown.
	leakTimeout = 5 * time.Second
	bindPrefix  = "perfbench-path "
)

// liveConfig describes one live workload.
type liveConfig struct {
	specs []stream.Spec
	// paths is the number of paths; with sharded, one path per shard.
	paths   int
	sharded bool
	// shapes, when set, puts a testbed relay with shapes[j] on path j;
	// otherwise each path dials the sink directly.
	shapes []testbed.LinkShape
	// probe warms the monitors with live.Prober trains answered by a
	// Responder at the sink; otherwise synthMbps feeds them seeded
	// synthetic capacity samples.
	probe     bool
	synthMbps float64
	// pctlP is the guarantee probability whose predicted percentile
	// monitor.pctl_miss_frac checks.
	pctlP float64
	// setups is how many times set-up runs; setup_s is their median.
	setups int
	// sampleEvery: latency, on-time and packet spans cover the packets
	// whose ID is a multiple of sampleEvery.
	sampleEvery uint64
	// newGen builds the traffic generator for the measured run.
	newGen func(rng *rand.Rand) generator
}

// generator offers, through b.offer, the packets due by now (ns since
// the time base).
type generator interface {
	step(b *liveBench, now int64)
}

// liveBench is one set-up instance of the live pipeline.
type liveBench struct {
	cfg   *liveConfig
	base  time.Time
	clock *live.WallClock
	tr    *tracer
	chk   *checks
	reg   *telemetry.Registry
	acct  *live.Account

	ln         *transport.RUDPListener
	relays     []*testbed.Relay
	relayStart []time.Time
	conns      []*transport.RUDPConn
	paths      []*transport.Path
	wraps      []*pathWrap
	sinks      []*sinkPath
	sinkWG     sync.WaitGroup

	drv        *live.Driver
	sdrv       *live.ShardedDriver
	offerFn    func(i int, bits float64) bool
	cancel     context.CancelFunc
	runWG      sync.WaitGroup
	runStartNs int64
	genCtx     context.Context
	driverCtx  context.Context

	// latClass marks the streams latency and on-time are judged on: the
	// guaranteed ones, or every stream when none is guaranteed.
	latClass []bool

	// Generator state, owned by the driver goroutine.
	log   offerLog
	gen   generator
	genOn atomic.Bool
	// dueLat counts latency-class packets due in each one-second slice
	// of [t0, t1).
	dueLat   []uint64
	synthRng *rand.Rand
	ticks    tickTimer
	offers   atomic.Uint64
	refused  atomic.Uint64

	// measuredSends counts path-accepted packets in [t0, t1) (traced).
	measuredSends atomic.Uint64

	// Monitor calibration against benchmark-owned shadow monitors.
	shadowMu sync.Mutex
	shadow   []*monitor.PathMonitor
	pctlN    int
	pctlMiss int
	warmSec  float64

	// Measured interval [t0, t1) in ns since base, set before traffic.
	t0, t1 atomic.Int64
}

func (b *liveBench) now() int64 { return int64(time.Since(b.base)) }

// inInterval reports whether t (ns since base) is in [t0, t1).
func (b *liveBench) inInterval(t int64) bool { return t >= b.t0.Load() && t < b.t1.Load() }

// slice returns which one-second slice of [t0, t1) holds t.
func (b *liveBench) slice(t int64) int {
	t0, t1, n := b.t0.Load(), b.t1.Load(), int64(len(b.dueLat))
	return int(min(n-1, max(0, (t-t0)*n/(t1-t0))))
}

// sinkPath is the sink's view of one path, owned by that path's sink
// goroutine until it exits.
type sinkPath struct {
	fifo *pathFIFO
	// rxPkts/rxBytes count every data packet and payload byte received;
	// the measuring goroutine reads them at slice boundaries.
	rxPkts, rxBytes atomic.Uint64
	lat             [][]float64 // ms, latency-class packets due in [t0, t1), per slice
	onTime          uint64      // of those, arrived by deadline+grace
}

// tickTimer times each driver tick from the outside: OnTick entry and
// return, then the first and last path FlushTick. It is touched only on
// the driver goroutine.
type tickTimer struct {
	nPaths                    int
	tick                      int64
	enter, genEnd, flushStart int64
	flushed                   int
	measured                  uint64 // ticks entered in [t0, t1)
}

func (t *tickTimer) flushEnter(b *liveBench) {
	if t.flushed == 0 {
		t.flushStart = b.now()
	}
}

func (t *tickTimer) flushExit(b *liveBench) {
	t.flushed++
	if t.flushed != t.nPaths || b.tr == nil || !b.inInterval(t.enter) {
		return
	}
	end := b.now()
	layer := "pgos.tick"
	if b.sdrv != nil {
		layer = "shard.tick"
	}
	id := uint64(t.tick)
	b.tr.sample(layer+"_us", float64(t.flushStart-t.genEnd)/1e3)
	b.tr.span(span{Name: "live.tick", Trace: "tick", ID: id, Start: t.enter, End: end})
	b.tr.span(span{Name: "gen.ontick", Trace: "tick", ID: id, Parent: "live.tick", Start: t.enter, End: t.genEnd})
	b.tr.span(span{Name: layer, Trace: "tick", ID: id, Parent: "live.tick", Start: t.genEnd, End: t.flushStart})
	b.tr.span(span{Name: "flush", Trace: "tick", ID: id, Parent: "live.tick", Start: t.flushStart, End: end})
}

// onTick is the driver's OnTick hook: the synthetic monitor feed, then
// the generator under the "gen" profiler label until t1.
func (b *liveBench) onTick(tick int64) {
	t := &b.ticks
	t.tick, t.flushed = tick, 0
	t.enter = b.now()
	if b.inInterval(t.enter) {
		t.measured++
		if b.tr != nil {
			due := b.runStartNs + int64(float64(tick+1)*tickSec*1e9)
			b.tr.sample("live.tick_late_ms", float64(t.enter-due)/1e6)
		}
	}
	if !b.cfg.probe && tick%20 == 0 {
		b.feedSynthetic()
	}
	if b.genOn.Load() && t.enter < b.t1.Load() {
		pprof.SetGoroutineLabels(b.genCtx)
		b.gen.step(b, t.enter)
		pprof.SetGoroutineLabels(b.driverCtx)
	}
	t.genEnd = b.now()
}

// offer enqueues one packet of stream i due at due (ns since base). The
// k-th call gets packet ID k.
func (b *liveBench) offer(i int, bits float64, due int64) bool {
	start := b.now()
	ok := b.offerFn(i, bits)
	var offEnd int64
	traced := b.tr != nil && b.inInterval(start)
	if traced {
		offEnd = b.now()
		b.tr.sample("live.offer_us", float64(offEnd-start)/1e3)
		b.tr.sample("gen.late_ms", float64(start-due)/1e6)
	}
	id := b.offers.Add(1)
	b.log.add(due, i, offEnd)
	if b.latClass[i] && b.inInterval(due) && id%b.cfg.sampleEvery == 0 {
		b.dueLat[b.slice(due)]++
	}
	if !ok {
		b.refused.Add(1)
	}
	return ok
}

// feedSynthetic gives every path monitor one seeded capacity sample.
func (b *liveBench) feedSynthetic() {
	for j := 0; j < b.cfg.paths; j++ {
		mbps := b.cfg.synthMbps * (1 + 0.03*b.synthRng.NormFloat64())
		b.observe(j, mbps, mbps)
	}
}

// observe feeds one bandwidth sample to path j's driver monitor, first
// scoring the shadow monitor's predicted percentile against the path's
// true available bandwidth.
func (b *liveBench) observe(j int, mbps, truth float64) {
	b.shadowMu.Lock()
	sh := b.shadow[j]
	if sh.Warm() {
		b.pctlN++
		if truth < sh.Percentile(1-b.cfg.pctlP) {
			b.pctlMiss++
		}
	}
	sh.ObserveBandwidth(mbps)
	b.shadowMu.Unlock()
	if b.sdrv != nil {
		b.sdrv.ObserveBandwidth(j, 0, mbps)
	} else {
		b.drv.ObserveBandwidth(j, mbps)
	}
}

func (b *liveBench) warm() bool {
	if b.sdrv != nil {
		return b.sdrv.Warm()
	}
	return b.drv.Warm()
}

func (b *liveBench) tick() int64 {
	if b.sdrv != nil {
		return b.sdrv.Tick()
	}
	return b.drv.Tick()
}

// newLiveBench sets up the pipeline for cfg. On error the caller still
// calls teardown.
func newLiveBench(cfg *liveConfig, seed int64, tr *tracer, chk *checks) (*liveBench, error) {
	b := &liveBench{
		cfg:      cfg,
		base:     time.Now(),
		clock:    live.NewWallClock(),
		tr:       tr,
		chk:      chk,
		reg:      telemetry.NewRegistry(),
		acct:     live.NewAccount(nil),
		synthRng: rand.New(rand.NewSource(seed*7919 + 1)),
		latClass: make([]bool, len(cfg.specs)),
	}
	bg := context.Background()
	b.driverCtx = pprof.WithLabels(bg, pprof.Labels("layer", "driver"))
	b.genCtx = pprof.WithLabels(bg, pprof.Labels("layer", "gen"))
	transport.SetTelemetry(b.reg)

	anyGuaranteed := false
	for _, sp := range cfg.specs {
		anyGuaranteed = anyGuaranteed || sp.Kind != stream.BestEffort
	}
	for i, sp := range cfg.specs {
		b.latClass[i] = !anyGuaranteed || sp.Kind != stream.BestEffort
		if sp.Kind != stream.BestEffort {
			b.acct.Register(live.Contract{
				Stream:       uint32(i),
				Name:         sp.Name,
				QuotaPackets: int(sp.RequiredMbps * 1e6 * twSec / sp.PacketBits),
				WindowNanos:  int64(twSec * 1e9),
				GraceNanos:   graceNanos,
				SkipWindows:  skipWindows,
			})
		}
	}

	n := cfg.paths
	b.sinks = make([]*sinkPath, n)
	for j := range b.sinks {
		b.sinks[j] = &sinkPath{fifo: &pathFIFO{}}
	}
	var err error
	pprof.Do(bg, pprof.Labels("layer", "sink"), func(context.Context) {
		b.ln, err = transport.ListenRUDP("127.0.0.1:0")
		if err == nil {
			b.sinkWG.Add(1)
			go b.accept()
		}
	})
	if err != nil {
		return b, fmt.Errorf("listen: %w", err)
	}

	targets := make([]string, n)
	for j := range targets {
		targets[j] = b.ln.Addr()
	}
	pprof.Do(bg, pprof.Labels("layer", "relay"), func(context.Context) {
		for j, shape := range cfg.shapes {
			var r *testbed.Relay
			start := time.Now()
			r, err = testbed.NewRelay("127.0.0.1:0", b.ln.Addr(), shape, seed*31+int64(j))
			if err != nil {
				return
			}
			b.relays = append(b.relays, r)
			b.relayStart = append(b.relayStart, start)
			targets[j] = r.Addr()
		}
	})
	if err != nil {
		return b, fmt.Errorf("relay: %w", err)
	}

	services := make([]sched.PathService, n)
	mons := make([]*monitor.PathMonitor, n)
	b.ticks.nPaths = n
	pprof.Do(bg, pprof.Labels("layer", "wire"), func(context.Context) {
		for j := 0; j < n; j++ {
			var c *transport.RUDPConn
			c, err = transport.DialRUDP(targets[j], 5*time.Second)
			if err != nil {
				return
			}
			b.conns = append(b.conns, c)
			bind := &transport.Message{Kind: transport.KindControl, Payload: []byte(bindPrefix + strconv.Itoa(j))}
			if err = c.Send(bind); err != nil {
				return
			}
			name := fmt.Sprintf("path%d", j)
			p := transport.NewPath(j, name, &connWrap{RUDPConn: c, fifo: b.sinks[j].fifo, b: b}, 0)
			p.SetTickPaced(true)
			b.paths = append(b.paths, p)
			w := &pathWrap{inner: p, fifo: b.sinks[j].fifo, b: b}
			b.wraps = append(b.wraps, w)
			services[j] = w
			mons[j] = monitor.New(name, monWindow, monWarm)
			b.shadow = append(b.shadow, monitor.New(name, monWindow, monWarm))
		}
	})
	if err != nil {
		return b, fmt.Errorf("dial: %w", err)
	}

	dcfg := live.Config{
		TickSeconds: tickSec,
		TwSec:       twSec,
		Clock:       b.clock,
		Telemetry:   b.reg,
		OnTick:      b.onTick,
	}
	if cfg.sharded {
		doms := make([]live.ShardDomain, n)
		for j := range doms {
			doms[j] = live.ShardDomain{Paths: services[j : j+1], Mons: mons[j : j+1]}
		}
		pprof.Do(bg, pprof.Labels("layer", "driver"), func(context.Context) {
			b.sdrv = live.NewShardedDriver(live.ShardedConfig{Config: dcfg}, doms)
		})
		for i, sp := range cfg.specs {
			if id, _ := b.sdrv.AddStream(sp); id != i {
				return b, fmt.Errorf("stream %d admitted as %d", i, id)
			}
		}
		b.offerFn = func(i int, bits float64) bool {
			b.sdrv.Offer(i, bits)
			return true
		}
	} else {
		b.drv = live.NewDriver(dcfg, cfg.specs, services, mons)
		b.offerFn = b.drv.Offer
	}
	if !cfg.probe {
		for k := 0; k < monWindow; k++ {
			b.feedSynthetic()
		}
	}

	ctx, cancel := context.WithCancel(bg)
	b.cancel = cancel
	b.runStartNs = b.now()
	b.runWG.Add(1)
	go func() {
		defer b.runWG.Done()
		pprof.SetGoroutineLabels(b.driverCtx)
		if b.sdrv != nil {
			b.sdrv.Run(ctx)
		} else {
			b.drv.Run(ctx)
		}
	}()

	warmStart := time.Now()
	if cfg.probe {
		b.startProbers(ctx)
	}
	for !b.warm() {
		if time.Since(warmStart) > warmTimeout {
			return b, fmt.Errorf("monitors not warm after %v", warmTimeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
	b.warmSec = time.Since(warmStart).Seconds()
	return b, nil
}

// startProbers runs one live.Prober per path under the "probe" label;
// the sink answers with a Responder.
func (b *liveBench) startProbers(ctx context.Context) {
	pprof.Do(ctx, pprof.Labels("layer", "probe"), func(ctx context.Context) {
		for j, c := range b.conns {
			j := j
			p := live.NewProber(live.ProbeConfig{IntervalSec: probeIntervalSec}, b.clock, c)
			p.OnBandwidth = func(mbps float64) { b.observe(j, mbps, b.truth(j)) }
			p.OnRTT = func(sec float64) { b.drv.ObserveRTT(j, sec) }
			p.OnLoss = func(rate float64) { b.drv.ObserveLoss(j, rate) }
			live.Bind(c, p, nil)
			b.runWG.Add(1)
			go func() {
				defer b.runWG.Done()
				p.Run(ctx)
			}()
		}
	})
}

// truth is path j's true available bandwidth now, from its relay shape.
func (b *liveBench) truth(j int) float64 {
	return b.cfg.shapes[j].AvailMbps(time.Since(b.relayStart[j]).Seconds())
}

// accept serves each new sink session on its own goroutine.
func (b *liveBench) accept() {
	defer b.sinkWG.Done()
	for {
		c, err := b.ln.Accept()
		if err != nil {
			return
		}
		if b.cfg.probe {
			live.Bind(c, nil, live.NewResponder(b.clock, c))
		}
		b.sinkWG.Add(1)
		go b.serve(c)
	}
}

// arrival is one message the sink received, stamped at Recv return.
type arrival struct {
	m   *transport.Message
	now time.Time
}

// inbox hands arrivals from a session's Recv goroutine to its sink
// goroutine in batches, without bound, so Recv never waits on the sink.
type inbox struct {
	mu     sync.Mutex
	buf    []arrival
	closed bool
	wake   chan struct{} // capacity 1: one pending wake-up covers any batch
}

func (q *inbox) put(a arrival, closed bool) {
	q.mu.Lock()
	if closed {
		q.closed = true
	} else {
		q.buf = append(q.buf, a)
	}
	q.mu.Unlock()
	select {
	case q.wake <- struct{}{}:
	default:
	}
}

// take swaps out everything queued, waiting for at least one arrival;
// it returns false once the inbox is closed and drained.
func (q *inbox) take(spare []arrival) ([]arrival, bool) {
	for {
		q.mu.Lock()
		batch, closed := q.buf, q.closed
		if len(batch) > 0 {
			q.buf = spare[:0]
		}
		q.mu.Unlock()
		if len(batch) > 0 {
			return batch, true
		}
		if closed {
			return nil, false
		}
		<-q.wake
	}
}

// serve is the sink for one path: the first control message binds the
// session to its path, then every data message is matched, accounted
// and measured. Recv runs on a goroutine of its own that only stamps and
// queues, because RUDPConn drops in-order messages, already acked, when
// its 1024-message receive queue is full.
func (b *liveBench) serve(c *transport.RUDPConn) {
	defer b.sinkWG.Done()
	q := &inbox{wake: make(chan struct{}, 1)}
	b.sinkWG.Add(1)
	go func() {
		defer b.sinkWG.Done()
		for {
			m, err := c.Recv()
			if err != nil {
				q.put(arrival{}, true)
				return
			}
			q.put(arrival{m, time.Now()}, false)
		}
	}()
	var sp *sinkPath
	var batch []arrival
	for {
		var ok bool
		if batch, ok = q.take(batch); !ok {
			return
		}
		for _, a := range batch {
			sp = b.handle(sp, a)
		}
	}
}

// handle processes one arrival on path sp, returning the path the
// session is bound to.
func (b *liveBench) handle(sp *sinkPath, a arrival) *sinkPath {
	switch a.m.Kind {
	case transport.KindControl:
		if s, ok := strings.CutPrefix(string(a.m.Payload), bindPrefix); ok {
			if j, err := strconv.Atoi(s); err == nil && j >= 0 && j < len(b.sinks) {
				return b.sinks[j]
			}
		}
	case transport.KindData:
		if sp == nil {
			b.chk.fail("sink received data on an unbound session")
			return nil
		}
		b.deliver(sp, a.m, a.now)
	}
	return sp
}

func (b *liveBench) deliver(sp *sinkPath, m *transport.Message, now time.Time) {
	recv := int64(now.Sub(b.base))
	e, err := sp.fifo.pop(m)
	if err != nil {
		b.chk.fail("%v", err)
		return
	}
	stamp := now.UnixNano()
	var obsStart int64
	if b.tr != nil {
		obsStart = b.now()
	}
	b.acct.Observe(m.Stream, int64(m.Frame), stamp)
	obsEnd := obsStart
	if b.tr != nil {
		obsEnd = b.now()
	}
	sp.rxPkts.Add(1)
	sp.rxBytes.Add(uint64(len(m.Payload)))
	if !b.inInterval(e.due) || e.id%b.cfg.sampleEvery != 0 {
		return
	}
	if b.latClass[m.Stream] {
		k := b.slice(e.due)
		sp.lat[k] = append(sp.lat[k], float64(recv-e.due)/1e6)
		if stamp <= int64(m.Frame)+graceNanos {
			sp.onTime++
		}
	}
	if b.tr == nil {
		return
	}
	b.tr.sample("account.observe_us", float64(obsEnd-obsStart)/1e3)
	b.tr.sample("pgos.hold_ms", float64(e.sent-e.due)/1e6)
	b.tr.sample("transport.queue_us", float64(e.batchIn-e.sent)/1e3)
	var transit float64
	if e.batchOut > 0 && e.batchOut < recv {
		transit = float64(recv-e.batchOut) / 1e3
	}
	b.tr.sample("transport.transit_us", transit)
	b.tr.pktSpans(e.id, [7]int64{e.due, e.offEnd, e.sent, e.batchIn, e.batchOut, recv, obsEnd})
}

// pathCounts sums accepted and delivered packets over every path.
func (b *liveBench) pathCounts() (accepted, delivered uint64, perPath [][2]uint64) {
	for _, sp := range b.sinks {
		a, d := sp.fifo.counts()
		accepted += a
		delivered += d
		perPath = append(perPath, [2]uint64{a, d})
	}
	return accepted, delivered, perPath
}

// refusedTotal counts Offer refusals: the driver's results, or the
// shards' offer-drop counters in the benchmark's registry.
func (b *liveBench) refusedTotal() uint64 {
	if b.sdrv == nil {
		return b.refused.Load()
	}
	var n uint64
	for k := 0; k < b.sdrv.NumShards(); k++ {
		n += b.reg.WithLabels("shard", strconv.Itoa(k)).Counter("iqpaths_shard_offer_drops_total", "").Value()
	}
	return n
}

// drain waits, with the driver still running, until every offered
// packet has left its backlog and reached the sink.
func (b *liveBench) drain() {
	deadline := time.Now().Add(drainTimeout)
	for time.Now().Before(deadline) {
		acc, del, _ := b.pathCounts()
		if b.offers.Load() == acc+b.refusedTotal() && acc == del {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// stop ends the driver and probers and returns the packets still queued
// in stream backlogs.
func (b *liveBench) stop() uint64 {
	if b.cancel != nil {
		b.cancel()
	}
	b.runWG.Wait()
	var n uint64
	switch {
	case b.sdrv != nil:
		pl := b.sdrv.Plane()
		for k := 0; k < pl.NumShards(); k++ {
			sh := pl.Shard(k)
			for i := 0; i < sh.NumStreams(); i++ {
				n += uint64(sh.Stream(i).Len())
			}
		}
	case b.drv != nil:
		for i := range b.cfg.specs {
			n += uint64(b.drv.Backlog(i))
		}
	}
	// With the driver gone nothing flushes tick-paced paths; switch them
	// to eager so anything still queued reaches the wire.
	for _, p := range b.paths {
		p.SetTickPaced(false)
	}
	return n
}

// teardown releases everything set-up created. Safe on a partial set-up.
func (b *liveBench) teardown() {
	if b.cancel != nil {
		b.cancel()
	}
	b.runWG.Wait()
	if b.sdrv != nil {
		b.sdrv.Stop()
	}
	for _, p := range b.paths {
		_ = p.Close() // closes its connection too
	}
	if len(b.paths) < len(b.conns) {
		for _, c := range b.conns[len(b.paths):] {
			_ = c.Close()
		}
	}
	for _, r := range b.relays {
		quiesce(r)
		_ = r.Close()
	}
	if b.ln != nil {
		_ = b.ln.Close()
	}
	b.sinkWG.Wait()
	transport.SetTelemetry(nil)
}

// quiesce waits (at most a second) until relay r has seen no datagram
// for 20 ms, so the paths' closing frames are through it before it
// closes. Relay.Close can leak a pooled wire buffer when a datagram is
// admitted after its pace loop's final drain; closing an idle relay
// keeps that shutdown race out of the leak check.
func quiesce(r *testbed.Relay) {
	last := r.Stats()
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		s := r.Stats()
		if s == last {
			return
		}
		last = s
	}
}

// checkLeaks fails the run unless the goroutine count returns to
// goroutines and every pooled wire buffer comes home.
func checkLeaks(chk *checks, goroutines int) {
	deadline := time.Now().Add(leakTimeout)
	for {
		g, w := runtime.NumGoroutine(), transport.WireOutstanding()
		if g <= goroutines && w == 0 {
			return
		}
		if time.Now().After(deadline) {
			chk.fail("after teardown: %d goroutines (%d before set-up), %d wire buffers outstanding", g, goroutines, w)
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// outcome is what one measured run of a workload yields.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed uint64
	// latSamples latency samples were taken of dueLat packets due.
	latSamples, dueLat uint64
	// violated of windows guarantee windows were violated; violatedFrac
	// is the matrix's mean PGOS violated fraction.
	violated, windows int
	violatedFrac      float64
	setupTimes        []float64
	notes             []string // extra lines for the human-readable report
}

// runLive sets the workload up cfg.setups times (tearing down all but
// the last), then runs traffic: warm-up, the measured interval, and the
// drain. tr is nil for an untraced run.
func runLive(cfg *liveConfig, seed int64, seconds float64, tr *tracer, chk *checks) (*outcome, error) {
	out := &outcome{}
	var b *liveBench
	var g0 int
	for k := 0; k < cfg.setups; k++ {
		g0 = runtime.NumGoroutine()
		start := time.Now()
		var err error
		b, err = newLiveBench(cfg, seed, tr, chk)
		if err != nil {
			b.teardown()
			return nil, err
		}
		out.setupTimes = append(out.setupTimes, time.Since(start).Seconds())
		if k < cfg.setups-1 {
			b.teardown()
			checkLeaks(chk, g0)
		}
	}

	// One-second slices: mbps_per_core and the latency percentiles are
	// medians over slices, so a burst of machine noise or one transport
	// stall moves one slice, not the run's figure.
	nSlices := max(1, int(seconds+0.5))
	b.dueLat = make([]uint64, nSlices)
	for _, sp := range b.sinks {
		sp.lat = make([][]float64, nSlices)
	}
	b.gen = cfg.newGen(rand.New(rand.NewSource(seed)))
	t0 := b.now() + int64(warmupSec*1e9)
	t1 := t0 + int64(seconds*1e9)
	b.t0.Store(t0)
	b.t1.Store(t1)
	b.genOn.Store(true)

	time.Sleep(time.Duration(t0 - b.now()))
	var prof *cpuProfile
	if tr != nil {
		prof = startCPUProfile()
	}
	rcv0 := rcvbufErrors()
	heap := startHeapSampler()
	tick0 := b.tick()
	snaps := make([]procSnap, nSlices+1)
	rxPkts := make([]uint64, nSlices+1)
	rxBytes := make([]uint64, nSlices+1)
	for k := 0; k <= nSlices; k++ {
		if k > 0 {
			time.Sleep(time.Duration(t0 + (t1-t0)*int64(k)/int64(nSlices) - b.now()))
		}
		snaps[k] = snapProc()
		for _, sp := range b.sinks {
			rxPkts[k] += sp.rxPkts.Load()
			rxBytes[k] += sp.rxBytes.Load()
		}
	}
	tick1 := b.tick()
	heapMiB := heap.stopMiB()
	rcv1 := rcvbufErrors()
	var shares map[string]float64
	if prof != nil {
		var err error
		if shares, err = prof.stop(); err != nil {
			return nil, err
		}
	}
	iv := between(snaps[0], snaps[nSlices])
	var perCore []float64
	for k := 1; k <= nSlices; k++ {
		sl := between(snaps[k-1], snaps[k])
		perCore = append(perCore, sl.perCore(float64(rxBytes[k]-rxBytes[k-1])*8/1e6/sl.wallSec))
	}
	pkts := rxPkts[nSlices] - rxPkts[0]

	b.drain()
	backlog := b.stop()
	var stats pgos.Stats
	if b.sdrv != nil {
		stats = b.sdrv.SchedStats()
	} else {
		stats = b.drv.SchedStats()
	}
	lagResyncs := b.lagResyncs()
	offers, refused := b.offers.Load(), b.refusedTotal()
	accepted, _, _ := b.pathCounts()
	if offers != accepted+refused+backlog {
		chk.fail("offered %d != accepted %d + refused %d + backlog %d", offers, accepted, refused, backlog)
	}
	deadline := time.Now().Add(drainTimeout)
	for {
		acc, del, _ := b.pathCounts()
		if acc == del || time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	_, delivered, perPath := b.pathCounts()
	for j, pc := range perPath {
		if pc[0] != pc[1] {
			chk.fail("path %d: delivered %d of %d accepted packets after the drain", j, pc[1], pc[0])
		}
	}
	reports := b.acct.Reports(b.clock.Stamp() + int64(twSec*1e9) + graceNanos + 1)
	relayStats := b.relayStats()
	transportCounters := b.transportCounters()
	b.teardown()
	checkLeaks(chk, g0)

	out.attempted = offers
	out.failed = refused + backlog + (accepted - delivered)
	var onTime uint64
	for _, sp := range b.sinks {
		onTime += sp.onTime
	}
	// Packets due but never delivered count as over every latency limit:
	// +Inf, reported as the time since t0 when a percentile lands there.
	capInf := func(v float64) float64 {
		if math.IsInf(v, 1) {
			return float64(b.now()-t0) / 1e6
		}
		return v
	}
	var all, p50s, p99s []float64
	for k, due := range b.dueLat {
		var lat []float64
		for _, sp := range b.sinks {
			lat = append(lat, sp.lat[k]...)
		}
		out.latSamples += uint64(len(lat))
		out.dueLat += due
		for missing := int64(due) - int64(len(lat)); missing > 0; missing-- {
			lat = append(lat, math.Inf(1))
		}
		all = append(all, lat...)
		if len(lat) > 0 {
			p50s = append(p50s, capInf(quantile(lat, 0.50)))
			p99s = append(p99s, capInf(quantile(lat, 0.99)))
		}
	}
	out.notes = append(out.notes, fmt.Sprintf("latency over the whole interval: p50 %.4g ms, p99 %.4g ms, max %.4g ms",
		capInf(quantile(all, 0.50)), capInf(quantile(all, 0.99)), capInf(quantile(all, 1))))
	for _, r := range reports {
		out.windows += r.Windows
		out.violated += r.Violated
	}
	measuredSec := iv.wallSec
	out.e2e = map[string]float64{
		"setup_s":        median(out.setupTimes),
		"delivered_mbps": float64(rxBytes[nSlices]-rxBytes[0]) * 8 / 1e6 / measuredSec,
		"mbps_per_core":  median(perCore),
		"latency_p50_ms": median(p50s),
		"latency_p99_ms": median(p99s),
		"ontime_frac":    float64(onTime) / math.Max(1, float64(out.dueLat)),
		"heap_peak_mb":   heapMiB,
		"sim_speed_x":    float64(tick1-tick0) * tickSec / measuredSec,
	}
	if tr == nil {
		return out, nil
	}

	// Per-layer metrics from the traced run.
	var blocked uint64
	for _, w := range b.wraps {
		blocked += w.blocked.Load()
	}
	L := map[string]float64{
		"live.offer_us.p50":          tr.quantileOf("live.offer_us", 0.50),
		"live.offer_us.p99":          tr.quantileOf("live.offer_us", 0.99),
		"live.tick_late_ms.p99":      tr.quantileOf("live.tick_late_ms", 0.99),
		"live.lag_resyncs":           float64(lagResyncs),
		"live.offers":                float64(offers),
		"live.offer_refused":         float64(refused),
		"pgos.hold_ms.p50":           tr.quantileOf("pgos.hold_ms", 0.50),
		"pgos.hold_ms.p99":           tr.quantileOf("pgos.hold_ms", 0.99),
		"pgos.sent_per_tick.mean":    float64(b.measuredSends.Load()) / math.Max(1, float64(b.ticks.measured)),
		"pgos.path_blocked":          float64(blocked),
		"pgos.remaps":                float64(stats.Remaps),
		"pgos.slot_misses":           float64(stats.SlotMisses),
		"transport.queue_us.p50":     tr.quantileOf("transport.queue_us", 0.50),
		"transport.queue_us.p99":     tr.quantileOf("transport.queue_us", 0.99),
		"transport.sendbatch_us.p50": tr.quantileOf("transport.sendbatch_us", 0.50),
		"transport.sendbatch_us.p99": tr.quantileOf("transport.sendbatch_us", 0.99),
		"transport.batch_size.mean":  tr.meanOf("transport.batch_size"),
		"transport.window_blocks":    transportCounters.windowBlocks,
		"transport.retx_ratio":       transportCounters.retx / math.Max(1, transportCounters.sent),
		"transport.transit_us.p50":   tr.quantileOf("transport.transit_us", 0.50),
		"transport.transit_us.p99":   tr.quantileOf("transport.transit_us", 0.99),
		"testbed.forwarded":          float64(relayStats.Forwarded),
		"testbed.dropped":            float64(relayStats.Dropped),
		"testbed.lost":               float64(relayStats.Lost),
		"monitor.warm_s":             b.warmSec,
		"monitor.pctl_miss_frac":     float64(b.pctlMiss) / math.Max(1, float64(b.pctlN)),
		"account.observe_us.p99":     tr.quantileOf("account.observe_us", 0.99),
		"account.windows":            float64(out.windows),
		"account.violated_windows":   float64(out.violated),
		"proc.allocs_per_pkt":        iv.allocs / math.Max(1, float64(pkts)),
		"proc.gc_cpu_frac":           iv.gcCPUFrac,
		"gen.late_ms.p99":            tr.quantileOf("gen.late_ms", 0.99),
	}
	tickLayer := "pgos"
	if b.sdrv != nil {
		tickLayer = "shard"
	}
	L[tickLayer+".tick_us.p50"] = tr.quantileOf(tickLayer+".tick_us", 0.50)
	L[tickLayer+".tick_us.p99"] = tr.quantileOf(tickLayer+".tick_us", 0.99)
	if rcv0 >= 0 && rcv1 >= 0 {
		L["net.rcvbuf_drops"] = float64(rcv1 - rcv0)
	}
	for layer, share := range shares {
		L["cpu."+layer] = share
	}
	for name, v := range tr.selfTimes() {
		L["self."+name+"_us.mean"] = v
	}
	out.layer = L
	return out, nil
}

func (b *liveBench) lagResyncs() uint64 {
	if b.sdrv != nil {
		return b.sdrv.LagResyncs()
	}
	return b.drv.LagResyncs()
}

func (b *liveBench) relayStats() testbed.Stats {
	var s testbed.Stats
	for _, r := range b.relays {
		rs := r.Stats()
		s.Forwarded += rs.Forwarded
		s.Dropped += rs.Dropped
		s.Lost += rs.Lost
		s.Returned += rs.Returned
	}
	return s
}

type transportCounters struct{ sent, retx, windowBlocks float64 }

// transportCounters reads the iqpaths_transport_* counters the run's
// connections report into the benchmark's registry.
func (b *liveBench) transportCounters() transportCounters {
	c := func(name string) float64 { return float64(b.reg.Counter(name, "").Value()) }
	return transportCounters{
		sent:         c("iqpaths_transport_sent_messages_total"),
		retx:         c("iqpaths_transport_retransmits_total"),
		windowBlocks: c("iqpaths_transport_send_window_blocks_total"),
	}
}
