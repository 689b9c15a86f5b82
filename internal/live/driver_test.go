package live

import (
	"context"
	"sync"
	"testing"
	"time"

	"iqpaths/internal/monitor"
	"iqpaths/internal/sched"
	"iqpaths/internal/simnet"
	"iqpaths/internal/stream"
)

// fakePath is an in-memory sched.PathService that accepts everything.
type fakePath struct {
	id   int
	name string

	mu   sync.Mutex
	sent []*simnet.Packet
}

func (f *fakePath) ID() int            { return f.id }
func (f *fakePath) Name() string       { return f.name }
func (f *fakePath) QueuedPackets() int { return 0 }
func (f *fakePath) Send(p *simnet.Packet) bool {
	f.mu.Lock()
	f.sent = append(f.sent, p)
	f.mu.Unlock()
	return true
}

func (f *fakePath) packets() []*simnet.Packet {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]*simnet.Packet(nil), f.sent...)
}

// newTestDriver builds a one-stream one-path driver with a warm monitor.
func newTestDriver(t *testing.T, cfg Config, spec stream.Spec) (*Driver, *fakePath, *FakeClock) {
	t.Helper()
	clock := NewFakeClock()
	cfg.Clock = clock
	p := &fakePath{id: 0, name: "p0"}
	mon := monitor.New("p0", 64, 8)
	for i := 0; i < 16; i++ {
		mon.ObserveBandwidth(100)
	}
	d := NewDriver(cfg, []stream.Spec{spec}, []sched.PathService{p}, []*monitor.PathMonitor{mon})
	return d, p, clock
}

func TestDriverDispatchesOfferedPackets(t *testing.T) {
	spec := stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 1.2, Probability: 0.9, PacketBits: 12000}
	d, p, _ := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1}, spec)
	// Quota: 1.2 Mbps over a 0.1 s window at 12000-bit packets = 10 packets.
	for i := 0; i < 10; i++ {
		if !d.Offer(0, 12000) {
			t.Fatalf("Offer %d refused", i)
		}
	}
	for i := 0; i < 10; i++ {
		d.Step()
	}
	sent := p.packets()
	if len(sent) != 10 {
		t.Fatalf("path received %d packets, want 10", len(sent))
	}
	if d.Backlog(0) != 0 {
		t.Fatalf("backlog %d after full window, want 0", d.Backlog(0))
	}
	if st := d.SchedStats(); st.ScheduledSent == 0 {
		t.Fatalf("no packets sent under the scheduled rule: %+v", st)
	}
	m := d.Mapping()
	if len(m.Packets) != 1 || m.Packets[0][0] < 10 {
		t.Fatalf("mapping quota %v, want >= 10 on path 0", m.Packets)
	}
}

func TestDriverDeadlineStampPerWindow(t *testing.T) {
	spec := stream.Spec{Name: "be", Kind: stream.BestEffort, PacketBits: 12000}
	d, p, clock := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.05}, spec)

	var windows []int64
	d.cfg.OnWindow = func(w int64) { windows = append(windows, w) }

	tick := 10 * time.Millisecond
	// Window 0 spans ticks [0,5); entered at Step 0 with clock at 0, so its
	// wire deadline is TwSec = 50 ms.
	d.Offer(0, 12000)
	for i := 0; i < 5; i++ {
		d.Step()
		clock.Advance(tick)
	}
	// Window 1 is entered at Step 5 with the clock at 50 ms: deadline 100 ms.
	d.Offer(0, 12000)
	for i := 0; i < 5; i++ {
		d.Step()
		clock.Advance(tick)
	}

	sent := p.packets()
	if len(sent) != 2 {
		t.Fatalf("path received %d packets, want 2", len(sent))
	}
	if want := uint64(50 * time.Millisecond); sent[0].Frame != want {
		t.Fatalf("window-0 packet stamp %d, want %d", sent[0].Frame, want)
	}
	if want := uint64(100 * time.Millisecond); sent[1].Frame != want {
		t.Fatalf("window-1 packet stamp %d, want %d", sent[1].Frame, want)
	}
	if sent[0].Deadline != 5 || sent[1].Deadline != 10 {
		t.Fatalf("tick deadlines %d, %d, want 5, 10", sent[0].Deadline, sent[1].Deadline)
	}
	if len(windows) != 2 || windows[0] != 0 || windows[1] != 1 {
		t.Fatalf("OnWindow fired with %v, want [0 1]", windows)
	}
}

func TestDriverOnTickOffersInline(t *testing.T) {
	spec := stream.Spec{Name: "g", Kind: stream.Probabilistic, RequiredMbps: 1.2, Probability: 0.9, PacketBits: 12000}
	var d *Driver
	var p *fakePath
	cbr := &CBR{Mbps: 1.2, PacketBits: 12000}
	cfg := Config{TickSeconds: 0.01, TwSec: 0.1, OnTick: func(tick int64) {
		n := cbr.Packets(0.01)
		for i := 0; i < n; i++ {
			d.Offer(0, 12000)
		}
	}}
	d, p, _ = newTestDriver(t, cfg, spec)
	for i := 0; i < 20; i++ {
		d.Step()
	}
	// 1.2 Mbps at 10 ms ticks is exactly one packet per tick.
	if got := len(p.packets()); got != 20 {
		t.Fatalf("path received %d packets over 20 ticks, want 20", got)
	}
}

func TestDriverRunPacesOnClock(t *testing.T) {
	spec := stream.Spec{Name: "be", Kind: stream.BestEffort}
	d, _, clock := newTestDriver(t, Config{TickSeconds: 0.01, TwSec: 0.1, MaxCatchUp: 10}, spec)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		d.Run(ctx)
		close(done)
	}()

	for i := 0; i < 5; i++ {
		clock.BlockUntilTimers(1)
		clock.Advance(10 * time.Millisecond)
	}
	clock.BlockUntilTimers(1) // Run parked again: exactly 5 steps happened
	if got := d.Tick(); got != 5 {
		t.Fatalf("tick %d after 5 advances, want 5", got)
	}

	// A long stall catches up at most MaxCatchUp ticks, then resyncs.
	clock.Advance(1 * time.Second)
	clock.BlockUntilTimers(1)
	if got := d.Tick(); got != 15 {
		t.Fatalf("tick %d after stall, want 15 (5 + MaxCatchUp)", got)
	}
	if got := d.LagResyncs(); got != 1 {
		t.Fatalf("lag resyncs %d, want 1", got)
	}

	cancel()
	clock.Advance(10 * time.Millisecond) // release the final After
	<-done
}

func TestDriverWarm(t *testing.T) {
	clock := NewFakeClock()
	p := &fakePath{id: 0, name: "p0"}
	mon := monitor.New("p0", 64, 8)
	d := NewDriver(Config{Clock: clock}, []stream.Spec{{Name: "be"}}, []sched.PathService{p}, []*monitor.PathMonitor{mon})
	if d.Warm() {
		t.Fatal("Warm() true with no samples")
	}
	for i := 0; i < 8; i++ {
		d.ObserveBandwidth(0, 50)
		d.ObserveRTT(0, 0.01)
		d.ObserveLoss(0, 0)
	}
	if !d.Warm() {
		t.Fatal("Warm() false after minWarm samples")
	}
}

func TestCBRCarry(t *testing.T) {
	c := &CBR{Mbps: 1.0, PacketBits: 12000}
	total := 0
	for i := 0; i < 100; i++ {
		total += c.Packets(0.01)
	}
	// 1 Mbps for 1 s = 1e6 bits = 83.33 packets; carry keeps it exact.
	if total != 83 {
		t.Fatalf("CBR emitted %d packets over 1s, want 83", total)
	}
}
