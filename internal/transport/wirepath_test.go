package transport

import (
	"fmt"
	"net"
	"net/netip"
	"testing"
	"time"
)

// rawPeer is a bare UDP socket that has completed the RUDP handshake with
// a listener: the listener holds a session for it, and the test drives
// that session's receive path with hand-built frames.
type rawPeer struct {
	l    *RUDPListener
	sock *net.UDPConn
	addr netip.AddrPort // the peer's address, as the listener keys it
	srv  *RUDPConn      // the listener's session for the peer
}

func newRawPeer(t *testing.T) *rawPeer {
	t.Helper()
	l, err := ListenRUDP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		l.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close(); sock.Close() })
	laddr := netip.MustParseAddrPort(l.Addr())
	if _, err := sock.WriteToUDPAddrPort(synFrame, laddr); err != nil {
		t.Fatal(err)
	}
	_ = sock.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	n, err := sock.Read(buf)
	if err != nil {
		t.Fatalf("no SYN-ACK: %v", err)
	}
	if m, err := Unmarshal(buf[:n]); err != nil || string(m.Payload) != string(ctlSynAck) {
		t.Fatalf("expected SYN-ACK, got %q (%v)", buf[:n], err)
	}
	srv, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	return &rawPeer{l: l, sock: sock, addr: sock.LocalAddr().(*net.UDPAddr).AddrPort(), srv: srv}
}

// frame marshals m as a datagram arriving from the peer.
func (p *rawPeer) frame(t testing.TB, m *Message) Datagram {
	t.Helper()
	b, err := m.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return Datagram{Buf: b, N: len(b), Addr: p.addr}
}

// readAcks collects the ack frames reaching the peer until the socket has
// been quiet for quiet.
func (p *rawPeer) readAcks(t *testing.T, quiet time.Duration) []uint64 {
	t.Helper()
	var acks []uint64
	buf := make([]byte, 2048)
	for {
		_ = p.sock.SetReadDeadline(time.Now().Add(quiet))
		n, err := p.sock.Read(buf)
		if err != nil {
			return acks
		}
		m, err := Unmarshal(buf[:n])
		if err != nil {
			t.Fatalf("peer got a malformed frame: %v", err)
		}
		if m.Kind == KindAck {
			acks = append(acks, m.Seq)
		}
	}
}

// TestReadBatchCoalescesInOrderAcks: a read batch of N in-order data
// frames from one peer owes one ack, carrying the final cumulative
// sequence — not one ack per crossed boundary.
func TestReadBatchCoalescesInOrderAcks(t *testing.T) {
	p := newRawPeer(t)
	rx := newRxLoop(p.l.bc, p.l.dispatch)
	defer rx.release()

	const n = 10 // crosses the boundaries at 4 and 8, ends past them
	batch := make([]Datagram, n)
	for i := range batch {
		batch[i] = p.frame(t, &Message{Kind: KindData, Seq: uint64(i + 1), Frame: uint64(i), Payload: []byte{byte(i)}})
	}
	rx.process(batch)

	if acks := p.readAcks(t, 100*time.Millisecond); len(acks) != 1 || acks[0] != n {
		t.Fatalf("acks for one batch of %d in-order frames = %v, want exactly [%d]", n, acks, n)
	}
	for i := 0; i < n; i++ {
		m, err := p.srv.Recv()
		if err != nil {
			t.Fatal(err)
		}
		if m.Frame != uint64(i) || len(m.Payload) != 1 || m.Payload[0] != byte(i) {
			t.Fatalf("message %d: frame %d payload %v", i, m.Frame, m.Payload)
		}
	}
}

// TestReadBatchReacksOutOfOrderAtOnce: coalescing covers in-order
// progress only. Every out-of-order frame in a batch still draws its own
// ack, and coalescing adds none, so a sender's dup-ack count (and fast
// retransmit) is the same as without batching.
func TestReadBatchReacksOutOfOrderAtOnce(t *testing.T) {
	p := newRawPeer(t)
	rx := newRxLoop(p.l.bc, p.l.dispatch)
	defer rx.release()

	// Seq 1 delivers; 3, 4, 5 arrive with 2 missing.
	var batch []Datagram
	for _, seq := range []uint64{1, 3, 4, 5} {
		batch = append(batch, p.frame(t, &Message{Kind: KindData, Seq: seq, Payload: []byte("x")}))
	}
	rx.process(batch)
	// The first re-ack also covers seq 1's in-order delivery, so neither
	// the batch nor the delayed-ack flush adds a fourth.
	if acks := p.readAcks(t, 100*time.Millisecond); fmt.Sprint(acks) != "[1 1 1]" {
		t.Fatalf("acks = %v, want one re-ack of seq 1 per out-of-order frame: [1 1 1]", acks)
	}
}

// TestRUDPRecvQueueStall is the regression test for acked-but-dropped
// data: a receiver whose application stopped reading used to ack every
// in-order frame and then drop it when the 1024-message queue was full.
// Now delivery stops at the first frame that does not fit, which stays
// buffered and unacked, so the sender's window holds the rest. After the
// consumer resumes, every message arrives exactly once and in order.
func TestRUDPRecvQueueStall(t *testing.T) {
	client, server, cleanup := rudpPair(t)
	defer cleanup()

	const total = 3000
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			if err := client.Send(&Message{Kind: KindData, Frame: uint64(i), Payload: []byte(fmt.Sprint(i))}); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Stall until the sender is well past the queue's capacity, then a
	// while longer so duplicate acks and retransmits hit the full queue.
	deadline := time.Now().Add(5 * time.Second)
	for client.SentSeq() < uint64(cap(server.recvQ)+rudpWindow/2) {
		if time.Now().After(deadline) {
			t.Fatalf("sender stuck at seq %d before the queue filled", client.SentSeq())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(150 * time.Millisecond)
	if got := client.SentSeq(); got >= total {
		t.Fatalf("sender finished (%d sent) while the consumer stalled: nothing throttled it", got)
	}

	got := make(chan error, 1)
	go func() {
		for i := 0; i < total; i++ {
			m, err := server.Recv()
			if err != nil {
				got <- fmt.Errorf("recv %d: %w", i, err)
				return
			}
			if m.Frame != uint64(i) || string(m.Payload) != fmt.Sprint(i) {
				got <- fmt.Errorf("recv %d: frame %d payload %q (lost or reordered)", i, m.Frame, m.Payload)
				return
			}
		}
		got <- nil
	}()
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("consumer deadlocked after the stall")
	}
	if err := <-sendErr; err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := len(server.recvQ); n != 0 {
		t.Fatalf("%d messages delivered beyond the %d sent", n, total)
	}
	deadline = time.Now().Add(2 * time.Second)
	for client.InFlight() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("in-flight stuck at %d after the drain", client.InFlight())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestWirePathAllocs pins the steady-state allocation budget of the RUDP
// data path: acks cost nothing through either read loop, a data frame
// costs exactly its Message and payload, and SendBatch admits (with the
// acks that retire them) cost nothing per message.
func TestWirePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	p := newRawPeer(t)
	rx := newRxLoop(p.l.bc, p.l.dispatch)
	defer rx.release()

	ack := []Datagram{p.frame(t, &Message{Kind: KindAck, Seq: 0})}
	if a := testing.AllocsPerRun(1000, func() { rx.process(ack) }); a != 0 {
		t.Errorf("ack frame through the listener read path: %v allocs, want 0", a)
	}
	echo := []Datagram{p.frame(t, &Message{Kind: KindProbe, Stream: 1, Seq: 7})}
	if a := testing.AllocsPerRun(1000, func() { rx.process(echo) }); a != 0 {
		t.Errorf("probe echo through the listener read path: %v allocs, want 0", a)
	}

	dialed, err := DialRUDP(p.l.Addr(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer dialed.Close()
	// Ack frames owe no write, so this loop needs no socket of its own.
	drx := newRxLoop(nil, dialRoute(dialed, make(chan struct{})))
	defer drx.release()
	if a := testing.AllocsPerRun(1000, func() { drx.process(ack) }); a != 0 {
		t.Errorf("ack frame through the dialer read path: %v allocs, want 0", a)
	}

	payload := make([]byte, 1200)
	wire := make([]byte, 0, headerLen+len(payload))
	data := []Datagram{{Addr: p.addr}}
	seq := uint64(0)
	a := testing.AllocsPerRun(1000, func() {
		seq++
		m := Message{Kind: KindData, Seq: seq, Payload: payload}
		data[0].Buf, _ = m.appendMarshal(wire)
		data[0].N = len(data[0].Buf)
		rx.process(data)
		if _, err := p.srv.Recv(); err != nil {
			t.Fatal(err)
		}
	})
	if a != 2 {
		t.Errorf("data frame through the listener read path: %v allocs, want 2 (Message and payload)", a)
	}

	c := newRUDPConn("sink", func([]byte) error { return nil }, nil)
	defer c.Close()
	c.writev = func([]Datagram) error { return nil }
	const batch = 16
	msgs := make([]*Message, batch)
	for i := range msgs {
		msgs[i] = &Message{Kind: KindData, Payload: payload}
	}
	sendAndAck := func() {
		if err := c.SendBatch(msgs); err != nil {
			t.Fatal(err)
		}
		c.onAck(c.SentSeq())
	}
	for i := 0; i < 100; i++ { // warm the wire-buffer pool and scratch
		sendAndAck()
	}
	if a := testing.AllocsPerRun(1000, sendAndAck); a != 0 {
		t.Errorf("SendBatch of %d steady-state admits: %v allocs per batch, want 0", batch, a)
	}
	if n := c.InFlight(); n != 0 {
		t.Fatalf("in flight after acking everything: %d", n)
	}
}

// TestSendWindowRing checks the ring's invariant through a wrap-around:
// in flight is exactly [lowest, nextSeq), a cumulative ack retires the
// prefix, and an ack beyond what was sent is clamped.
func TestSendWindowRing(t *testing.T) {
	c := newRUDPConn("sink", func([]byte) error { return nil }, nil)
	defer c.Close()
	base := WireOutstanding()
	msg := &Message{Kind: KindData, Payload: []byte("ring")}
	for round := 0; round < 3; round++ { // 3 × 200 sends wrap the 256-slot ring
		for i := 0; i < 200; i++ {
			if err := c.Send(msg); err != nil {
				t.Fatal(err)
			}
		}
		if n := c.InFlight(); n != 200 {
			t.Fatalf("round %d: in flight %d, want 200", round, n)
		}
		c.onAck(c.SentSeq() - 50)
		if n := c.InFlight(); n != 50 {
			t.Fatalf("round %d: in flight %d after a partial ack, want 50", round, n)
		}
		c.onAck(c.SentSeq() + 1000) // bogus: past anything sent
		if n := c.InFlight(); n != 0 {
			t.Fatalf("round %d: in flight %d after acking everything", round, n)
		}
		if got := WireOutstanding(); got != base {
			t.Fatalf("round %d: %d wire buffers outstanding, want %d", round, got, base)
		}
	}
	// The clamped ack did not move the window past the next sequence: a
	// fresh send is in flight and ackable.
	if err := c.Send(msg); err != nil {
		t.Fatal(err)
	}
	if n := c.InFlight(); n != 1 {
		t.Fatalf("in flight %d after one more send, want 1", n)
	}
	c.onAck(c.SentSeq())
	if n := c.InFlight(); n != 0 {
		t.Fatalf("in flight %d after acking the last send", n)
	}
}
