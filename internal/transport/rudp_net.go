package transport

import (
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"
)

// demuxBatch bounds the datagrams one listener/dialer read syscall may
// deliver; the receive buffers are pooled WireBufs reused across reads.
const demuxBatch = 32

// rxLoop is one socket's batched receive loop, shared by the listener and
// the dialer. Each datagram is parsed in place over its pooled receive
// buffer, so only the data a session delivers is copied (once, into a
// message the application owns). In-order acks are coalesced: a session
// that delivers several frames in one recvmmsg batch owes one cumulative
// ack, sent when the batch ends, and every session's ack for the batch
// leaves in one WriteBatch.
type rxLoop struct {
	bc *BatchConn
	// route maps a parsed frame to its session, or nil when the socket
	// consumed the frame itself (handshake) or drops it.
	route func(m *Message, from netip.AddrPort) *RUDPConn

	dgs  []Datagram
	bufs []*WireBuf
	m    Message // the frame being dispatched; aliases a receive buffer

	owed    []owedAck
	acks    []Datagram
	ackBufs [demuxBatch][headerLen]byte
}

// owedAck is the ack one session owes at the end of the current batch.
type owedAck struct {
	c   *RUDPConn
	due ackDue
}

func newRxLoop(bc *BatchConn, route func(*Message, netip.AddrPort) *RUDPConn) *rxLoop {
	rx := &rxLoop{
		bc:    bc,
		route: route,
		dgs:   make([]Datagram, demuxBatch),
		bufs:  make([]*WireBuf, demuxBatch),
		owed:  make([]owedAck, 0, demuxBatch),
		acks:  make([]Datagram, 0, demuxBatch),
	}
	for i := range rx.dgs {
		rx.bufs[i] = AcquireWire()
		rx.dgs[i].Buf = rx.bufs[i].Grow(rudpMaxDatagram)
	}
	return rx
}

// run reads and processes batches until the socket fails (closed, or
// woken by a deadline), then returns the receive buffers to the pool.
func (rx *rxLoop) run() {
	defer rx.release()
	for {
		n, err := rx.bc.ReadBatch(rx.dgs)
		if err != nil {
			return
		}
		rx.process(rx.dgs[:n])
	}
}

// release returns the receive buffers to the pool.
func (rx *rxLoop) release() {
	for _, wb := range rx.bufs {
		ReleaseWire(wb)
	}
}

// process dispatches one read batch and then settles the acks it owes.
func (rx *rxLoop) process(dgs []Datagram) {
	for i := range dgs {
		d := &dgs[i]
		if parseFrame(d.Buf[:d.N], &rx.m) != nil {
			continue // garbage datagram
		}
		c := rx.route(&rx.m, d.Addr)
		if c == nil {
			continue
		}
		if due := c.receive(&rx.m); due != ackNone {
			rx.owe(c, due)
		}
	}
	rx.m = Message{} // drop the alias into the receive buffer
	rx.flush()
}

func (rx *rxLoop) owe(c *RUDPConn, due ackDue) {
	for i := range rx.owed {
		if rx.owed[i].c == c {
			rx.owed[i].due = max(rx.owed[i].due, due)
			return
		}
	}
	rx.owed = append(rx.owed, owedAck{c: c, due: due})
}

// flush sends one cumulative ack, carrying the final delivered sequence,
// for every session whose deliveries in this batch crossed an ack
// boundary, all in one WriteBatch; sessions that stopped short of a
// boundary arm their delayed-ack flush instead. Duplicate and out-of-order
// frames were already re-acked one by one as they arrived, and a batch ack
// that one of those re-acks already carried is skipped, so coalescing
// removes only redundant in-order acks and never adds a duplicate to the
// count fast retransmit triggers on.
func (rx *rxLoop) flush() {
	acks := rx.acks[:0]
	for i := range rx.owed {
		o := rx.owed[i]
		rx.owed[i] = owedAck{}
		if o.due != ackNow {
			o.c.settle(o.due)
			continue
		}
		cum, fresh := o.c.takeAck(true)
		if !fresh {
			continue
		}
		buf := rx.ackBufs[len(acks)][:]
		putHeader(buf, KindAck, 0, cum)
		acks = append(acks, Datagram{Buf: buf, Addr: o.c.to})
	}
	rx.owed = rx.owed[:0]
	if len(acks) > 0 {
		_, _ = rx.bc.WriteBatch(acks) // advisory, like every ack write
		clear(acks)
	}
	rx.acks = acks[:0]
}

// RUDPListener accepts RUDP sessions on one UDP socket, demultiplexing
// datagrams by peer address. Reads go through the batched wire layer, so
// a burst of datagrams from many peers costs one recvmmsg, not one
// syscall each.
type RUDPListener struct {
	sock *net.UDPConn
	bc   *BatchConn

	mu       sync.Mutex
	accepted *sync.Cond // signaled when pending grows or the listener closes
	sessions map[netip.AddrPort]*RUDPConn
	// pending holds sessions awaiting Accept. It is unbounded: a session
	// registered in sessions MUST be delivered (or torn down) — a bounded
	// queue that silently dropped the notification left the peer with a
	// completed handshake against a session no one would ever Accept.
	pending []*RUDPConn
	closed  bool

	// demuxDone closes when the demux goroutine has exited; Close waits on
	// it before tearing down the socket, so no session write launched from
	// demux can race the teardown.
	demuxDone chan struct{}
}

// ListenRUDP binds a UDP socket (e.g. "127.0.0.1:0") and starts the demux.
func ListenRUDP(addr string) (*RUDPListener, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", ua)
	if err != nil {
		return nil, err
	}
	// Large buffers absorb striping bursts; errors are advisory (the OS
	// may clamp to its limits).
	_ = sock.SetReadBuffer(1 << 21)
	_ = sock.SetWriteBuffer(1 << 21)
	bc, err := NewBatchConn(sock)
	if err != nil {
		sock.Close()
		return nil, err
	}
	l := &RUDPListener{
		sock:      sock,
		bc:        bc,
		sessions:  map[netip.AddrPort]*RUDPConn{},
		demuxDone: make(chan struct{}),
	}
	l.accepted = sync.NewCond(&l.mu)
	// The loop's receive buffers are acquired on its own goroutine, off
	// the caller's set-up path.
	go func() {
		defer close(l.demuxDone)
		newRxLoop(bc, l.dispatch).run()
	}()
	return l, nil
}

// Addr returns the bound address.
func (l *RUDPListener) Addr() string { return l.sock.LocalAddr().String() }

// Accept returns the next new session (created on its first SYN). Sessions
// already pending when the listener closes are still delivered.
func (l *RUDPListener) Accept() (*RUDPConn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.pending) == 0 && !l.closed {
		l.accepted.Wait()
	}
	if len(l.pending) == 0 {
		return nil, ErrClosed
	}
	c := l.pending[0]
	l.pending = l.pending[1:]
	return c, nil
}

// Close shuts the listener and every session down. Shutdown is sequenced:
// the demux goroutine is stopped (and waited for) before the socket
// closes, so a SYN-ACK or session ack mid-write never hits a dead socket
// and surfaces a spurious error into send callbacks.
func (l *RUDPListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	l.pending = nil
	sessions := make([]*RUDPConn, 0, len(l.sessions))
	for _, c := range l.sessions {
		sessions = append(sessions, c)
	}
	l.accepted.Broadcast()
	l.mu.Unlock()
	// Wake the demux read and wait for the goroutine to drain out.
	_ = l.sock.SetReadDeadline(time.Now())
	<-l.demuxDone
	// Session FINs still flow through the (open) socket, then it closes.
	for _, c := range sessions {
		_ = c.Close()
	}
	return l.sock.Close()
}

// dispatch routes one datagram to its session. Sessions are created on
// SYN only: any other frame from an unknown peer — a stray ack from a
// half-closed session, a data frame from a port scan — is dropped instead
// of registering a ghost session that would sit in pending forever.
func (l *RUDPListener) dispatch(m *Message, from netip.AddrPort) *RUDPConn {
	isSyn := m.Kind == KindControl && m.Seq == 0 && string(m.Payload) == string(ctlSyn)
	l.mu.Lock()
	conn, ok := l.sessions[from]
	if !ok {
		if l.closed || !isSyn {
			l.mu.Unlock()
			return nil
		}
		conn = newRUDPConn(from.String(), func(d []byte) error {
			_, werr := l.sock.WriteToUDPAddrPort(d, from)
			return werr
		}, func() {
			l.mu.Lock()
			delete(l.sessions, from)
			l.mu.Unlock()
		})
		conn.to = from
		conn.writev = writeBatch(l.bc)
		l.sessions[from] = conn
		l.pending = append(l.pending, conn)
		l.accepted.Signal()
	}
	l.mu.Unlock()
	if isSyn {
		// First or duplicate SYN: (re-)confirm the handshake.
		_, _ = l.sock.WriteToUDPAddrPort(synAckFrame, from)
		return nil
	}
	return conn
}

// rudpHandshakeRetry is the SYN retransmission interval during DialRUDP.
const rudpHandshakeRetry = 50 * time.Millisecond

// DialRUDP opens an RUDP session to addr, performing a small SYN/SYN-ACK
// handshake so the server registers the session before data flows.
func DialRUDP(addr string, timeout time.Duration) (*RUDPConn, error) {
	ua, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	sock, err := net.DialUDP("udp", nil, ua)
	if err != nil {
		return nil, err
	}
	_ = sock.SetReadBuffer(1 << 21)
	_ = sock.SetWriteBuffer(1 << 21)
	bc, err := NewBatchConn(sock)
	if err != nil {
		sock.Close()
		return nil, err
	}
	conn := newRUDPConn(addr, func(d []byte) error {
		_, werr := sock.Write(d)
		return werr
	}, func() { _ = sock.Close() })
	conn.writev = writeBatch(bc)

	// Reader loop: everything from the socket goes to the session, read in
	// recvmmsg batches.
	ready := make(chan struct{})
	go func() {
		newRxLoop(bc, dialRoute(conn, ready)).run()
		_ = conn.Close()
	}()

	// Handshake with retry. One reusable timer serves every wait (the old
	// per-retry time.After leaked a timer per attempt), and the final wait
	// is clamped to the remaining deadline so the call returns within the
	// caller's timeout instead of overshooting by up to a retry interval.
	deadline := time.Now().Add(timeout)
	timer := time.NewTimer(timeout)
	if !timer.Stop() {
		<-timer.C
	}
	defer timer.Stop()
	for {
		if _, err := sock.Write(synFrame); err != nil {
			_ = conn.Close()
			return nil, err
		}
		wait := rudpHandshakeRetry
		if remaining := time.Until(deadline); remaining < wait {
			wait = remaining
		}
		if wait <= 0 {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: RUDP handshake with %s timed out", addr)
		}
		timer.Reset(wait)
		select {
		case <-ready:
			return conn, nil
		case <-timer.C:
		}
		if !time.Now().Before(deadline) {
			_ = conn.Close()
			return nil, fmt.Errorf("transport: RUDP handshake with %s timed out", addr)
		}
	}
}

// writeBatch adapts a socket's BatchConn to RUDPConn.writev.
func writeBatch(bc *BatchConn) func([]Datagram) error {
	return func(dgs []Datagram) error {
		_, err := bc.WriteBatch(dgs)
		return err
	}
}

// dialRoute routes every frame on a dialed socket to its one session,
// except the SYN-ACK, which closes ready to finish the handshake.
func dialRoute(conn *RUDPConn, ready chan struct{}) func(*Message, netip.AddrPort) *RUDPConn {
	var once sync.Once
	return func(m *Message, _ netip.AddrPort) *RUDPConn {
		if m.Kind == KindControl && string(m.Payload) == string(ctlSynAck) {
			once.Do(func() { close(ready) })
			return nil
		}
		return conn
	}
}

var _ Conn = (*RUDPConn)(nil)
var _ Conn = (*TCPConn)(nil)
